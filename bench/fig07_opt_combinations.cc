/**
 * @file
 * Figure 7: contribution of the individual code layout optimizations --
 * base, porder, chain, chain+split, chain+porder, all -- to
 * application instruction cache misses (128B lines, 4-way). The two
 * ablations the repository adds (classic hot/cold splitting and the
 * CFA layout the paper evaluated and rejected) are reported as well.
 * Each combination's five sizes are priced as one fused i-cache column.
 */

#include <map>

#include "bench/common.hh"

using namespace spikesim;

int
main(int argc, char** argv)
{
    bench::banner("Figure 7",
                  "impact of each optimization combination (128B/4-way)");
    bench::Workload w = bench::runWorkload(argc, argv);

    const std::vector<std::uint32_t> sizes{32 * 1024, 64 * 1024,
                                           128 * 1024, 256 * 1024,
                                           512 * 1024};
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t size : sizes)
        grid.push_back({size, 128, 4});

    std::vector<core::OptCombo> combos = core::allCombos();
    std::vector<std::vector<sim::ICacheReplayResult>> results;
    results.reserve(combos.size());
    for (core::OptCombo combo : combos) {
        const core::Layout layout = w.appLayout(combo);
        bench::BenchReplay rep(w, layout);
        results.push_back(
            rep.icacheColumn(grid, sim::StreamFilter::AppOnly));
    }

    // Key the summary picks on combo *names*, not enum positions, so
    // the table and the paper-comparison lines below survive combos
    // being appended to allCombos().
    support::TablePrinter table({"optimizations", "32KB", "64KB",
                                 "128KB", "256KB", "512KB"});
    std::map<std::string, std::uint64_t> misses64;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        std::vector<std::string> row{core::comboName(combos[i])};
        for (std::uint32_t kb : sizes) {
            std::uint64_t misses =
                bench::gridMisses(grid, results[i], kb, 128, 4);
            if (kb == 64 * 1024)
                misses64[core::comboName(combos[i])] = misses;
            row.push_back(support::withCommas(misses));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";

    const std::uint64_t base64 = misses64.at("base");
    const std::uint64_t porder64 = misses64.at("porder");
    const std::uint64_t chain64 = misses64.at("chain");
    const std::uint64_t all64 = misses64.at("all");

    auto pct = [](std::uint64_t part, std::uint64_t whole) {
        return support::percent(1.0 - static_cast<double>(part) /
                                          static_cast<double>(whole));
    };
    bench::paperVsMeasured(
        "basic block chaining is the largest single win (64KB)",
        "chain alone provides most of the improvement",
        "chain saves " + pct(chain64, base64) + ", all saves " +
            pct(all64, base64));
    bench::paperVsMeasured(
        "procedure ordering alone",
        "slight *increase* in misses",
        "porder alone changes misses by " +
            support::fixed((static_cast<double>(porder64) /
                                static_cast<double>(base64) -
                            1.0) *
                               100.0,
                           1) +
            "% (our ~1MB image makes whole-procedure clustering more "
            "effective than on Oracle's 27MB text; see EXPERIMENTS.md)");
    bench::paperVsMeasured(
        "ordering after fine-grain splitting",
        "chain+split+porder (all) clearly best",
        "all = " + support::withCommas(all64) + " vs chain = " +
            support::withCommas(chain64) + " at 64KB");
    return 0;
}
