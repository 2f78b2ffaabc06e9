/**
 * @file
 * Figure 6: impact of associativity (direct-mapped vs 4-way) on
 * instruction cache misses for the baseline and optimized binaries,
 * 128-byte lines. One fused i-cache column per binary prices both
 * associativities at every size.
 */

#include "bench/common.hh"

using namespace spikesim;

int
main(int argc, char** argv)
{
    bench::banner("Figure 6",
                  "associativity impact (128B lines), base vs optimized");
    bench::Workload w = bench::runWorkload(argc, argv);
    core::Layout base = w.appLayout(core::OptCombo::Base);
    core::Layout opt = w.appLayout(core::OptCombo::All);

    const std::vector<std::uint32_t> sizes{32 * 1024, 64 * 1024,
                                           128 * 1024, 256 * 1024,
                                           512 * 1024};
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t size : sizes)
        for (std::uint32_t assoc : {1, 4})
            grid.push_back({size, 128, assoc});
    auto price = [&](const core::Layout& layout) {
        bench::BenchReplay rep(w, layout);
        return rep.icacheColumn(grid, sim::StreamFilter::AppOnly);
    };
    const std::vector<sim::ICacheReplayResult> b = price(base);
    const std::vector<sim::ICacheReplayResult> o = price(opt);

    support::TablePrinter table({"cache", "baseline", "baseline 4-way",
                                 "optimized", "optimized 4-way"});
    double assoc_gain_64 = 0, layout_gain_64 = 0;
    for (std::uint32_t kb : sizes) {
        std::uint64_t b1 = bench::gridMisses(grid, b, kb, 128, 1);
        std::uint64_t b4 = bench::gridMisses(grid, b, kb, 128, 4);
        std::uint64_t o1 = bench::gridMisses(grid, o, kb, 128, 1);
        std::uint64_t o4 = bench::gridMisses(grid, o, kb, 128, 4);
        if (kb == 64 * 1024) {
            assoc_gain_64 = 1.0 - static_cast<double>(b4) /
                                      static_cast<double>(b1);
            layout_gain_64 = 1.0 - static_cast<double>(o1) /
                                       static_cast<double>(b1);
        }
        table.addRow({std::to_string(kb / 1024) + "KB",
                      support::withCommas(b1), support::withCommas(b4),
                      support::withCommas(o1), support::withCommas(o4)});
    }
    table.print(std::cout);
    std::cout << "\n";

    bench::paperVsMeasured(
        "associativity vs layout optimization (64KB)",
        "associativity gains are small; layout gains much larger",
        "4-way saves " + support::percent(assoc_gain_64) +
            " of base misses; layout saves " +
            support::percent(layout_gain_64));
    return 0;
}
