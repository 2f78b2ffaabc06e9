/**
 * @file
 * Figure 4: application-only instruction cache misses across cache
 * sizes (32KB-512KB) and line sizes (16B-256B), direct-mapped, for the
 * baseline (a) and fully optimized (b) binaries. Also reports the
 * paper's packed-footprint comparison (500KB vs 315KB at 128B lines).
 *
 * Each binary's 25 configurations are priced as one i-cache column: one
 * trace resolution and one fused replay sharded across the thread pool
 * (or, with `--threads 0`, one scalar oracle walk per configuration).
 */

#include "bench/common.hh"
#include "metrics/footprint.hh"

using namespace spikesim;

namespace {

const std::vector<std::uint32_t> kSizesKb{32, 64, 128, 256, 512};
const std::vector<std::uint32_t> kLines{16, 32, 64, 128, 256};

void
printSweep(const bench::Workload& w, const core::Layout& layout,
           const std::string& title)
{
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t kb : kSizesKb)
        for (std::uint32_t line : kLines)
            grid.push_back({kb * 1024, line, 1});
    bench::BenchReplay rep(w, layout);
    const std::vector<sim::ICacheReplayResult> column =
        rep.icacheColumn(grid, sim::StreamFilter::AppOnly);

    std::cout << title << "\n";
    support::TablePrinter table(
        {"cache", "16B", "32B", "64B", "128B", "256B"});
    for (std::uint32_t kb : kSizesKb) {
        std::vector<std::string> row{std::to_string(kb) + "KB"};
        for (std::uint32_t line : kLines)
            row.push_back(support::withCommas(
                bench::gridMisses(grid, column, kb * 1024, line, 1)));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Figure 4",
                  "application i-cache misses vs cache size and line "
                  "size (direct-mapped)");
    bench::Workload w = bench::runWorkload(argc, argv);
    core::Layout base = w.appLayout(core::OptCombo::Base);
    core::Layout opt = w.appLayout(core::OptCombo::All);

    printSweep(w, base, "(a) baseline OLTP binary");
    printSweep(w, opt, "(b) optimized OLTP binary");

    std::uint64_t base_fp =
        metrics::packedFootprintBytes(w.appProfile(), base, 128);
    std::uint64_t opt_fp =
        metrics::packedFootprintBytes(w.appProfile(), opt, 128);
    std::cout << "packed footprint in 128B lines: base "
              << support::bytesHuman(base_fp) << ", optimized "
              << support::bytesHuman(opt_fp) << " ("
              << support::percent(1.0 - static_cast<double>(opt_fp) /
                                            static_cast<double>(base_fp))
              << " smaller)\n\n";

    bench::paperVsMeasured(
        "optimized packed footprint vs base (128B lines)",
        "315KB vs 500KB (37% smaller)",
        support::bytesHuman(opt_fp) + " vs " +
            support::bytesHuman(base_fp) + " (" +
            support::percent(1.0 - static_cast<double>(opt_fp) /
                                       static_cast<double>(base_fp)) +
            " smaller)");
    bench::paperVsMeasured("line-size sweet spot",
                           "128-byte lines for both binaries",
                           "see minima of the rows above");
    return 0;
}
