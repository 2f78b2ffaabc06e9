/**
 * @file
 * Figure 5: instruction cache misses of the optimized binary relative
 * to the baseline (percent), across cache sizes and line sizes. Each
 * binary's 25 configurations are priced as one i-cache column.
 */

#include "bench/common.hh"

using namespace spikesim;

int
main(int argc, char** argv)
{
    bench::banner("Figure 5",
                  "relative misses, optimized/base (%), direct-mapped");
    bench::Workload w = bench::runWorkload(argc, argv);
    core::Layout base = w.appLayout(core::OptCombo::Base);
    core::Layout opt = w.appLayout(core::OptCombo::All);

    const std::vector<std::uint32_t> sizes{32 * 1024, 64 * 1024,
                                           128 * 1024, 256 * 1024,
                                           512 * 1024};
    const std::vector<std::uint32_t> lines{16, 32, 64, 128, 256};
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t size : sizes)
        for (std::uint32_t line : lines)
            grid.push_back({size, line, 1});
    auto price = [&](const core::Layout& layout) {
        bench::BenchReplay rep(w, layout);
        return rep.icacheColumn(grid, sim::StreamFilter::AppOnly);
    };
    const std::vector<sim::ICacheReplayResult> b = price(base);
    const std::vector<sim::ICacheReplayResult> o = price(opt);

    support::TablePrinter table(
        {"cache", "16B", "32B", "64B", "128B", "256B"});
    double at64_128 = 0, at128_128 = 0;
    for (std::uint32_t kb : sizes) {
        std::vector<std::string> row{std::to_string(kb / 1024) + "KB"};
        for (std::uint32_t line : lines) {
            std::uint64_t bm = bench::gridMisses(grid, b, kb, line, 1);
            std::uint64_t om = bench::gridMisses(grid, o, kb, line, 1);
            double rel = bm == 0 ? 100.0
                                 : 100.0 * static_cast<double>(om) /
                                       static_cast<double>(bm);
            if (line == 128 && kb == 64 * 1024)
                at64_128 = rel;
            if (line == 128 && kb == 128 * 1024)
                at128_128 = rel;
            row.push_back(support::fixed(rel, 1) + "%");
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";

    bench::paperVsMeasured(
        "application miss reduction at 64-128KB caches",
        "55%-65% fewer misses (relative = 35%-45%)",
        "relative misses " + support::fixed(at64_128, 1) + "% at 64KB, " +
            support::fixed(at128_128, 1) + "% at 128KB (128B lines)");
    bench::paperVsMeasured(
        "trend", "relative gains grow with line size and cache size "
                 "(up to 256KB)",
        "compare rows/columns above");
    return 0;
}
