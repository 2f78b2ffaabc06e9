/**
 * @file
 * Microbenchmarks for the trace-replay and cache simulation machinery
 * (the inner loops of every figure sweep).
 *
 * Before the google-benchmark suite runs, a headline comparison prices
 * the Figure 4 grid (25 direct-mapped configurations: 5 cache sizes x
 * 5 line sizes) three ways -- one scalar oracle walk per
 * configuration, one fused SoA i-cache column without a pool, and the
 * same column sharded across a thread pool -- verifies the miss
 * counts are bit-identical (exit 1 otherwise), and writes the numbers
 * to BENCH_cachesim.json so the perf trajectory is tracked.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "bench/common.hh"
#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"

using namespace spikesim;

namespace {

// RNG stream id for the random-address microbench, derived from the
// shared bench seed (bench::seedFromEnv).
constexpr std::uint64_t kRawAccessStream = 7;

/** Shared workload: image + profile + a modest trace. */
struct Shared
{
    synth::SyntheticProgram image;
    profile::Profile prof;
    trace::TraceBuffer buf;

    Shared()
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::oracleLike())),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker w(image.prog, trace::ImageId::App, 1);
        trace::ExecContext ctx;
        for (int i = 0; i < 400; ++i) {
            w.run(image.entry("sql_exec_update"), ctx, tee);
            w.run(image.entry("txn_commit"), ctx, tee);
        }
    }
};

Shared&
shared()
{
    static Shared s;
    return s;
}

core::Layout
layoutFor(core::OptCombo combo)
{
    core::PipelineOptions opts;
    opts.combo = combo;
    return core::buildLayout(shared().image.prog, shared().prof, opts);
}

/** The paper's Figure 4 grid: 25 direct-mapped configurations. */
std::vector<mem::CacheConfig>
fig04Grid()
{
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t kb : {32, 64, 128, 256, 512})
        for (std::uint32_t line : {16, 32, 64, 128, 256})
            grid.push_back({kb * 1024, line, 1});
    return grid;
}

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Headline comparison: per-config oracle vs SoA column (serial) vs SoA
 * column (pooled) on the 25-configuration Figure 4 grid, with a
 * differential check that both columns reproduce the oracle's miss and
 * access counts exactly. The column timings include the resolve.
 * Writes BENCH_cachesim.json.
 */
void
runGridComparison()
{
    using clock = std::chrono::steady_clock;
    Shared& s = shared();
    core::Layout base = layoutFor(core::OptCombo::Base);
    const std::vector<mem::CacheConfig> grid = fig04Grid();
    const sim::StreamFilter filter = sim::StreamFilter::AppOnly;
    sim::Replayer rep(s.buf, base);
    // Kernel calibration (SimdMode::Auto) runs once, outside the timing.
    const sim::KernelChoice choice = sim::resolveKernel(sim::SimdMode::Auto);

    // Per-config path: one full trace replay per configuration.
    auto t0 = clock::now();
    std::vector<sim::ICacheReplayResult> oracle;
    oracle.reserve(grid.size());
    for (const mem::CacheConfig& config : grid)
        oracle.push_back(rep.icache(config, filter));
    auto t1 = clock::now();

    // One resolve, one fused column walk, no pool.
    const std::vector<sim::ICacheReplayResult> serial = sim::replayICache(
        rep.resolveSoA(filter), grid, sim::SimdMode::Auto, nullptr);
    auto t2 = clock::now();

    // The same column sharded across a thread pool.
    support::ThreadPool pool;
    auto t3 = clock::now();
    const std::vector<sim::ICacheReplayResult> pooled = sim::replayICache(
        rep.resolveSoA(filter), grid, sim::SimdMode::Auto, &pool);
    auto t4 = clock::now();

    std::uint64_t line_accesses = 0;
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        line_accesses += oracle[i].accesses;
        for (const auto* col : {&serial, &pooled})
            if ((*col)[i].misses != oracle[i].misses ||
                (*col)[i].accesses != oracle[i].accesses)
                ++mismatches;
    }
    if (mismatches != 0) {
        std::cerr << "FATAL: SoA i-cache column diverged from per-config "
                     "replay on "
                  << mismatches << " of " << 2 * grid.size()
                  << " (column, configuration) cells\n";
        std::exit(1);
    }

    const double per_config_s = seconds(t0, t1);
    const double serial_s = seconds(t1, t2);
    const double pooled_s = seconds(t3, t4);
    const double speedup = per_config_s / serial_s;
    const double parallel_speedup = serial_s / pooled_s;
    const double per_config_eps =
        static_cast<double>(line_accesses) / per_config_s;
    const double serial_eps = static_cast<double>(line_accesses) / serial_s;

    std::cout << "=== SoA i-cache column vs per-config replay ===\n"
              << "trace events:        " << s.buf.size() << "\n"
              << "configurations:      " << grid.size()
              << " (direct-mapped, fig04 grid)\n"
              << "simd kernel:         " << sim::kernelName(choice.kind)
              << "\n"
              << "line accesses:       " << line_accesses << "\n"
              << "per-config replay:   " << per_config_s << " s ("
              << per_config_eps << " accesses/s)\n"
              << "column, serial:      " << serial_s << " s ("
              << serial_eps << " accesses/s)\n"
              << "speedup:             " << speedup << "x\n"
              << "column, pooled:      " << pooled_s << " s ("
              << pool.numThreads() << " threads)\n"
              << "parallel speedup:    " << parallel_speedup << "x\n"
              << "differential check:  PASS (miss counts "
                 "bit-identical)\n\n";

    std::ofstream json("BENCH_cachesim.json");
    json << "{\n"
         << "  \"bench\": \"cachesim\",\n"
         << "  \"trace_events\": " << s.buf.size() << ",\n"
         << "  \"configs\": " << grid.size() << ",\n"
         << "  \"simd_kernel\": \"" << sim::kernelName(choice.kind)
         << "\",\n"
         << "  \"line_accesses\": " << line_accesses << ",\n"
         << "  \"per_config_seconds\": " << per_config_s << ",\n"
         << "  \"per_config_accesses_per_sec\": " << per_config_eps
         << ",\n"
         << "  \"column_serial_seconds\": " << serial_s << ",\n"
         << "  \"column_serial_accesses_per_sec\": " << serial_eps
         << ",\n"
         << "  \"column_serial_speedup\": " << speedup << ",\n"
         << "  \"column_parallel_seconds\": " << pooled_s << ",\n"
         << "  \"parallel_threads\": " << pool.numThreads() << ",\n"
         << "  \"parallel_speedup\": " << parallel_speedup << ",\n"
         << "  \"differential_ok\": true\n"
         << "}\n";
    std::cout << "wrote BENCH_cachesim.json\n\n";
}

void
BM_RawCacheAccess(benchmark::State& state)
{
    mem::SetAssocCache cache(
        {64 * 1024, 64, static_cast<std::uint32_t>(state.range(0))});
    support::Pcg32 rng(bench::seedFromEnv(), kRawAccessStream);
    std::vector<std::uint64_t> addrs(1 << 16);
    for (auto& a : addrs)
        a = rng.nextBounded(256 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 0xffff], mem::Owner::App).hit);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RawCacheAccess)->Arg(1)->Arg(4)->Arg(8);

void
BM_LineGranularReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    for (auto _ : state) {
        auto r = rep.icache({64 * 1024, 128, 1},
                            sim::StreamFilter::AppOnly);
        benchmark::DoNotOptimize(r.misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(s.buf.size()));
}
BENCHMARK(BM_LineGranularReplay)->Unit(benchmark::kMillisecond);

void
BM_WordGranularReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    for (auto _ : state) {
        auto r = rep.instrumented({128 * 1024, 128, 4},
                                  sim::StreamFilter::AppOnly);
        benchmark::DoNotOptimize(r.misses);
    }
}
BENCHMARK(BM_WordGranularReplay)->Unit(benchmark::kMillisecond);

void
BM_HierarchyReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    mem::HierarchyConfig config;
    for (auto _ : state) {
        auto r = rep.hierarchy(config);
        benchmark::DoNotOptimize(r.total.l1i.misses);
    }
}
BENCHMARK(BM_HierarchyReplay)->Unit(benchmark::kMillisecond);

void
BM_CfgWalk(benchmark::State& state)
{
    Shared& s = shared();
    synth::CfgWalker w(s.image.prog, trace::ImageId::App, 99);
    trace::NullSink sink;
    trace::ExecContext ctx;
    program::ProcId entry = s.image.entry("sql_exec_update");
    std::uint64_t instrs = 0;
    for (auto _ : state)
        instrs += w.run(entry, ctx, sink).instrs;
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_CfgWalk);

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // google-benchmark owns the argv, so observability comes from the
    // environment (SPIKESIM_TRACE_OUT / SPIKESIM_MANIFEST_OUT /
    // SPIKESIM_PROGRESS).
    bench::ObsRun obs(bench::obsOptionsFromEnv(), argc, argv);
    runGridComparison();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    obs.addArtifactFile("BENCH_cachesim.json");
    return 0;
}
