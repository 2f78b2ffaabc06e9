/**
 * @file
 * Randomized differential tests for the unified parallel replay engine
 * (sim/engine.hh): on random programs and multi-CPU traces with app +
 * kernel images and data noise, every engine family — fused i-cache
 * with interference, three-C, stream buffers, instrumented word stats,
 * iTLB, full hierarchy with coherence, and sequence analysis — must be
 * bit-identical to the scalar per-config Replayer/metrics oracles,
 * both serial-fused (no pool) and sharded across a thread pool,
 * including a pool wider than the trace's CPU count (which engages the
 * per-(cpu, config-chunk) sharding path).
 *
 * Every family is additionally replayed through the structure-of-arrays
 * overloads (sim/soa.hh) over a *directly resolved* SoA trace
 * (Replayer::resolveSoA — no transpose), and the i-cache, three-C, and
 * stream-buffer families through every SoA kernel runnable here —
 * forced scalar, forced AVX2, and forced AVX-512 (sim/kernels.hh) —
 * against the same oracles. The SIMD kernels have no tolerance: miss
 * counts, classification counts, and interference matrices must match
 * the scalar Replayer bit for bit. Direct resolve itself is
 * bit-compared against transpose-of-AoS across every filter,
 * include_data setting, and CPU count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/layout.hh"
#include "metrics/sequence.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/** A program of `blocks` random-sized blocks (paired into procs). */
Program
randomProgram(const char* name, int blocks, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    Program p(name);
    for (int i = 0; i < blocks; i += 2) {
        ProcedureBuilder b("p" + std::to_string(i));
        auto a = b.addBlock(1 + rng.nextBounded(32),
                            Terminator::FallThrough);
        auto r = b.addBlock(1 + rng.nextBounded(32), Terminator::Return);
        b.addEdge(a, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    EXPECT_EQ(p.validate(), "");
    return p;
}

/**
 * A trace with loop-like locality spread across CPUs and both images,
 * plus data refs: mostly nearby re-executions with occasional far
 * jumps, 30% kernel blocks, 10% of events followed by a data touch on
 * a small hot region (so several CPUs hit the same data lines and the
 * coherence model has migrations to count).
 */
trace::TraceBuffer
randomTrace(int blocks, int events, int num_cpus, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    trace::TraceBuffer buf;
    std::vector<trace::ExecContext> ctx(num_cpus);
    std::vector<std::uint32_t> cur(num_cpus, 0);
    for (int c = 0; c < num_cpus; ++c)
        ctx[c].cpu = static_cast<std::uint8_t>(c);
    for (int i = 0; i < events; ++i) {
        int c = static_cast<int>(
            rng.nextBounded(static_cast<std::uint32_t>(num_cpus)));
        if (rng.nextBool(0.15))
            cur[c] = rng.nextBounded(static_cast<std::uint32_t>(blocks));
        else
            cur[c] = static_cast<std::uint32_t>(
                (cur[c] + 1) % static_cast<std::uint32_t>(blocks));
        trace::ImageId image = rng.nextBool(0.3)
                                   ? trace::ImageId::Kernel
                                   : trace::ImageId::App;
        buf.onBlock(ctx[c], image, cur[c]);
        if (rng.nextBool(0.1))
            buf.onData(ctx[c], 0x80000000ULL + rng.nextBounded(1 << 14));
    }
    return buf;
}

/** The test grid: a column of mixed geometries. */
std::vector<mem::CacheConfig>
testConfigs()
{
    return {{8 * 1024, 32, 1}, {32 * 1024, 64, 2}, {64 * 1024, 128, 4}};
}

const StreamFilter kFilters[] = {StreamFilter::AppOnly,
                                 StreamFilter::KernelOnly,
                                 StreamFilter::Combined};

/** Kernel modes runnable here: scalar always, AVX2 and AVX-512 when
 *  the host can. */
std::vector<SimdMode>
runnableModes()
{
    std::vector<SimdMode> modes{SimdMode::Scalar};
    if (simdAvailable())
        modes.push_back(SimdMode::Simd);
    if (avx512Available())
        modes.push_back(SimdMode::Avx512);
    return modes;
}

const char*
modeLabel(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Simd:
        return "soa avx2";
    case SimdMode::Avx512:
        return "soa avx512";
    default:
        return "soa scalar";
    }
}

template <typename H>
void
expectHistEq(const H& a, const H& b, const char* what)
{
    ASSERT_EQ(a.numBuckets(), b.numBuckets()) << what;
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucket(i), b.bucket(i)) << what << " bucket " << i;
}

void
expectStatsEq(const mem::HierarchyStats& a, const mem::HierarchyStats& b,
              const char* what)
{
    EXPECT_EQ(a.l1i.accesses, b.l1i.accesses) << what;
    EXPECT_EQ(a.l1i.misses, b.l1i.misses) << what;
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses) << what;
    EXPECT_EQ(a.l1d.misses, b.l1d.misses) << what;
    EXPECT_EQ(a.l2i.accesses, b.l2i.accesses) << what;
    EXPECT_EQ(a.l2i.misses, b.l2i.misses) << what;
    EXPECT_EQ(a.l2d.accesses, b.l2d.accesses) << what;
    EXPECT_EQ(a.l2d.misses, b.l2d.misses) << what;
    EXPECT_EQ(a.itlb_misses, b.itlb_misses) << what;
    EXPECT_EQ(a.comm_misses, b.comm_misses) << what;
}

/** Fixture state: one random workload per CPU count. */
struct Workload
{
    Program app;
    Program kern;
    core::Layout app_layout;
    core::Layout kern_layout;
    trace::TraceBuffer buf;
    Replayer rep;

    Workload(int num_cpus, std::uint32_t seed)
        : app(randomProgram("app", 120, seed)),
          kern(randomProgram("kern", 120, seed + 1)),
          app_layout(core::baselineLayout(app, 0)),
          kern_layout(core::baselineLayout(kern, 0x400000)),
          buf(randomTrace(120, 20000, num_cpus, seed + 2)),
          rep(buf, app_layout, &kern_layout)
    {
    }
};

/** Pools exercised against every oracle: none (serial fused), one
 *  matching a small host, and one wider than any trace's CPU count
 *  (config-chunked sharding). */
struct Pools
{
    support::ThreadPool narrow{2};
    support::ThreadPool wide{8};
    std::vector<support::ThreadPool*> all{nullptr, &narrow, &wide};
};

TEST(ReplayEngine, MatchesICacheOracleRandomized)
{
    Pools pools;
    const auto configs = testConfigs();
    const auto modes = runnableModes();
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 100 + static_cast<std::uint32_t>(cpus));
        ASSERT_EQ(w.rep.numCpus(), cpus);
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<ICacheReplayResult> oracle;
            for (const auto& c : configs)
                oracle.push_back(w.rep.icache(c, filter));
            auto expect_oracle =
                [&](const std::vector<ICacheReplayResult>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), oracle.size()) << label;
                    for (std::size_t i = 0; i < oracle.size(); ++i) {
                        const auto& r = oracle[i];
                        EXPECT_EQ(col[i].accesses, r.accesses)
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].misses, r.misses)
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].app_misses, r.app_misses)
                            << label;
                        EXPECT_EQ(col[i].kernel_misses, r.kernel_misses)
                            << label;
                        for (int m = 0; m < 2; ++m)
                            for (int v = 0; v < 3; ++v)
                                EXPECT_EQ(
                                    col[i].interference.counts[m][v],
                                    r.interference.counts[m][v])
                                    << label << " cpus " << cpus
                                    << " config " << i;
                    }
                };
            for (support::ThreadPool* pool : pools.all) {
                expect_oracle(replayICache(trace, configs, pool), "aos");
                for (SimdMode mode : modes)
                    expect_oracle(
                        replayICache(soa, configs, mode, pool),
                        modeLabel(mode));
            }
        }
    }
}

TEST(ReplayEngine, MatchesThreeCsAndStreamBufferOracles)
{
    Pools pools;
    const auto configs = testConfigs();
    const auto modes = runnableModes();
    for (int cpus : {1, 3, 8}) {
        Workload w(cpus, 200 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<mem::ThreeCStats> t_oracle;
            std::vector<mem::StreamBufferStats> s_oracle;
            for (const auto& c : configs) {
                t_oracle.push_back(w.rep.threeCs(c, filter));
                s_oracle.push_back(w.rep.streamBuffer(c, 4, filter));
            }
            auto expect_threec =
                [&](const std::vector<mem::ThreeCStats>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), t_oracle.size()) << label;
                    for (std::size_t i = 0; i < col.size(); ++i) {
                        const auto& t = t_oracle[i];
                        EXPECT_EQ(col[i].accesses(), t.accesses())
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].compulsory, t.compulsory)
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].capacity, t.capacity)
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].conflict, t.conflict)
                            << label << " cfg " << i;
                    }
                };
            auto expect_sbuf =
                [&](const std::vector<mem::StreamBufferStats>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), s_oracle.size()) << label;
                    for (std::size_t i = 0; i < col.size(); ++i) {
                        const auto& s = s_oracle[i];
                        EXPECT_EQ(col[i].accesses(), s.accesses())
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].l1Misses(), s.l1Misses())
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].streamHits(), s.streamHits())
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].demandMisses(),
                                  s.demandMisses())
                            << label << " cfg " << i;
                    }
                };
            for (support::ThreadPool* pool : pools.all) {
                expect_threec(replayThreeCs(trace, configs, pool),
                              "aos");
                expect_sbuf(replayStreamBuffer(trace, configs, 4, pool),
                            "aos");
                for (SimdMode mode : modes) {
                    expect_threec(
                        replayThreeCs(soa, configs, mode, pool),
                        modeLabel(mode));
                    expect_sbuf(replayStreamBuffer(soa, configs, 4,
                                                   mode, pool),
                                modeLabel(mode));
                }
            }
        }
    }
}

TEST(ReplayEngine, MatchesInstrumentedOracleIncludingFlush)
{
    Pools pools;
    const auto configs = testConfigs();
    for (int cpus : {2, 5}) {
        Workload w(cpus, 300 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            for (bool flush : {false, true}) {
                for (support::ThreadPool* pool : pools.all) {
                    auto col =
                        replayInstrumented(trace, configs, flush, pool);
                    auto col_soa =
                        replayInstrumented(soa, configs, flush, pool);
                    for (std::size_t i = 0; i < configs.size(); ++i) {
                        auto r = w.rep.instrumented(configs[i], filter,
                                                    flush);
                        expectHistEq(col[i].words_used, r.words_used,
                                     "words_used");
                        expectHistEq(col[i].word_reuse, r.word_reuse,
                                     "word_reuse");
                        expectHistEq(col[i].lifetimes, r.lifetimes,
                                     "lifetimes");
                        // Bit-identical, not just close: the engine
                        // replays the oracle's FP operation sequence.
                        EXPECT_EQ(col[i].unused_word_fraction,
                                  r.unused_word_fraction);
                        EXPECT_EQ(col[i].misses, r.misses);
                        expectHistEq(col_soa[i].words_used,
                                     r.words_used, "soa words_used");
                        expectHistEq(col_soa[i].word_reuse,
                                     r.word_reuse, "soa word_reuse");
                        expectHistEq(col_soa[i].lifetimes, r.lifetimes,
                                     "soa lifetimes");
                        EXPECT_EQ(col_soa[i].unused_word_fraction,
                                  r.unused_word_fraction);
                        EXPECT_EQ(col_soa[i].misses, r.misses);
                    }
                }
            }
        }
    }
}

TEST(ReplayEngine, MatchesITlbOracleAndDynamicInstrs)
{
    Pools pools;
    const std::vector<ITlbSpec> specs = {
        {16, 4 * 1024, 32}, {64, 8 * 1024, 64}, {128, 8 * 1024, 128}};
    const auto modes = runnableModes();
    for (int cpus : {1, 4}) {
        Workload w(cpus, 400 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            EXPECT_EQ(trace.instrs, w.rep.dynamicInstrs(filter));
            EXPECT_EQ(soa.instrs, trace.instrs);
            for (support::ThreadPool* pool : pools.all) {
                auto col = replayITlb(trace, specs, pool);
                for (std::size_t i = 0; i < specs.size(); ++i) {
                    auto r = w.rep.itlb(specs[i], filter);
                    EXPECT_EQ(col[i].accesses, r.accesses);
                    EXPECT_EQ(col[i].misses, r.misses);
                }
                // The iTLB kernel is the same scalar walk under every
                // mode; replaying under each pins that equivalence.
                for (SimdMode mode : modes) {
                    auto col_soa = replayITlb(soa, specs, mode, pool);
                    for (std::size_t i = 0; i < specs.size(); ++i) {
                        EXPECT_EQ(col_soa[i].accesses, col[i].accesses)
                            << modeLabel(mode) << " spec " << i;
                        EXPECT_EQ(col_soa[i].misses, col[i].misses)
                            << modeLabel(mode) << " spec " << i;
                    }
                }
            }
        }
    }
}

TEST(ReplayEngine, MatchesHierarchyOracleWithCoherence)
{
    Pools pools;
    std::vector<mem::HierarchyConfig> configs(2);
    configs[1].l1i = {8 * 1024, 32, 1};
    configs[1].l1d = {8 * 1024, 32, 1};
    configs[1].l2 = {2 * 1024 * 1024, 64, 1};
    configs[1].itlb_entries = 48;
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 500 + static_cast<std::uint32_t>(cpus));
        for (bool coherence : {false, true}) {
            ResolvedTrace trace =
                w.rep.resolve(StreamFilter::Combined, true);
            const ResolvedTraceSoA soa =
                w.rep.resolveSoA(StreamFilter::Combined, true);
            for (support::ThreadPool* pool : pools.all) {
                auto col =
                    replayHierarchy(trace, configs, coherence, pool);
                auto col_soa =
                    replayHierarchy(soa, configs, coherence, pool);
                for (std::size_t i = 0; i < configs.size(); ++i) {
                    auto r = w.rep.hierarchy(configs[i], true,
                                             coherence);
                    expectStatsEq(col[i].total, r.total, "total");
                    ASSERT_EQ(col[i].per_cpu.size(),
                              r.per_cpu.size());
                    for (std::size_t c = 0; c < r.per_cpu.size(); ++c)
                        expectStatsEq(col[i].per_cpu[c], r.per_cpu[c],
                                      "per_cpu");
                    EXPECT_EQ(col[i].instrs, r.instrs);
                    EXPECT_EQ(col[i].fetch_breaks, r.fetch_breaks);
                    expectStatsEq(col_soa[i].total, r.total,
                                  "soa total");
                    ASSERT_EQ(col_soa[i].per_cpu.size(),
                              r.per_cpu.size());
                    for (std::size_t c = 0; c < r.per_cpu.size(); ++c)
                        expectStatsEq(col_soa[i].per_cpu[c],
                                      r.per_cpu[c], "soa per_cpu");
                    EXPECT_EQ(col_soa[i].instrs, r.instrs);
                    EXPECT_EQ(col_soa[i].fetch_breaks, r.fetch_breaks);
                }
            }
        }
    }
}

/** Every column element, partition offset, data ref, and total of two
 *  SoA traces must match. */
void
expectSoAEq(const ResolvedTraceSoA& got, const ResolvedTraceSoA& want,
            const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(got.addr, want.addr) << what;
    ASSERT_EQ(got.bytes, want.bytes) << what;
    ASSERT_EQ(got.owner, want.owner) << what;
    ASSERT_EQ(got.flags, want.flags) << what;
    ASSERT_EQ(got.cpu_begin, want.cpu_begin) << what;
    EXPECT_EQ(got.num_cpus, want.num_cpus) << what;
    EXPECT_EQ(got.instr_events, want.instr_events) << what;
    EXPECT_EQ(got.instrs, want.instrs) << what;
    ASSERT_EQ(got.data_refs.size(), want.data_refs.size()) << what;
    for (std::size_t i = 0; i < got.data_refs.size(); ++i) {
        EXPECT_EQ(got.data_refs[i].addr, want.data_refs[i].addr)
            << what << " data ref " << i;
        EXPECT_EQ(got.data_refs[i].cpu, want.data_refs[i].cpu)
            << what << " data ref " << i;
    }
    for (int c = -1; c <= want.num_cpus; ++c)
        EXPECT_EQ(got.cpuRange(c), want.cpuRange(c))
            << what << " cpu " << c;
}

/** Chunk counts the chunked resolve is checked at: the small test
 *  traces would otherwise always resolve as one chunk. */
constexpr std::size_t kChunkCounts[] = {1, 2, 3, 7, 64};

/**
 * The direct SoA resolve (Replayer::resolveSoA) must be bit-identical
 * to the retained transpose route (toSoA of Replayer::resolve) —
 * every column element, partition offset, data ref, and total, across
 * all filters, both include_data settings, 1/2/4/8-CPU traces, and
 * every chunk count of the parallel resolve. This is the differential
 * oracle that lets the engine run on direct resolve alone.
 */
TEST(ReplayEngine, DirectSoAResolveMatchesTransposeOfAoS)
{
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 700 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            for (bool data : {false, true}) {
                const ResolvedTraceSoA via_aos =
                    toSoA(w.rep.resolve(filter, data));
                const std::string what =
                    "cpus " + std::to_string(cpus) + " filter " +
                    std::to_string(static_cast<int>(filter)) +
                    (data ? " +data" : "");
                expectSoAEq(w.rep.resolveSoA(filter, data), via_aos,
                            what);
                for (std::size_t chunks : kChunkCounts)
                    expectSoAEq(
                        detail::resolveSoA(w.rep, filter, data, chunks),
                        via_aos,
                        what + " chunks " + std::to_string(chunks));
            }
        }
    }
}

/**
 * Hand-built images for chunk-edge cases. App procedure: a 3-instr
 * block falling through to a branch-only block whose unconditional
 * branch targets the next block, so the baseline layout deletes the
 * branch and the block has size 0; then a 4-instr return block.
 * Kernel: one 2-instr block.
 */
struct EdgeImages
{
    Program app{"app"};
    Program kern{"kern"};
    core::Layout app_layout;
    core::Layout kern_layout;

    static constexpr std::uint32_t kBody = 0, kEmpty = 1, kTail = 2;

    EdgeImages()
        : app_layout(makeApp(app)), kern_layout(makeKern(kern))
    {
    }

    static core::Layout
    makeApp(Program& p)
    {
        ProcedureBuilder b("f");
        auto body = b.addBlock(3, Terminator::FallThrough);
        auto empty = b.addBlock(1, Terminator::UncondBranch);
        auto tail = b.addBlock(4, Terminator::Return);
        b.addEdge(body, empty, EdgeKind::FallThrough);
        b.addEdge(empty, tail, EdgeKind::UncondTarget);
        p.addProcedure(b.build());
        EXPECT_EQ(p.validate(), "");
        return core::baselineLayout(p, 0x1000);
    }

    static core::Layout
    makeKern(Program& p)
    {
        ProcedureBuilder b("k");
        b.addBlock(2, Terminator::Return);
        p.addProcedure(b.build());
        return core::baselineLayout(p, 0x400000);
    }
};

/** Append one block event on `cpu`. */
void
block(trace::TraceBuffer& buf, int cpu, trace::ImageId image,
      std::uint32_t id)
{
    trace::ExecContext ctx;
    ctx.cpu = static_cast<std::uint8_t>(cpu);
    buf.onBlock(ctx, image, id);
}

/** Resolve `buf` at every chunk count from 1 to past one event per
 *  chunk, for every filter and include_data setting, against the
 *  transpose-of-AoS oracle. */
void
expectEveryChunkingMatches(const trace::TraceBuffer& buf,
                           const EdgeImages& img, const char* what)
{
    const Replayer rep(buf, img.app_layout, &img.kern_layout);
    for (StreamFilter filter : kFilters)
        for (bool data : {false, true}) {
            const ResolvedTraceSoA want = toSoA(rep.resolve(filter, data));
            for (std::size_t chunks = 1; chunks <= buf.size() + 2;
                 ++chunks)
                expectSoAEq(detail::resolveSoA(rep, filter, data, chunks),
                            want,
                            std::string(what) + " filter " +
                                std::to_string(static_cast<int>(filter)) +
                                (data ? " +data" : "") + " chunks " +
                                std::to_string(chunks));
        }
}

TEST(ReplayEngine, ChunkedResolveCarriesAKernelRunBreakIntoTheNextChunk)
{
    const EdgeImages img;
    ASSERT_EQ(img.app_layout.blockSize(EdgeImages::kEmpty), 0u);
    // Two chunks of two events: the kernel event ends chunk 0.
    trace::TraceBuffer buf;
    block(buf, 0, trace::ImageId::App, EdgeImages::kBody);
    block(buf, 0, trace::ImageId::Kernel, 0);
    block(buf, 0, trace::ImageId::App, EdgeImages::kTail);
    block(buf, 0, trace::ImageId::App, EdgeImages::kBody);
    const Replayer rep(buf, img.app_layout, &img.kern_layout);
    const ResolvedTraceSoA soa =
        detail::resolveSoA(rep, StreamFilter::AppOnly, false, 2);
    ASSERT_EQ(soa.size(), 3u);
    EXPECT_EQ(soa.flags[0], 0);
    EXPECT_EQ(soa.flags[1], kRefRunBreak);
    EXPECT_EQ(soa.flags[2], 0);
    expectEveryChunkingMatches(buf, img, "kernel break at chunk end");
}

TEST(ReplayEngine, ChunkedResolveKeepsARunBreakAcrossAZeroSizeBlock)
{
    const EdgeImages img;
    ASSERT_EQ(img.app_layout.blockSize(EdgeImages::kEmpty), 0u);
    // Three chunks of two events. The zero-size block ends chunk 0 and
    // starts chunk 1; neither emits a ref or clears the pending break.
    trace::TraceBuffer buf;
    block(buf, 0, trace::ImageId::Kernel, 0);
    block(buf, 0, trace::ImageId::App, EdgeImages::kEmpty);
    block(buf, 0, trace::ImageId::App, EdgeImages::kEmpty);
    block(buf, 0, trace::ImageId::App, EdgeImages::kTail);
    block(buf, 0, trace::ImageId::App, EdgeImages::kEmpty);
    block(buf, 0, trace::ImageId::App, EdgeImages::kBody);
    const Replayer rep(buf, img.app_layout, &img.kern_layout);
    const ResolvedTraceSoA soa =
        detail::resolveSoA(rep, StreamFilter::AppOnly, false, 3);
    ASSERT_EQ(soa.size(), 2u);
    EXPECT_EQ(soa.flags[0], kRefRunBreak);
    EXPECT_EQ(soa.flags[1], 0);
    EXPECT_EQ(soa.instr_events, 5u);
    EXPECT_EQ(soa.instrs, 7u);
    expectEveryChunkingMatches(buf, img, "zero-size block at chunk edge");
}

TEST(ReplayEngine, ChunkedResolveCarriesStateThroughAChunkWithoutTheCpu)
{
    const EdgeImages img;
    // Three chunks of three events; chunk 1 holds no event of CPU 1,
    // so the break CPU 1 takes in chunk 0 and its slice cursor must
    // reach chunk 2 intact.
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    block(buf, 1, trace::ImageId::App, EdgeImages::kBody);
    block(buf, 1, trace::ImageId::Kernel, 0);
    block(buf, 0, trace::ImageId::App, EdgeImages::kBody);
    block(buf, 0, trace::ImageId::App, EdgeImages::kTail);
    buf.onData(ctx, 0x8000);
    block(buf, 0, trace::ImageId::App, EdgeImages::kBody);
    block(buf, 1, trace::ImageId::App, EdgeImages::kTail);
    block(buf, 0, trace::ImageId::Kernel, 0);
    block(buf, 1, trace::ImageId::App, EdgeImages::kBody);
    const Replayer rep(buf, img.app_layout, &img.kern_layout);
    ASSERT_EQ(rep.numCpus(), 2);
    const ResolvedTraceSoA soa =
        detail::resolveSoA(rep, StreamFilter::AppOnly, false, 3);
    ASSERT_EQ(soa.cpu_begin, (std::vector<std::size_t>{0, 3, 6}));
    EXPECT_EQ(soa.flags[3], 0);            // CPU 1's first ref
    EXPECT_EQ(soa.flags[4], kRefRunBreak); // after its kernel event
    EXPECT_EQ(soa.flags[5], 0);
    expectEveryChunkingMatches(buf, img, "chunk without a CPU");
}

TEST(ReplayEngineDeathTest, ResolveRejectsAnOutOfRangeBlockId)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const EdgeImages img;
    trace::TraceBuffer buf;
    for (int i = 0; i < 8; ++i)
        block(buf, i % 2, trace::ImageId::App, EdgeImages::kBody);
    block(buf, 1, trace::ImageId::App, img.app.numBlocks());
    const Replayer rep(buf, img.app_layout, &img.kern_layout);
    EXPECT_DEATH((void)rep.resolveSoA(StreamFilter::AppOnly),
                 "block id out of range");
    EXPECT_DEATH(
        (void)detail::resolveSoA(rep, StreamFilter::Combined, true, 3),
        "block id out of range");
}

TEST(ReplayEngine, MatchesSequenceOracleOnBothImages)
{
    Pools pools;
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 600 + static_cast<std::uint32_t>(cpus));
        struct Case
        {
            StreamFilter filter;
            trace::ImageId image;
            const core::Layout* layout;
        };
        const Case cases[] = {
            {StreamFilter::AppOnly, trace::ImageId::App,
             &w.app_layout},
            {StreamFilter::KernelOnly, trace::ImageId::Kernel,
             &w.kern_layout},
        };
        for (const Case& c : cases) {
            metrics::SequenceStats oracle = metrics::sequenceLengths(
                w.buf, *c.layout, c.image);
            ResolvedTrace trace = w.rep.resolve(c.filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(c.filter);
            for (support::ThreadPool* pool : pools.all) {
                metrics::SequenceStats got = replaySequence(trace, pool);
                expectHistEq(got.lengths, oracle.lengths, "lengths");
                EXPECT_EQ(got.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got.mean_block_size, oracle.mean_block_size)
                    << "cpus " << cpus;
                metrics::SequenceStats got_soa =
                    replaySequence(soa, pool);
                expectHistEq(got_soa.lengths, oracle.lengths,
                             "soa lengths");
                EXPECT_EQ(got_soa.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got_soa.mean_block_size,
                          oracle.mean_block_size)
                    << "cpus " << cpus;
            }
        }
    }
}

} // namespace
} // namespace spikesim::sim
