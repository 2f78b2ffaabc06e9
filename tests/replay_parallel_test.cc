/**
 * @file
 * Randomized differential tests for the unified parallel replay engine
 * (sim/engine.hh): on random programs and multi-CPU traces with app +
 * kernel images and data noise, every engine family — fused i-cache
 * with interference, three-C, stream buffers, instrumented word stats,
 * iTLB, and sequence analysis — replayed over the resolved columns
 * (Replayer::resolveSoA) must be bit-identical to the scalar
 * per-config Replayer/metrics oracles, which walk the raw trace. Each
 * family runs serial-fused (no pool) and sharded across a thread pool,
 * including a pool wider than the trace's CPU count (which engages the
 * per-(cpu, config-chunk) sharding path), and the i-cache, three-C,
 * and stream-buffer families through every kernel runnable here —
 * forced scalar, forced AVX2, and forced AVX-512 (sim/kernels.hh). The
 * SIMD kernels have no tolerance: miss counts, classification counts,
 * and interference matrices must match the scalar Replayer bit for
 * bit.
 *
 * The production full-hierarchy walk (the solo serve::ServiceModel
 * plus sim::commMisses) reads the raw trace too and must match
 * Replayer::hierarchy at every walk width.
 *
 * The chunk-parallel resolve is pinned two ways: hand-built traces with
 * hand-derived columns at every chunk count, and random traces at
 * several chunk counts against the one-chunk resolve.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/layout.hh"
#include "metrics/sequence.hh"
#include "program/builder.hh"
#include "serve/service.hh"
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
 * coherence model has migrations to count). Each CPU runs its own
 * server process, so every serving segment stays on one CPU.
 */
trace::TraceBuffer
randomTrace(int blocks, int events, int num_cpus, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    trace::TraceBuffer buf;
    std::vector<trace::ExecContext> ctx(num_cpus);
    std::vector<std::uint32_t> cur(num_cpus, 0);
    for (int c = 0; c < num_cpus; ++c) {
        ctx[c].cpu = static_cast<std::uint8_t>(c);
        ctx[c].process = static_cast<std::uint16_t>(c);
    }
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
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            for (bool flush : {false, true}) {
                for (support::ThreadPool* pool : pools.all) {
                    auto col =
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
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            EXPECT_EQ(soa.instrs, w.rep.dynamicInstrs(filter));
            std::vector<ITlbReplayResult> oracle;
            for (const ITlbSpec& spec : specs)
                oracle.push_back(w.rep.itlb(spec, filter));
            for (support::ThreadPool* pool : pools.all) {
                // The iTLB kernel is the same scalar walk under every
                // mode; replaying under each pins that equivalence.
                for (SimdMode mode : modes) {
                    auto col = replayITlb(soa, specs, mode, pool);
                    for (std::size_t i = 0; i < specs.size(); ++i) {
                        EXPECT_EQ(col[i].accesses, oracle[i].accesses)
                            << modeLabel(mode) << " spec " << i;
                        EXPECT_EQ(col[i].misses, oracle[i].misses)
                            << modeLabel(mode) << " spec " << i;
                    }
                }
            }
        }
    }
}

/**
 * The production hierarchy walk — a solo serve::ServiceModel for the
 * per-CPU caches and iTLB, sim::commMisses for the coherence count —
 * against the Replayer::hierarchy oracle, at several walk widths.
 */
TEST(ReplayEngine, MatchesHierarchyOracleWithCoherence)
{
    std::vector<mem::HierarchyConfig> configs(2);
    configs[1].l1i = {8 * 1024, 32, 1};
    configs[1].l1d = {8 * 1024, 32, 1};
    configs[1].l2 = {2 * 1024 * 1024, 64, 1};
    configs[1].itlb_entries = 48;
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 500 + static_cast<std::uint32_t>(cpus));
        for (const mem::HierarchyConfig& config : configs) {
            serve::ServiceModelConfig smc;
            smc.platform.hierarchy = config;
            for (int width : {1, 2, 4}) {
                support::ThreadPool pool(width);
                ASSERT_EQ(&support::executor(), &pool);
                const serve::ServiceModel m(w.buf, w.app_layout,
                                            &w.kern_layout, smc);
                const serve::ServiceStats& st = m.stats();
                for (bool coherence : {false, true}) {
                    const HierarchyReplayResult r =
                        w.rep.hierarchy(config, true, coherence);
                    mem::HierarchyStats got = st.mem;
                    if (coherence)
                        got.comm_misses =
                            commMisses(w.buf, config.l1d.line_bytes);
                    const std::string what =
                        "cpus " + std::to_string(cpus) + " width " +
                        std::to_string(width) +
                        (coherence ? " +coherence" : "");
                    expectStatsEq(got, r.total, what.c_str());
                    EXPECT_EQ(st.instrs, r.instrs) << what;
                    EXPECT_EQ(st.fetch_breaks, r.fetch_breaks) << what;
                }
            }
        }
        if (cpus > 1) {
            EXPECT_GT(commMisses(w.buf, 64), 0u) << "cpus " << cpus;
        }
    }
}

/** Every column element, partition offset, and total of two SoA traces
 *  must match. */
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
    for (int c = -1; c <= want.num_cpus; ++c)
        EXPECT_EQ(got.cpuRange(c), want.cpuRange(c))
            << what << " cpu " << c;
}

/** Chunk counts the chunked resolve is checked at: the small test
 *  traces would otherwise always resolve as one chunk. */
constexpr std::size_t kChunkCounts[] = {2, 3, 7, 64};

/**
 * The chunk-parallel resolve must not depend on its chunk count: at
 * every chunk count, Replayer::resolveSoA's own pick included, every
 * column element, partition offset, and total must match the one-chunk
 * resolve, across all filters and 1/2/4/8-CPU traces. The one-chunk
 * columns themselves are pinned by the hand-derived chunk-edge tests
 * below and, through every replay family, by the raw-trace oracles
 * above.
 */
TEST(ReplayEngine, DirectSoAResolveMatchesOneChunkAtEveryChunkCount)
{
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 700 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            const ResolvedTraceSoA one =
                detail::resolveSoA(w.rep, filter, 1);
            const std::string what =
                "cpus " + std::to_string(cpus) + " filter " +
                std::to_string(static_cast<int>(filter));
            expectSoAEq(w.rep.resolveSoA(filter), one, what);
            for (std::size_t chunks : kChunkCounts)
                expectSoAEq(detail::resolveSoA(w.rep, filter, chunks),
                            one,
                            what + " chunks " + std::to_string(chunks));
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

/** One hand-derived resolved ref. */
struct Ref
{
    std::uint64_t addr;
    std::uint32_t bytes;
    mem::Owner owner;
    std::uint8_t flags;
};

/** Literal resolved columns from per-CPU ref lists. */
ResolvedTraceSoA
columns(const std::vector<std::vector<Ref>>& per_cpu,
        std::uint64_t instr_events, std::uint64_t instrs)
{
    ResolvedTraceSoA out;
    out.num_cpus = static_cast<int>(per_cpu.size());
    out.cpu_begin.push_back(0);
    for (const std::vector<Ref>& refs : per_cpu) {
        for (const Ref& r : refs) {
            out.addr.push_back(r.addr);
            out.bytes.push_back(r.bytes);
            out.owner.push_back(static_cast<std::uint8_t>(r.owner));
            out.flags.push_back(r.flags);
        }
        out.cpu_begin.push_back(out.addr.size());
    }
    out.instr_events = instr_events;
    out.instrs = instrs;
    return out;
}

/** Resolve with `filter` at every chunk count from 1 to past one
 *  event per chunk, against hand-derived columns. */
void
expectEveryChunking(const Replayer& rep, StreamFilter filter,
                    const ResolvedTraceSoA& want, const char* what)
{
    for (std::size_t chunks = 1; chunks <= rep.trace().size() + 2;
         ++chunks)
        expectSoAEq(detail::resolveSoA(rep, filter, chunks), want,
                    std::string(what) + " filter " +
                        std::to_string(static_cast<int>(filter)) +
                        " chunks " + std::to_string(chunks));
}

constexpr mem::Owner kApp = mem::Owner::App;
constexpr mem::Owner kKern = mem::Owner::Kernel;
// EdgeImages' block addresses under its layouts. Bytes are 4 per
// instruction: body 12, tail 16, the kernel block 8.
constexpr std::uint64_t kBodyAt = 0x1000, kTailAt = 0x100c;
constexpr std::uint64_t kKernAt = 0x400000;

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
    const char* what = "kernel break at chunk end";
    expectEveryChunking(rep, StreamFilter::AppOnly,
                        columns({{{kBodyAt, 12, kApp, 0},
                                  {kTailAt, 16, kApp, kRefRunBreak},
                                  {kBodyAt, 12, kApp, 0}}},
                                3, 10),
                        what);
    expectEveryChunking(rep, StreamFilter::Combined,
                        columns({{{kBodyAt, 12, kApp, 0},
                                  {kKernAt, 8, kKern, 0},
                                  {kTailAt, 16, kApp, 0},
                                  {kBodyAt, 12, kApp, 0}}},
                                4, 12),
                        what);
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
    const char* what = "zero-size block at chunk edge";
    expectEveryChunking(rep, StreamFilter::AppOnly,
                        columns({{{kTailAt, 16, kApp, kRefRunBreak},
                                  {kBodyAt, 12, kApp, 0}}},
                                5, 7),
                        what);
    expectEveryChunking(rep, StreamFilter::Combined,
                        columns({{{kKernAt, 8, kKern, 0},
                                  {kTailAt, 16, kApp, 0},
                                  {kBodyAt, 12, kApp, 0}}},
                                6, 9),
                        what);
}

TEST(ReplayEngine, ChunkedResolveCarriesStateThroughAChunkWithoutTheCpu)
{
    const EdgeImages img;
    // Three chunks of three events; chunk 1 holds no event of CPU 1,
    // so the break CPU 1 takes in chunk 0 and its slice cursor must
    // reach chunk 2 intact. CPU 0's data event emits no ref and breaks
    // no run.
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
    const char* what = "chunk without a CPU";
    expectEveryChunking(rep, StreamFilter::AppOnly,
                        columns({{{kBodyAt, 12, kApp, 0},
                                  {kTailAt, 16, kApp, 0},
                                  {kBodyAt, 12, kApp, 0}},
                                 {{kBodyAt, 12, kApp, 0},
                                  {kTailAt, 16, kApp, kRefRunBreak},
                                  {kBodyAt, 12, kApp, 0}}},
                                6, 20),
                        what);
    expectEveryChunking(rep, StreamFilter::Combined,
                        columns({{{kBodyAt, 12, kApp, 0},
                                  {kTailAt, 16, kApp, 0},
                                  {kBodyAt, 12, kApp, 0},
                                  {kKernAt, 8, kKern, 0}},
                                 {{kBodyAt, 12, kApp, 0},
                                  {kKernAt, 8, kKern, 0},
                                  {kTailAt, 16, kApp, 0},
                                  {kBodyAt, 12, kApp, 0}}},
                                8, 24),
                        what);
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
        (void)detail::resolveSoA(rep, StreamFilter::Combined, 3),
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
            const ResolvedTraceSoA soa = w.rep.resolveSoA(c.filter);
            for (support::ThreadPool* pool : pools.all) {
                metrics::SequenceStats got = replaySequence(soa, pool);
                expectHistEq(got.lengths, oracle.lengths, "lengths");
                EXPECT_EQ(got.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got.mean_block_size, oracle.mean_block_size)
                    << "cpus " << cpus;
            }
        }
    }
}

} // namespace
} // namespace spikesim::sim
