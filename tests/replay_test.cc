/** @file Tests for trace replay against the cache simulators. */

#include <gtest/gtest.h>

#include "core/layout.hh"
#include "program/builder.hh"
#include "sim/replay.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/** One proc with two 16-instr (64-byte) blocks. */
Program
twoLineProgram()
{
    Program p("r");
    ProcedureBuilder b("p");
    auto a = b.addBlock(16, Terminator::FallThrough);
    auto r = b.addBlock(16, Terminator::Return);
    b.addEdge(a, r, EdgeKind::FallThrough);
    p.addProcedure(b.build());
    EXPECT_EQ(p.validate(), "");
    return p;
}

TEST(Replay, CountsLineMissesPerCpu)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext c0, c1;
    c1.cpu = 1;
    // CPU0 runs both blocks twice; CPU1 once.
    for (int i = 0; i < 2; ++i) {
        buf.onBlock(c0, trace::ImageId::App, 0);
        buf.onBlock(c0, trace::ImageId::App, 1);
    }
    buf.onBlock(c1, trace::ImageId::App, 0);

    Replayer rep(buf, layout);
    EXPECT_EQ(rep.numCpus(), 2);
    auto result = rep.icache({1024, 64, 1}, StreamFilter::AppOnly);
    // CPU0: 2 cold misses + 2 hits; CPU1: 1 cold miss.
    EXPECT_EQ(result.accesses, 5u);
    EXPECT_EQ(result.misses, 3u);
    EXPECT_EQ(result.app_misses, 3u);
    EXPECT_EQ(result.kernel_misses, 0u);
}

TEST(Replay, BlockSpanningLinesTouchesEachLine)
{
    Program p("s");
    ProcedureBuilder b("p");
    b.addBlock(40, Terminator::Return); // 160 bytes = 3 x 64B lines
    p.addProcedure(b.build());
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    Replayer rep(buf, layout);
    auto result = rep.icache({1024, 64, 1}, StreamFilter::AppOnly);
    EXPECT_EQ(result.accesses, 3u);
    EXPECT_EQ(result.misses, 3u);
}

TEST(Replay, FiltersSelectStreams)
{
    Program app = twoLineProgram();
    Program kern = twoLineProgram();
    core::Layout app_layout = core::baselineLayout(app, 0);
    core::Layout kern_layout = core::baselineLayout(kern, 0x100000);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onBlock(ctx, trace::ImageId::Kernel, 0);
    buf.onBlock(ctx, trace::ImageId::Kernel, 1);

    Replayer rep(buf, app_layout, &kern_layout);
    EXPECT_EQ(rep.icache({1024, 64, 1}, StreamFilter::AppOnly).accesses,
              1u);
    EXPECT_EQ(
        rep.icache({1024, 64, 1}, StreamFilter::KernelOnly).accesses,
        2u);
    EXPECT_EQ(rep.icache({1024, 64, 1}, StreamFilter::Combined).accesses,
              3u);
}

TEST(Replay, InterferenceMatrixAttributesVictims)
{
    Program app = twoLineProgram();
    Program kern = twoLineProgram();
    core::Layout app_layout = core::baselineLayout(app, 0);
    // Kernel text maps onto the same cache set (same low bits).
    core::Layout kern_layout = core::baselineLayout(kern, 0x10000);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);    // cold fill
    buf.onBlock(ctx, trace::ImageId::Kernel, 0); // displaces app
    buf.onBlock(ctx, trace::ImageId::App, 0);    // displaces kernel

    Replayer rep(buf, app_layout, &kern_layout);
    auto result = rep.icache({1024, 64, 1}, StreamFilter::Combined);
    EXPECT_EQ(result.misses, 3u);
    // app miss on empty, kernel miss on app line, app miss on kernel.
    EXPECT_EQ(result.interference.counts[0][2], 1u);
    EXPECT_EQ(result.interference.counts[1][0], 1u);
    EXPECT_EQ(result.interference.counts[0][1], 1u);
    EXPECT_EQ(result.interference.missesBy(0), result.app_misses);
    EXPECT_EQ(result.interference.missesBy(1), result.kernel_misses);
}

TEST(Replay, DynamicInstrsRespectsLayoutAdjustedSizes)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onBlock(ctx, trace::ImageId::App, 1);
    Replayer rep(buf, layout);
    EXPECT_EQ(rep.dynamicInstrs(StreamFilter::AppOnly), 32u);
    EXPECT_EQ(rep.dynamicInstrs(StreamFilter::KernelOnly), 0u);
}

TEST(Replay, InstrumentedMatchesSimpleCacheMisses)
{
    // On a line-aligned layout, word-granular and line-granular replay
    // agree on miss counts.
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    for (int i = 0; i < 5; ++i) {
        buf.onBlock(ctx, trace::ImageId::App, 0);
        buf.onBlock(ctx, trace::ImageId::App, 1);
    }
    Replayer rep(buf, layout);
    auto simple = rep.icache({128, 64, 1}, StreamFilter::AppOnly);
    auto inst = rep.instrumented({128, 64, 1}, StreamFilter::AppOnly);
    EXPECT_EQ(inst.misses, simple.misses);
}

TEST(Replay, InstrumentedSeesFullLineUse)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0); // 16 instrs = full 64B line
    Replayer rep(buf, layout);
    auto inst = rep.instrumented({128, 64, 1}, StreamFilter::AppOnly,
                                 /*flush_at_end=*/true);
    EXPECT_EQ(inst.words_used.bucket(16), 1u);
    EXPECT_DOUBLE_EQ(inst.unused_word_fraction, 0.0);
}

TEST(Replay, HierarchyCountsInstructionsAndData)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onData(ctx, 0x80000000ULL);
    buf.onData(ctx, 0x80000000ULL);
    Replayer rep(buf, layout);
    mem::HierarchyConfig config;
    auto result = rep.hierarchy(config);
    EXPECT_EQ(result.instrs, 16u);
    EXPECT_EQ(result.total.l1i.accesses, 1u);
    EXPECT_EQ(result.total.l1d.accesses, 2u);
    EXPECT_EQ(result.total.l1d.misses, 1u);
    auto no_data = rep.hierarchy(config, /*include_data=*/false);
    EXPECT_EQ(no_data.total.l1d.accesses, 0u);
}

TEST(Replay, CoherenceCountsMigratingDataLines)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext c0, c1;
    c1.cpu = 1;
    // The same data line ping-pongs between two CPUs.
    buf.onData(c0, 0x80000000ULL);
    buf.onData(c1, 0x80000000ULL);
    buf.onData(c0, 0x80000000ULL);
    // A private line stays put.
    buf.onData(c1, 0x90000000ULL);
    buf.onData(c1, 0x90000000ULL);
    // Give CPU1 an instruction event so numCpus() covers it even when
    // traces are data-only in this test.
    buf.onBlock(c1, trace::ImageId::App, 0);

    Replayer rep(buf, layout);
    mem::HierarchyConfig config;
    auto with = rep.hierarchy(config, true, /*model_coherence=*/true);
    EXPECT_EQ(with.total.comm_misses, 2u);
    auto without = rep.hierarchy(config, true, false);
    EXPECT_EQ(without.total.comm_misses, 0u);
}

TEST(Replay, CommMissesFollowLineSizeAndGlobalOrder)
{
    trace::TraceBuffer buf;
    trace::ExecContext c0, c1;
    c1.cpu = 1;
    // 0x80000020 shares a 64 B line with 0x80000000, not a 32 B one.
    buf.onData(c0, 0x80000000ULL);
    buf.onData(c1, 0x80000020ULL);
    buf.onData(c0, 0x80000000ULL);
    buf.onBlock(c1, trace::ImageId::App, 0);
    EXPECT_EQ(commMisses(buf, 64), 2u);
    EXPECT_EQ(commMisses(buf, 32), 0u);

    // Each CPU alone sees the same accesses in the same order; only the
    // interleaving of the two decides the count.
    trace::TraceBuffer grouped;
    grouped.onData(c0, 0x80000000ULL);
    grouped.onData(c0, 0x80000000ULL);
    grouped.onData(c1, 0x80000020ULL);
    EXPECT_EQ(commMisses(grouped, 64), 1u);
}

TEST(Replay, FetchBreaksCountDiscontinuities)
{
    Program p = twoLineProgram();
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    // 0 -> 1 is sequential; re-running 0 afterwards is a break.
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onBlock(ctx, trace::ImageId::App, 1);
    buf.onBlock(ctx, trace::ImageId::App, 0);
    Replayer rep(buf, layout);
    auto r = rep.hierarchy(mem::HierarchyConfig{});
    EXPECT_EQ(r.fetch_breaks, 2u); // initial fetch + the jump back
}

TEST(Replay, StreamBufferCoversSequentialStreams)
{
    // One long straight-line procedure spanning many lines.
    Program p("sb");
    ProcedureBuilder b("p");
    b.addBlock(160, Terminator::Return); // 640 bytes = 10 x 64B lines
    p.addProcedure(b.build());
    core::Layout layout = core::baselineLayout(p, 0);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    Replayer rep(buf, layout);
    auto s = rep.streamBuffer({128, 64, 1}, 4,
                              sim::StreamFilter::AppOnly);
    EXPECT_EQ(s.l1Misses(), 10u);
    EXPECT_EQ(s.demandMisses(), 1u);
    EXPECT_EQ(s.streamHits(), 9u);
}

TEST(Replay, ZeroSizedBlocksFetchNothing)
{
    // A branch-only block whose branch is deleted by adjacency.
    Program p("z");
    ProcedureBuilder b("p");
    auto a = b.addBlock(1, Terminator::UncondBranch);
    auto r = b.addBlock(1, Terminator::Return);
    b.addEdge(a, r, EdgeKind::UncondTarget);
    p.addProcedure(b.build());
    core::AssignOptions opts;
    opts.text_base = 0;
    core::Layout layout(p, core::baselineSegments(p), opts);
    ASSERT_EQ(layout.blockSize(0), 0u);
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    Replayer rep(buf, layout);
    auto result = rep.icache({1024, 64, 1}, StreamFilter::AppOnly);
    EXPECT_EQ(result.accesses, 0u);
}

} // namespace
} // namespace spikesim::sim
