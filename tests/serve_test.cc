#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <utility>

#include "core/pipeline.hh"
#include "program/builder.hh"
#include "serve/arrival.hh"
#include "serve/queueing.hh"
#include "serve/service.hh"
#include "sim/replay.hh"
#include "sim/system.hh"
#include "sim/timing.hh"
#include "support/checksum.hh"
#include "support/threadpool.hh"

// The open-loop serving subsystem: arrival generation, the bounded
// FIFO queueing model, and the per-transaction service-time walk —
// including the differential check that the solo service model replays
// the hierarchy exactly like Replayer::hierarchy.

namespace spikesim {
namespace {

serve::ArrivalConfig
smallArrivals()
{
    serve::ArrivalConfig c;
    c.sessions = 20;
    c.rate = 1e-3; // ~1000 arrivals over the horizon
    c.horizon_cycles = 1'000'000;
    c.seed = 42;
    return c;
}

TEST(Arrival, DeterministicSortedAndBounded)
{
    serve::ArrivalConfig c = smallArrivals();
    std::vector<serve::Arrival> a = serve::generateArrivals(c);
    std::vector<serve::Arrival> b = serve::generateArrivals(c);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].session, b[i].session);
        EXPECT_LT(a[i].time, c.horizon_cycles);
        EXPECT_LT(a[i].session, c.sessions);
        if (i > 0)
            EXPECT_GE(a[i].time, a[i - 1].time);
    }
    // Roughly rate * horizon arrivals (Poisson, generous tolerance).
    EXPECT_GT(a.size(), 700u);
    EXPECT_LT(a.size(), 1300u);
}

TEST(Arrival, SeedChangesTheStream)
{
    serve::ArrivalConfig c = smallArrivals();
    std::vector<serve::Arrival> a = serve::generateArrivals(c);
    c.seed = 43;
    std::vector<serve::Arrival> b = serve::generateArrivals(c);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].time != b[i].time;
    EXPECT_TRUE(differs);
}

TEST(Arrival, BurstyMatchesLongRunRate)
{
    serve::ArrivalConfig c = smallArrivals();
    c.horizon_cycles = 10'000'000; // long horizon to average bursts out
    std::vector<serve::Arrival> poisson = serve::generateArrivals(c);
    c.kind = serve::ArrivalKind::Bursty;
    std::vector<serve::Arrival> bursty = serve::generateArrivals(c);
    ASSERT_FALSE(bursty.empty());
    // Same configured long-run rate, within 15%.
    const double ratio = static_cast<double>(bursty.size()) /
                         static_cast<double>(poisson.size());
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
}

std::uint64_t
digestArrivals(const std::vector<serve::Arrival>& a)
{
    support::Fnv1a64 h;
    h.update64(a.size());
    for (const serve::Arrival& x : a) {
        h.update64(x.time);
        h.update64(x.session);
    }
    return h.digest();
}

// Digests of the merged stream recorded from the single-threaded
// generator (one session after another, then one whole-stream stable
// sort). The sharded generator must reproduce them at every width,
// including widths above the session count.
TEST(Arrival, ShardedStreamMatchesRecordedDigests)
{
    struct Case
    {
        serve::ArrivalKind kind;
        std::uint32_t sessions;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {serve::ArrivalKind::Poisson, 1, 0xeadd6862db1ac841ULL},
        {serve::ArrivalKind::Poisson, 3, 0xa121292e0fbcae1cULL},
        {serve::ArrivalKind::Poisson, 2000, 0xbcfc1888b61f31afULL},
        {serve::ArrivalKind::Bursty, 1, 0xf11f1a56e2733e48ULL},
        {serve::ArrivalKind::Bursty, 3, 0x4a1a796e182053c4ULL},
        {serve::ArrivalKind::Bursty, 2000, 0x396c48f27420b180ULL},
    };
    for (const Case& k : cases) {
        serve::ArrivalConfig c;
        c.kind = k.kind;
        c.sessions = k.sessions;
        c.rate = 1e-2; // ~20000 arrivals over the horizon
        c.horizon_cycles = 2'000'000;
        c.mean_on_cycles = 100'000.0;
        c.seed = 7;
        for (int workers : {1, 2, 3, 8}) {
            // The only live pool, so the executor generateArrivals runs on.
            support::ThreadPool pool(workers);
            ASSERT_EQ(&support::executor(), &pool);
            const std::vector<serve::Arrival> a = serve::generateArrivals(c);
            EXPECT_EQ(digestArrivals(a), k.digest)
                << "kind=" << static_cast<int>(k.kind)
                << " sessions=" << k.sessions << " workers=" << workers
                << " size=" << a.size() << std::hex
                << " digest=0x" << digestArrivals(a);
        }
    }
}

TEST(Arrival, ConfigCheckCatchesNonsense)
{
    serve::ArrivalConfig c = smallArrivals();
    EXPECT_EQ(c.check(), "");
    c.sessions = 0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.rate = 0.0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.horizon_cycles = 0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.kind = serve::ArrivalKind::Bursty;
    c.on_fraction = 0.0;
    EXPECT_NE(c.check(), "");
}

TEST(Queueing, PercentileSortedNearestRank)
{
    const std::vector<std::uint64_t> s = {10, 20, 30, 40};
    EXPECT_EQ(serve::percentileSorted(s, 0.0), 10u);
    EXPECT_EQ(serve::percentileSorted(s, 0.5), 20u);
    EXPECT_EQ(serve::percentileSorted(s, 0.75), 30u);
    EXPECT_EQ(serve::percentileSorted(s, 1.0), 40u);
    EXPECT_EQ(serve::percentileSorted({}, 0.5), 0u);
}

TEST(Queueing, FifoSingleServerMath)
{
    // One shard, one service value: the queue is pure FIFO arithmetic.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {10, 0}, {20, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 8;
    qc.keep_latencies = true;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.offered, 3u);
    EXPECT_EQ(r.completed, 3u);
    EXPECT_EQ(r.dropped, 0u);
    // Completions at 100, 200, 300 -> latencies 100, 190, 280.
    ASSERT_EQ(r.latencies_sorted.size(), 3u);
    EXPECT_EQ(r.latencies_sorted[0], 100u);
    EXPECT_EQ(r.latencies_sorted[1], 190u);
    EXPECT_EQ(r.latencies_sorted[2], 280u);
    EXPECT_EQ(r.makespan_cycles, 300u);
    EXPECT_EQ(r.max_latency, 280u);
    // Server busy the whole makespan.
    EXPECT_DOUBLE_EQ(r.utilization, 1.0);
    // Depths seen: 0, 1, 2.
    EXPECT_EQ(r.depth_hist[0], 1u);
    EXPECT_EQ(r.depth_hist[1], 1u);
    EXPECT_EQ(r.depth_hist[2], 1u);
}

TEST(Queueing, BoundedAdmissionDrops)
{
    // bound 1 = server only, no waiting room: back-to-back arrivals
    // during service are dropped.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {1, 0}, {2, 0}, {150, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 1;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.offered, 4u);
    EXPECT_EQ(r.completed, 2u); // t=0 and t=150 (first done at 100)
    EXPECT_EQ(r.dropped, 2u);
    EXPECT_EQ(r.shards[0].dropped, 2u);
}

TEST(Queueing, SessionsPinToShards)
{
    // Two sessions on two shards never queue behind each other.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {0, 1}, {10, 0}, {10, 1}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 2;
    qc.queue_bound = 8;
    qc.keep_latencies = true;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.completed, 4u);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].arrivals, 2u);
    EXPECT_EQ(r.shards[1].arrivals, 2u);
    // Each shard: latencies 100 and 190 — identical streams.
    EXPECT_EQ(r.latencies_sorted[0], 100u);
    EXPECT_EQ(r.latencies_sorted[1], 100u);
    EXPECT_EQ(r.latencies_sorted[2], 190u);
    EXPECT_EQ(r.latencies_sorted[3], 190u);
}

TEST(Queueing, PoolWidthDoesNotChangeResults)
{
    serve::ArrivalConfig ac = smallArrivals();
    const std::vector<serve::Arrival> arrivals =
        serve::generateArrivals(ac);
    std::vector<std::uint64_t> service(64);
    for (std::size_t i = 0; i < service.size(); ++i)
        service[i] = 500 + 37 * i;
    serve::QueueConfig qc;
    qc.shards = 4;
    qc.queue_bound = 16;
    qc.seed = 9;
    qc.keep_latencies = true;
    qc.window_cycles = ac.horizon_cycles / 16;
    serve::ServingResult serial = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc, nullptr);
    support::ThreadPool pool(3);
    serve::ServingResult threaded = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc, &pool);
    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.dropped, threaded.dropped);
    EXPECT_EQ(serial.p50, threaded.p50);
    EXPECT_EQ(serial.p99, threaded.p99);
    EXPECT_EQ(serial.p999, threaded.p999);
    EXPECT_EQ(serial.makespan_cycles, threaded.makespan_cycles);
    EXPECT_EQ(serial.latencies_sorted, threaded.latencies_sorted);
    EXPECT_EQ(serial.depth_hist, threaded.depth_hist);
    // The merged sketch and the flight recorder windows are integer
    // bucket counts merged in shard order: byte-identical too.
    EXPECT_EQ(serial.latency_sketch.buckets(),
              threaded.latency_sketch.buckets());
    ASSERT_EQ(serial.windows.size(), threaded.windows.size());
    for (std::size_t w = 0; w < serial.windows.size(); ++w) {
        EXPECT_EQ(serial.windows[w].arrivals,
                  threaded.windows[w].arrivals);
        EXPECT_EQ(serial.windows[w].completed,
                  threaded.windows[w].completed);
        EXPECT_EQ(serial.windows[w].dropped,
                  threaded.windows[w].dropped);
        EXPECT_EQ(serial.windows[w].depth_max,
                  threaded.windows[w].depth_max);
        EXPECT_EQ(serial.windows[w].latency.buckets(),
                  threaded.windows[w].latency.buckets());
    }
}

TEST(Queueing, SketchPercentilesTrackTheSortOracle)
{
    // With keep_latencies on, the exact sorted path and the sketch run
    // side by side: every sketch percentile must sit within the
    // sketch's relative-error bound above the nearest-rank oracle.
    serve::ArrivalConfig ac = smallArrivals();
    const std::vector<serve::Arrival> arrivals =
        serve::generateArrivals(ac);
    std::vector<std::uint64_t> service(64);
    for (std::size_t i = 0; i < service.size(); ++i)
        service[i] = 300 + 91 * i * i;
    serve::QueueConfig qc;
    qc.shards = 4;
    qc.queue_bound = 16;
    qc.seed = 5;
    qc.keep_latencies = true;
    serve::ServingResult r = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc);
    ASSERT_FALSE(r.latencies_sorted.empty());
    EXPECT_EQ(r.latency_sketch.count(), r.latencies_sorted.size());
    const auto check = [&](std::uint64_t sketch_v, double q) {
        const std::uint64_t exact =
            serve::percentileSorted(r.latencies_sorted, q);
        EXPECT_GE(sketch_v, exact) << "q=" << q;
        EXPECT_LE(sketch_v,
                  exact + exact / 128 + 1)
            << "q=" << q;
    };
    check(r.p50, 0.50);
    check(r.p90, 0.90);
    check(r.p99, 0.99);
    check(r.p999, 0.999);
    // Extrema and mean are exact, not sketched.
    EXPECT_EQ(r.max_latency, r.latencies_sorted.back());
    std::uint64_t total = 0;
    for (std::uint64_t l : r.latencies_sorted)
        total += l;
    EXPECT_DOUBLE_EQ(
        r.mean_latency,
        static_cast<double>(total) /
            static_cast<double>(r.latencies_sorted.size()));
}

TEST(Queueing, WindowAccountingBinsByTime)
{
    // Window width 100: arrival at t binned by t/100, completion by
    // done/100. Single shard, service 100 cycles.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {10, 0}, {250, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 8;
    qc.window_cycles = 100;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.window_cycles, 100u);
    // Completions at 100, 200, 350 -> windows 1, 2, 3.
    ASSERT_EQ(r.windows.size(), 4u);
    EXPECT_EQ(r.windows[0].arrivals, 2u); // t=0, t=10
    EXPECT_EQ(r.windows[2].arrivals, 1u); // t=250
    EXPECT_EQ(r.windows[0].completed, 0u);
    EXPECT_EQ(r.windows[1].completed, 1u); // done=100 (window 1)
    EXPECT_EQ(r.windows[2].completed, 1u); // done=200 (window 2)
    EXPECT_EQ(r.windows[3].completed, 1u); // done=350
    EXPECT_EQ(r.windows[0].depth_max, 1u); // t=10 saw depth 1
    std::uint64_t arrivals_total = 0;
    std::uint64_t completed_total = 0;
    for (const serve::WindowStats& w : r.windows) {
        arrivals_total += w.arrivals;
        completed_total += w.completed;
        EXPECT_EQ(w.latency.count(), w.completed);
    }
    EXPECT_EQ(arrivals_total, r.offered);
    EXPECT_EQ(completed_total, r.completed);
}

sim::SystemConfig
smallSystem()
{
    sim::SystemConfig c;
    c.num_cpus = 2;
    c.processes_per_cpu = 2;
    c.tpcb.branches = 5;
    c.tpcb.accounts_per_branch = 200;
    c.tpcb.buffer_frames = 128;
    c.quantum_instrs = 20'000;
    return c;
}

TEST(ServiceModel, SegmentsSplitAtProcessChanges)
{
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    ctx.process = 0;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onBlock(ctx, trace::ImageId::App, 1);
    ctx.process = 1;
    buf.onBlock(ctx, trace::ImageId::App, 2);
    ctx.process = 0;
    buf.onBlock(ctx, trace::ImageId::App, 3);
    auto segs = serve::ServiceModel::segments(buf);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0], (std::pair<std::size_t, std::size_t>{0, 2}));
    EXPECT_EQ(segs[1], (std::pair<std::size_t, std::size_t>{2, 3}));
    EXPECT_EQ(segs[2], (std::pair<std::size_t, std::size_t>{3, 4}));
}

TEST(ServiceModelDeathTest, RejectsSegmentsThatSpanCpus)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    program::Program prog("p");
    program::ProcedureBuilder b("f");
    b.addBlock(2, program::Terminator::Return);
    prog.addProcedure(b.build());
    const core::Layout app = core::baselineLayout(prog, 0x1000);

    // Process 1 starts on CPU 1 and moves to CPU 0 mid-segment; traces
    // captured by sim::System never do this (a process is pinned to
    // CPU process % num_cpus).
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    ctx.process = 1;
    ctx.cpu = 1;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    trace::TraceBuffer pinned = buf;
    ctx.cpu = 0;
    buf.onBlock(ctx, trace::ImageId::App, 0);

    const serve::ServiceModelConfig smc;
    EXPECT_DEATH(
        { serve::ServiceModel m(buf, app, nullptr, smc); },
        "segment spans CPUs: process 1 moves from CPU 1 to CPU 0");
    EXPECT_DEATH({ serve::ServiceModel::segments(buf); },
                 "segment spans CPUs");
    // The same trace without the move is accepted.
    const serve::ServiceModel ok(pinned, app, nullptr, smc);
    EXPECT_EQ(ok.stats().requests, 2u);
}

/**
 * The solo walk is the production hierarchy walk of the Figure 14/15
 * benches, so it must match the Replayer::hierarchy oracle on every
 * platform preset: the 21364-sim hierarchy, the 21164's 8 KB
 * direct-mapped L1s with 32 B lines, and the 21264's 4 MB
 * direct-mapped L2.
 */
TEST(ServiceModel, SoloMatchesReplayerHierarchy)
{
    sim::System sys(smallSystem());
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(40, buf);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);
    sim::Replayer rep(buf, app, &kern);

    for (const sim::PlatformParams& platform :
         {sim::PlatformParams::sim21364(),
          sim::PlatformParams::alpha21164(),
          sim::PlatformParams::alpha21264()}) {
        SCOPED_TRACE(platform.name);
        sim::HierarchyReplayResult oracle =
            rep.hierarchy(platform.hierarchy, /*include_data=*/true);

        serve::ServiceModelConfig smc;
        smc.platform = platform;
        serve::ServiceModel model(buf, app, &kern, smc);
        const serve::ServiceStats& st = model.stats();

        // Same walk: identical instruction, fetch-break, access and
        // miss counts.
        EXPECT_EQ(st.instrs, oracle.instrs);
        EXPECT_EQ(st.fetch_breaks, oracle.fetch_breaks);
        for (auto [got, want] :
             {std::pair{st.mem.l1i, oracle.total.l1i},
              std::pair{st.mem.l1d, oracle.total.l1d},
              std::pair{st.mem.l2i, oracle.total.l2i},
              std::pair{st.mem.l2d, oracle.total.l2d}}) {
            EXPECT_EQ(got.accesses, want.accesses);
            EXPECT_EQ(got.misses, want.misses);
        }
        EXPECT_EQ(st.mem.itlb_misses, oracle.total.itlb_misses);
        EXPECT_GT(st.mem.l2i.misses, 0u);

        // Per-request cycles sum to the whole-trace non-idle cycles
        // (every preset's weights are integers, so no rounding drift).
        const std::uint64_t whole = sim::nonIdleCycles(
            oracle.total, oracle.instrs, platform, oracle.fetch_breaks);
        const auto& per_req = model.requestCycles();
        const std::uint64_t summed = std::accumulate(
            per_req.begin(), per_req.end(), std::uint64_t{0});
        EXPECT_EQ(summed, whole);
        EXPECT_EQ(st.requests, per_req.size());
        EXPECT_EQ(st.total_cycles, summed);
        EXPECT_GT(st.requests, 10u);
    }
}

TEST(ServiceModel, TenantsShareL2AndInflateService)
{
    sim::System sys(smallSystem());
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(30, buf);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);

    serve::ServiceModelConfig solo;
    serve::ServiceModel one(buf, app, &kern, solo);
    serve::ServiceModelConfig shared = solo;
    shared.tenants = 2;
    serve::ServiceModel two(buf, app, &kern, shared);

    // Twice the requests (each tenant runs the whole trace)...
    EXPECT_EQ(two.stats().requests, 2 * one.stats().requests);
    EXPECT_EQ(two.stats().instrs, 2 * one.stats().instrs);
    // ...and LRU interference in the shared L2/iTLB can only add
    // misses, so total cycles are at least 2x solo.
    EXPECT_GE(two.stats().total_cycles, 2 * one.stats().total_cycles);
    EXPECT_GE(two.stats().mem.itlb_misses,
              2 * one.stats().mem.itlb_misses);
}

std::uint64_t
digestService(const serve::ServiceModel& m)
{
    support::Fnv1a64 h;
    for (std::uint64_t v : m.requestCycles())
        h.update64(v);
    const serve::ServiceStats& s = m.stats();
    for (std::uint64_t v :
         {s.requests, s.total_cycles, s.min_cycles, s.max_cycles,
          std::bit_cast<std::uint64_t>(s.mean_cycles), s.p50_cycles,
          s.p99_cycles, s.mem.l1i.accesses, s.mem.l1i.misses,
          s.mem.l1d.accesses, s.mem.l1d.misses, s.mem.l2i.accesses,
          s.mem.l2i.misses, s.mem.l2d.accesses, s.mem.l2d.misses,
          s.mem.itlb_misses, s.mem.comm_misses, s.instrs,
          s.fetch_breaks})
        h.update64(v);
    return h.digest();
}

// Digests of requestCycles() + ServiceStats recorded from the
// single-threaded walk (one pass over the trace in global order). The
// per-CPU sharded walk must reproduce them at every width: 4 simulated
// CPUs on 1, 2, 3 (uneven) and 8 (more workers than CPUs) workers.
TEST(ServiceModel, ShardedWalkMatchesRecordedDigests)
{
    sim::SystemConfig sc = smallSystem();
    sc.num_cpus = 4;
    sim::System sys(sc);
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(40, buf);
    ASSERT_EQ(buf.numCpus(), 4);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);

    struct Case
    {
        int tenants;
        std::uint64_t digest;
    };
    const Case cases[] = {{1, 0xfa4d1b1a85f24dceULL},
                          {2, 0x895bbaf911274b47ULL},
                          {3, 0xbabf92139eaeb6bfULL}};
    for (const Case& k : cases) {
        serve::ServiceModelConfig smc;
        smc.tenants = k.tenants;
        for (int workers : {1, 2, 3, 8}) {
            support::ThreadPool pool(workers);
            ASSERT_EQ(&support::executor(), &pool);
            const serve::ServiceModel m(buf, app, &kern, smc);
            EXPECT_EQ(digestService(m), k.digest)
                << "tenants=" << k.tenants << " workers=" << workers
                << " requests=" << m.stats().requests << std::hex
                << " digest=0x" << digestService(m);
        }
    }
}

} // namespace
} // namespace spikesim
