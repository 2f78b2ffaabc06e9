/**
 * @file
 * Tests for the process executor: ThreadPool::forEach (every index
 * once, batch-scoped waits, inline at width 1 and when nested), the
 * pool-width invariance of its stats, and support::executor() — the
 * oldest live pool, which every layer without a pool argument
 * (Replayer::resolveSoA, serve::ServiceModel, serve::generateArrivals)
 * runs on.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/layout.hh"
#include "obs/registry.hh"
#include "program/builder.hh"
#include "serve/arrival.hh"
#include "serve/service.hh"
#include "sim/replay.hh"
#include "sim/soa.hh"
#include "support/threadpool.hh"

namespace spikesim::support {
namespace {

/** Threads of this process, from /proc/self/task (read-only). */
std::size_t
processThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * A two-CPU app-only workload small enough to resolve in one chunk:
 * CPU c runs process c, so every serving segment stays on one CPU.
 */
struct TinyWorkload
{
    program::Program app{"app"};
    core::Layout layout;
    trace::TraceBuffer buf;

    TinyWorkload() : layout(buildLayout(app))
    {
        std::vector<trace::ExecContext> ctx(2);
        for (std::uint8_t c = 0; c < 2; ++c) {
            ctx[c].cpu = c;
            ctx[c].process = c;
        }
        for (std::uint32_t i = 0; i < 2000; ++i) {
            trace::ExecContext& x = ctx[(i / 7) % 2];
            buf.onBlock(x, trace::ImageId::App, i % 40);
            if (i % 5 == 0)
                buf.onData(x, 0x80000000ULL + 64 * (i % 13));
        }
    }

    static core::Layout
    buildLayout(program::Program& app)
    {
        for (int i = 0; i < 40; i += 2) {
            program::ProcedureBuilder b("p" + std::to_string(i));
            auto a =
                b.addBlock(1 + i % 7, program::Terminator::FallThrough);
            auto r = b.addBlock(2, program::Terminator::Return);
            b.addEdge(a, r, program::EdgeKind::FallThrough);
            app.addProcedure(b.build());
        }
        return core::baselineLayout(app, 0);
    }
};

/** Tasks the three pool-less entry points submit for `w` on a pool of
 *  `width`: two ServiceModel passes of one task per CPU, two one-chunk
 *  resolve passes, and one arrival range per worker. */
std::uint64_t
poollessTasks(const TinyWorkload& w, const serve::ArrivalConfig& ac,
              int width)
{
    const auto cpus = static_cast<std::uint64_t>(w.buf.numCpus());
    const std::uint64_t ranges = std::min<std::uint64_t>(
        ac.sessions, static_cast<std::uint64_t>(width));
    return 2 * cpus + 2 + ranges;
}

serve::ArrivalConfig
tinyArrivals()
{
    serve::ArrivalConfig ac;
    ac.sessions = 16;
    ac.rate = 1e-3;
    ac.horizon_cycles = 100'000;
    return ac;
}

/** Run the three pool-less entry points once. */
void
runPoolless(const TinyWorkload& w, const serve::ArrivalConfig& ac)
{
    const serve::ServiceModel m(w.buf, w.layout, nullptr, {});
    EXPECT_GT(m.stats().requests, 0u);
    const sim::Replayer rep(w.buf, w.layout, nullptr);
    EXPECT_GT(rep.resolveSoA(sim::StreamFilter::AppOnly).addr.size(),
              0u);
    EXPECT_GT(serve::generateArrivals(ac).size(), 0u);
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::atomic<int> ran{0};
    pool.forEach(100, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ForEachRunsEveryIndexOnce)
{
    for (int width : {1, 2, 3, 8}) {
        ThreadPool pool(width);
        EXPECT_EQ(pool.numThreads(), width);
        std::vector<std::atomic<int>> runs(100);
        pool.forEach(runs.size(),
                     [&runs](std::size_t i) { runs[i].fetch_add(1); });
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1)
                << "width " << width << " i " << i;
    }
}

TEST(ThreadPool, NullPoolRunsSeriallyInIndexOrder)
{
    std::vector<std::size_t> order;
    forEach(nullptr, 5, [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WaitIsABarrier)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.forEach(8, [&done](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        done.fetch_add(1);
    });
    // Every task must have finished -- not merely been dequeued --
    // before forEach returns.
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int wave = 0; wave < 5; ++wave) {
        pool.forEach(20, [&ran](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), (wave + 1) * 20);
    }
}

TEST(ThreadPool, WaitWithNothingQueuedReturns)
{
    for (int width : {1, 2}) {
        ThreadPool pool(width);
        pool.forEach(0, [](std::size_t) { FAIL(); }); // must not deadlock
        EXPECT_EQ(pool.stats().submitted, 0u);
    }
}

TEST(ThreadPool, WaitCoversOnlyTheCallersBatch)
{
    // Another thread's batch holds one worker until released; a second
    // batch on the same pool must still complete and return.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    std::atomic<bool> blocker_running{false};
    std::thread other([&] {
        pool.forEach(1, [&](std::size_t) {
            blocker_running = true;
            while (!release.load())
                std::this_thread::yield();
        });
    });
    while (!blocker_running.load())
        std::this_thread::yield();
    std::atomic<int> ran{0};
    pool.forEach(4, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
    EXPECT_FALSE(release.load());
    release = true;
    other.join();
}

TEST(ThreadPool, DestructorJoinsAfterConcurrentBatches)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        std::vector<std::thread> callers;
        for (int t = 0; t < 3; ++t)
            callers.emplace_back([&] {
                pool.forEach(50,
                             [&ran](std::size_t) { ran.fetch_add(1); });
            });
        for (std::thread& t : callers)
            t.join();
    }
    EXPECT_EQ(ran.load(), 150);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) {
        EXPECT_LE(ThreadPool::defaultThreads(), static_cast<int>(hw));
    }
    ThreadPool pool; // num_threads = 0 picks the default
    EXPECT_EQ(pool.numThreads(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, DefaultThreadsFollowsTheAffinityMask)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    // Pinned to one CPU (what `taskset -c N` does), the default width
    // must drop to 1 whatever the host's core count.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const int pinned = ThreadPool::defaultThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_LE(ThreadPool::defaultThreads(), CPU_COUNT(&saved));
}

TEST(ThreadPool, StatsAndRegistryAreWidthInvariant)
{
    // The execution counts must depend only on the submitted work,
    // never on the worker count — both in the per-pool Stats and in
    // the process-wide obs registry (`support.pool.*`).
    constexpr std::uint64_t kTasks = 64;
    for (int width : {1, 2, 4, 8}) {
        obs::Counter& submitted =
            obs::counter("support.pool.submitted");
        obs::Counter& executed = obs::counter("support.pool.executed");
        const std::uint64_t sub0 = submitted.value();
        const std::uint64_t exec0 = executed.value();

        std::atomic<std::uint64_t> ran{0};
        ThreadPool pool(width);
        pool.forEach(kTasks, [&ran](std::size_t) { ran.fetch_add(1); });

        const ThreadPool::Stats s = pool.stats();
        EXPECT_EQ(ran.load(), kTasks) << "width " << width;
        EXPECT_EQ(s.submitted, kTasks) << "width " << width;
        EXPECT_EQ(s.executed, kTasks) << "width " << width;
        if (width == 1) {
            EXPECT_EQ(s.max_queue_depth, 0u); // inline: nothing queued
        } else {
            EXPECT_GE(s.max_queue_depth, 1u);
            EXPECT_LE(s.max_queue_depth, kTasks);
        }
        EXPECT_EQ(submitted.value() - sub0, kTasks)
            << "width " << width;
        EXPECT_EQ(executed.value() - exec0, kTasks)
            << "width " << width;
    }
}

TEST(ThreadPool, IdleTimeAccumulatesWhileParked)
{
    ThreadPool pool(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.forEach(1, [](std::size_t) {});
    // Both workers parked ~20ms before the first task arrived.
    EXPECT_GT(pool.stats().idle_ns, 0u);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers)
{
    // Two tasks that rendezvous: each waits for the other's arrival, so
    // the pair only completes if two workers run them in parallel.
    ThreadPool pool(2);
    std::atomic<int> arrived{0};
    pool.forEach(2, [&arrived](std::size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < 2)
            std::this_thread::yield();
    });
    EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, NestedForEachRunsInlineWithoutDeadlock)
{
    // Every worker is busy in an outer task when the inner batches
    // start; queueing them would wait forever.
    ThreadPool pool(2);
    ASSERT_EQ(&executor(), &pool);
    std::vector<std::atomic<int>> runs(4 * 3);
    pool.forEach(4, [&](std::size_t i) {
        const std::thread::id self = std::this_thread::get_id();
        executor().forEach(3, [&, i, self](std::size_t j) {
            EXPECT_EQ(std::this_thread::get_id(), self);
            runs[i * 3 + j].fetch_add(1);
        });
    });
    for (std::size_t k = 0; k < runs.size(); ++k)
        EXPECT_EQ(runs[k].load(), 1) << "k " << k;
}

TEST(Executor, IsTheOldestLivePoolElseAProcessPool)
{
    auto a = std::make_unique<ThreadPool>(2);
    auto b = std::make_unique<ThreadPool>(3);
    EXPECT_EQ(&executor(), a.get());
    a.reset();
    EXPECT_EQ(&executor(), b.get());
    b.reset();
    ThreadPool& fallback = executor();
    EXPECT_EQ(fallback.numThreads(), ThreadPool::defaultThreads());
    EXPECT_EQ(&executor(), &fallback);
    // A pool built later takes over from the fallback while it lives.
    ThreadPool c(2);
    EXPECT_EQ(&executor(), &c);
}

TEST(Executor, WidthOneRunsOnTheCallerAndStartsNoThread)
{
    const TinyWorkload w;
    const serve::ArrivalConfig ac = tinyArrivals();
    const std::size_t before = processThreads();
    ThreadPool pool(1);
    ASSERT_EQ(&executor(), &pool);
    const std::thread::id caller = std::this_thread::get_id();
    pool.forEach(16, [caller](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    runPoolless(w, ac);
    EXPECT_EQ(processThreads(), before);
    EXPECT_EQ(pool.stats().executed, 16 + poollessTasks(w, ac, 1));
}

TEST(Executor, PoollessCallsCountOnTheLivePool)
{
    // support.pool.* counts every task: the three entry points without
    // a pool argument run on the live pool and land in its stats.
    const TinyWorkload w;
    const serve::ArrivalConfig ac = tinyArrivals();
    ThreadPool pool(2);
    ASSERT_EQ(&executor(), &pool);
    obs::Counter& executed = obs::counter("support.pool.executed");
    const std::uint64_t exec0 = executed.value();
    runPoolless(w, ac);
    EXPECT_EQ(pool.stats().executed, poollessTasks(w, ac, 2));
    EXPECT_EQ(executed.value() - exec0, poollessTasks(w, ac, 2));
}

} // namespace
} // namespace spikesim::support
