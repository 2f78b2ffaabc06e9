/** @file Tests for the worker-thread pool behind the replay engine. */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/registry.hh"
#include "support/threadpool.hh"

namespace spikesim::support {
namespace {

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsABarrier)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    pool.wait();
    // Every task must have finished -- not merely been dequeued --
    // before wait() returns.
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(ran.load(), (wave + 1) * 20);
    }
}

TEST(ThreadPool, WaitWithNothingQueuedReturns)
{
    ThreadPool pool(2);
    pool.wait(); // must not deadlock
    SUCCEED();
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // No wait(): the destructor must finish the queue first.
    }
    EXPECT_EQ(ran.load(), 50);
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

TEST(ThreadPool, ForEachShardRunsEveryShardOnce)
{
    for (int width : {0, 1, 3, 16}) {
        std::vector<std::atomic<int>> runs(10);
        ThreadPool::forEachShard(
            runs.size(), [&runs](std::size_t s) { runs[s].fetch_add(1); },
            width);
        for (std::size_t s = 0; s < runs.size(); ++s)
            EXPECT_EQ(runs[s].load(), 1) << "width " << width;
    }
    ThreadPool::forEachShard(0, [](std::size_t) { FAIL(); });
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
        for (std::uint64_t i = 0; i < kTasks; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        pool.wait();

        const ThreadPool::Stats s = pool.stats();
        EXPECT_EQ(ran.load(), kTasks) << "width " << width;
        EXPECT_EQ(s.submitted, kTasks) << "width " << width;
        EXPECT_EQ(s.executed, kTasks) << "width " << width;
        EXPECT_GE(s.max_queue_depth, 1u);
        EXPECT_LE(s.max_queue_depth, kTasks);
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
    pool.submit([] {});
    pool.wait();
    // Both workers parked ~20ms before the first task arrived.
    EXPECT_GT(pool.stats().idle_ns, 0u);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers)
{
    // Two tasks that rendezvous: each waits for the other's arrival, so
    // the pair only completes if two workers run them in parallel.
    ThreadPool pool(2);
    std::atomic<int> arrived{0};
    for (int i = 0; i < 2; ++i)
        pool.submit([&arrived] {
            arrived.fetch_add(1);
            while (arrived.load() < 2)
                std::this_thread::yield();
        });
    pool.wait();
    EXPECT_EQ(arrived.load(), 2);
}

} // namespace
} // namespace spikesim::support
