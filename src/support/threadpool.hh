#ifndef SPIKESIM_SUPPORT_THREADPOOL_HH
#define SPIKESIM_SUPPORT_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/**
 * @file
 * Fixed-size worker-thread pool for the parallel sweep executor. The
 * replay workloads are embarrassingly parallel — independent
 * (layout x filter x line-size) jobs over a shared read-only trace —
 * so a plain task queue with a drain barrier is all the machinery
 * needed. Tasks must not throw (simulation errors panic/abort).
 */

namespace spikesim::support {

/** Fixed pool of worker threads consuming a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 picks defaultThreads().
     */
    explicit ThreadPool(int num_threads = 0);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished executing. */
    void wait();

    /**
     * CPUs this process may run on (its sched_getaffinity mask, so
     * taskset and cgroup cpusets count), clamped to
     * [1, hardware concurrency].
     */
    static int defaultThreads();

    /**
     * Run fn(0) .. fn(shards - 1) on a call-local pool of
     * min(shards, max_workers) workers and return when all are done.
     * @param max_workers worker cap; 0 picks defaultThreads().
     */
    static void forEachShard(std::size_t shards,
                             const std::function<void(std::size_t)>& fn,
                             int max_workers = 0);

    /**
     * Point-in-time copy of this pool's execution stats. The counts
     * are also published to the obs registry (`support.pool.*`), where
     * they aggregate across pools; this per-pool view backs the
     * pool-width invariance assertions in tests.
     */
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;
        /** Nanoseconds workers spent parked waiting for work. */
        std::uint64_t idle_ns = 0;
        /** Deepest the queue has been since construction. */
        std::uint64_t max_queue_depth = 0;
    };

    /** Exact when no submits are racing (e.g. right after wait()). */
    Stats stats() const;

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mu_;
    std::condition_variable task_ready_;
    std::condition_variable all_done_;
    std::size_t unfinished_ = 0; ///< queued + currently running
    bool stopping_ = false;
    // Stats below are guarded by mu_ except idle_ns_, which workers
    // accumulate after reacquiring the lock anyway.
    std::uint64_t submitted_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t idle_ns_ = 0;
    std::uint64_t max_queue_depth_ = 0;
};

} // namespace spikesim::support

#endif // SPIKESIM_SUPPORT_THREADPOOL_HH
