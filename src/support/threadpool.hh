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
 * The process's one executor. Every parallel layer (replay engine,
 * chunked resolve, service walk, arrivals, queue shards, layout search)
 * runs its independent shards through ThreadPool::forEach. Layers that
 * take a `ThreadPool*` run on it (null = serially); the rest run on
 * executor(), the oldest live pool. So the pool a program builds first
 * (a bench's `--threads N` pool, perfbench's) bounds every layer. Tasks
 * must not throw (simulation errors panic/abort).
 */

namespace spikesim::support {

/** Fixed pool of worker threads running forEach batches. */
class ThreadPool
{
  public:
    /** @param num_threads width; 0 picks defaultThreads(). Width 1
     *  starts no worker thread. */
    explicit ThreadPool(int num_threads = 0);

    /** Joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int numThreads() const { return width_; }

    /**
     * Run fn(0) .. fn(n - 1); return when this batch (not every task on
     * the pool) is done. Runs inline on the caller at width 1 and when
     * called from this pool's own worker, so nesting cannot deadlock.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)>& fn);

    /**
     * CPUs this process may run on (its sched_getaffinity mask, so
     * taskset and cgroup cpusets count), clamped to
     * [1, hardware concurrency].
     */
    static int defaultThreads();

    /**
     * Point-in-time copy of this pool's execution stats. The counts
     * are also published to the obs registry (`support.pool.*`), where
     * they aggregate across pools; this per-pool view backs the
     * pool-width invariance assertions in tests. Inline batches count
     * too.
     */
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;
        /** Nanoseconds workers spent parked waiting for work. */
        std::uint64_t idle_ns = 0;
        /** Deepest the queue has been since construction. */
        std::uint64_t max_queue_depth = 0;
    };

    /** Exact when no batch is in flight (e.g. after forEach returns). */
    Stats stats() const;

  private:
    friend ThreadPool& executor();

    /** One forEach call; lives on the caller's stack. */
    struct Batch
    {
        const std::function<void(std::size_t)>* fn;
        std::size_t unfinished; ///< guarded by mu_
    };
    struct Task
    {
        Batch* batch;
        std::size_t index;
    };

    /** Tag: a pool executor() does not list (its own fallback). */
    struct Unlisted {};
    ThreadPool(int num_threads, Unlisted);

    void workerLoop();

    int width_;
    std::vector<std::thread> workers_;
    std::deque<Task> queue_;
    mutable std::mutex mu_;
    std::condition_variable task_ready_;
    std::condition_variable batch_done_;
    bool stopping_ = false;
    // Stats below are guarded by mu_.
    std::uint64_t submitted_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t idle_ns_ = 0;
    std::uint64_t max_queue_depth_ = 0;
};

/** The oldest live ThreadPool, else a process-lifetime pool of
 *  defaultThreads() width built on first use. */
ThreadPool& executor();

/** fn(0) .. fn(n - 1) on `pool`, or in index order on the caller when
 *  `pool` is null. */
inline void
forEach(ThreadPool* pool, std::size_t n,
        const std::function<void(std::size_t)>& fn)
{
    if (pool != nullptr)
        return pool->forEach(n, fn);
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace spikesim::support

#endif // SPIKESIM_SUPPORT_THREADPOOL_HH
