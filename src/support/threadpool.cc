#include "support/threadpool.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>

#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "support/panic.hh"

namespace spikesim::support {

int
ThreadPool::defaultThreads()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    // The affinity mask reflects taskset and cgroup cpusets, which
    // hardware_concurrency() ignores.
    cpu_set_t set;
    CPU_ZERO(&set);
    int n = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                         : hw;
    if (hw > 0)
        n = std::min(n, hw);
    return std::max(n, 1);
}

void
ThreadPool::forEachShard(std::size_t shards,
                         const std::function<void(std::size_t)>& fn,
                         int max_workers)
{
    if (shards == 0)
        return;
    if (max_workers <= 0)
        max_workers = defaultThreads();
    ThreadPool pool(static_cast<int>(
        std::min(shards, static_cast<std::size_t>(max_workers))));
    for (std::size_t s = 0; s < shards; ++s)
        pool.submit([&fn, s] { fn(s); });
    pool.wait();
}

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads <= 0)
        num_threads = defaultThreads();
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    SPIKESIM_ASSERT(task != nullptr, "null task submitted to pool");
    std::uint64_t depth;
    {
        std::unique_lock<std::mutex> lock(mu_);
        SPIKESIM_ASSERT(!stopping_, "submit after pool shutdown began");
        queue_.push_back(std::move(task));
        ++unfinished_;
        ++submitted_;
        depth = queue_.size();
        if (depth > max_queue_depth_)
            max_queue_depth_ = depth;
    }
    static obs::Counter& c_submitted =
        obs::counter("support.pool.submitted");
    static obs::Gauge& g_depth =
        obs::gauge("support.pool.queue_depth");
    c_submitted.add(1);
    g_depth.max(static_cast<std::int64_t>(depth));
    task_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

ThreadPool::Stats
ThreadPool::stats() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return {submitted_, executed_, idle_ns_, max_queue_depth_};
}

void
ThreadPool::workerLoop()
{
    static obs::Counter& c_executed =
        obs::counter("support.pool.executed");
    static obs::Counter& c_idle_ns =
        obs::counter("support.pool.idle_ns");
    using clock = std::chrono::steady_clock;
    for (;;) {
        std::function<void()> task;
        std::uint64_t idle_ns;
        {
            std::unique_lock<std::mutex> lock(mu_);
            clock::time_point park = clock::now();
            task_ready_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            idle_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    clock::now() - park)
                    .count());
            idle_ns_ += idle_ns;
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        c_idle_ns.add(idle_ns);
        {
            obs::Span span("pool.task", "support");
            task();
        }
        c_executed.add(1);
        {
            std::unique_lock<std::mutex> lock(mu_);
            ++executed_;
            if (--unfinished_ == 0)
                all_done_.notify_all();
        }
    }
}

} // namespace spikesim::support
