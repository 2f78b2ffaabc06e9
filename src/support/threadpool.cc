#include "support/threadpool.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>

#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "support/panic.hh"

namespace spikesim::support {

namespace {

/** The pool whose worker is running on this thread, if any. */
thread_local const ThreadPool* tls_pool = nullptr;

/** Listed pools, oldest first. Never destroyed, so a pool destroyed
 *  during static teardown can still unlist itself. */
struct LivePools
{
    std::mutex mu;
    std::vector<ThreadPool*> pools;
};

LivePools&
livePools()
{
    static LivePools* const live = new LivePools;
    return *live;
}

} // namespace

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

ThreadPool&
executor()
{
    {
        LivePools& live = livePools();
        std::lock_guard<std::mutex> lock(live.mu);
        if (!live.pools.empty())
            return *live.pools.front();
    }
    // Never destroyed: its workers stay parked until the process ends.
    static ThreadPool* const fallback =
        new ThreadPool(0, ThreadPool::Unlisted{});
    return *fallback;
}

ThreadPool::ThreadPool(int num_threads, Unlisted)
    : width_(num_threads > 0 ? num_threads : defaultThreads())
{
    if (width_ > 1)
        for (int i = 0; i < width_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(num_threads, Unlisted{})
{
    LivePools& live = livePools();
    std::lock_guard<std::mutex> lock(live.mu);
    live.pools.push_back(this);
}

ThreadPool::~ThreadPool()
{
    {
        LivePools& live = livePools();
        std::lock_guard<std::mutex> lock(live.mu);
        std::erase(live.pools, this);
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)>& fn)
{
    static obs::Counter& c_submitted =
        obs::counter("support.pool.submitted");
    static obs::Counter& c_executed = obs::counter("support.pool.executed");
    static obs::Gauge& g_depth = obs::gauge("support.pool.queue_depth");
    if (n == 0)
        return;
    c_submitted.add(n);
    if (workers_.empty() || tls_pool == this) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        c_executed.add(n);
        std::unique_lock<std::mutex> lock(mu_);
        submitted_ += n;
        executed_ += n;
        return;
    }
    Batch batch{&fn, n};
    std::unique_lock<std::mutex> lock(mu_);
    SPIKESIM_ASSERT(!stopping_, "forEach after pool shutdown began");
    for (std::size_t i = 0; i < n; ++i)
        queue_.push_back({&batch, i});
    submitted_ += n;
    max_queue_depth_ = std::max<std::uint64_t>(max_queue_depth_,
                                               queue_.size());
    g_depth.max(static_cast<std::int64_t>(queue_.size()));
    task_ready_.notify_all();
    batch_done_.wait(lock, [&batch] { return batch.unfinished == 0; });
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
    tls_pool = this;
    static obs::Counter& c_executed = obs::counter("support.pool.executed");
    static obs::Counter& c_idle_ns =
        obs::counter("support.pool.idle_ns");
    using clock = std::chrono::steady_clock;
    for (;;) {
        Task task;
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
            task = queue_.front();
            queue_.pop_front();
        }
        c_idle_ns.add(idle_ns);
        {
            obs::Span span("pool.task", "support");
            (*task.batch->fn)(task.index);
        }
        c_executed.add(1);
        std::unique_lock<std::mutex> lock(mu_);
        ++executed_;
        if (--task.batch->unfinished == 0)
            batch_done_.notify_all();
    }
}

} // namespace spikesim::support
