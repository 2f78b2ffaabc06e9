#include "serve/queueing.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "obs/registry.hh"
#include "support/panic.hh"
#include "support/rng.hh"

namespace spikesim::serve {

namespace {

/** Service-time sampling stream id (disjoint from arrival streams). */
constexpr std::uint64_t kServiceStream = 0x5e41ce00ULL;

/** One shard's view: arrivals in global order, pre-sampled service. */
struct ShardWork
{
    std::vector<std::uint64_t> times;
    std::vector<std::uint64_t> services;
};

/** Per-shard outputs before the ordered merge. */
struct ShardOut
{
    ShardResult result;
    obs::QuantileSketch latency_sketch;
    std::vector<std::uint64_t> latencies;
    std::vector<std::uint64_t> depth_hist;
    std::vector<WindowStats> windows;
};

/** Grow `windows` so index `w` exists. */
WindowStats& windowAt(std::vector<WindowStats>& windows, std::uint64_t w)
{
    if (windows.size() <= w)
        windows.resize(static_cast<std::size_t>(w) + 1);
    return windows[static_cast<std::size_t>(w)];
}

/**
 * Single-server FIFO queue with bounded admission: depth at arrival is
 * the number of admitted-but-incomplete requests (a request completing
 * exactly at the arrival instant counts as done); arrivals at full
 * depth are dropped. Window accounting bins arrivals/drops/depth by
 * arrival time and completions (plus their latency) by completion
 * time.
 */
void
runShard(const ShardWork& work, const QueueConfig& config, ShardOut& out)
{
    const std::uint32_t bound = config.queue_bound;
    const std::uint64_t wc = config.window_cycles;
    out.depth_hist.assign(bound + 1, 0);
    std::deque<std::uint64_t> completions;
    std::uint64_t server_free = 0;
    for (std::size_t i = 0; i < work.times.size(); ++i) {
        const std::uint64_t t = work.times[i];
        while (!completions.empty() && completions.front() <= t)
            completions.pop_front();
        const std::uint32_t depth =
            static_cast<std::uint32_t>(completions.size());
        ++out.result.arrivals;
        ++out.depth_hist[depth];
        WindowStats* win = wc ? &windowAt(out.windows, t / wc) : nullptr;
        if (win != nullptr) {
            ++win->arrivals;
            win->depth_max = std::max<std::uint64_t>(win->depth_max, depth);
        }
        if (depth >= bound) {
            ++out.result.dropped;
            if (win != nullptr)
                ++win->dropped;
            continue;
        }
        const std::uint64_t service = work.services[i];
        const std::uint64_t start = std::max(t, server_free);
        const std::uint64_t done = start + service;
        completions.push_back(done);
        server_free = done;
        ++out.result.admitted;
        out.result.busy_cycles += service;
        out.result.last_completion = done;
        const std::uint64_t latency = done - t;
        out.latency_sketch.record(latency);
        if (config.keep_latencies)
            out.latencies.push_back(latency);
        if (wc) {
            WindowStats& cw = windowAt(out.windows, done / wc);
            ++cw.completed;
            cw.latency.record(latency);
        }
    }
}

} // namespace

std::uint64_t
percentileSorted(std::span<const std::uint64_t> sorted, double q)
{
    if (sorted.empty())
        return 0;
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

ServingResult
simulateOpenLoop(std::span<const Arrival> arrivals,
                 std::span<const std::uint64_t> service_cycles,
                 std::uint64_t horizon_cycles, const QueueConfig& config,
                 support::ThreadPool* pool)
{
    SPIKESIM_ASSERT(config.shards >= 1, "shards must be >= 1");
    SPIKESIM_ASSERT(config.queue_bound >= 1,
                    "queue_bound must be >= 1");
    SPIKESIM_ASSERT(!service_cycles.empty(),
                    "service-time table is empty");
    const std::size_t nshards =
        static_cast<std::size_t>(config.shards);

    // Sample service times by global arrival index *before* sharding,
    // so the assignment is independent of shard topology and thread
    // count.
    support::Pcg32 rng(config.seed, kServiceStream);
    std::vector<ShardWork> work(nshards);
    for (const Arrival& a : arrivals) {
        const std::uint64_t service = service_cycles[rng.nextBounded(
            static_cast<std::uint32_t>(service_cycles.size()))];
        ShardWork& w = work[a.session % nshards];
        w.times.push_back(a.time);
        w.services.push_back(service);
    }

    std::vector<ShardOut> outs(nshards);
    support::forEach(pool, nshards, [&](std::size_t s) {
        runShard(work[s], config, outs[s]);
    });

    // Ordered merge: shard order, integer sketch-bucket and window
    // counts — independent of execution interleaving by construction.
    ServingResult r;
    r.horizon_cycles = horizon_cycles;
    r.window_cycles = config.window_cycles;
    r.offered = arrivals.size();
    r.depth_hist.assign(config.queue_bound + 1, 0);
    for (std::size_t s = 0; s < nshards; ++s) {
        const ShardOut& o = outs[s];
        r.completed += o.result.admitted;
        r.dropped += o.result.dropped;
        r.makespan_cycles =
            std::max(r.makespan_cycles, o.result.last_completion);
        for (std::size_t d = 0; d < o.depth_hist.size(); ++d)
            r.depth_hist[d] += o.depth_hist[d];
        r.latency_sketch.merge(o.latency_sketch);
        if (r.windows.size() < o.windows.size())
            r.windows.resize(o.windows.size());
        for (std::size_t w = 0; w < o.windows.size(); ++w) {
            WindowStats& dst = r.windows[w];
            const WindowStats& src = o.windows[w];
            dst.arrivals += src.arrivals;
            dst.completed += src.completed;
            dst.dropped += src.dropped;
            dst.depth_max = std::max(dst.depth_max, src.depth_max);
            dst.latency.merge(src.latency);
        }
        if (config.keep_latencies)
            r.latencies_sorted.insert(r.latencies_sorted.end(),
                                      o.latencies.begin(),
                                      o.latencies.end());
        r.shards.push_back(o.result);
    }
    std::sort(r.latencies_sorted.begin(), r.latencies_sorted.end());
    if (!r.latency_sketch.empty()) {
        r.p50 = r.latency_sketch.quantile(0.50);
        r.p90 = r.latency_sketch.quantile(0.90);
        r.p99 = r.latency_sketch.quantile(0.99);
        r.p999 = r.latency_sketch.quantile(0.999);
        r.max_latency = r.latency_sketch.max();
        r.mean_latency = r.latency_sketch.mean();
    }
    std::uint64_t busy = 0;
    for (const ShardResult& s : r.shards)
        busy += s.busy_cycles;
    if (r.makespan_cycles > 0)
        r.utilization = static_cast<double>(busy) /
                        (static_cast<double>(nshards) *
                         static_cast<double>(r.makespan_cycles));

    // Observability: totals and distributions for active manifests.
    // Histograms are fed in bulk from the sketch buckets / depth
    // counts instead of one record() per sample.
    obs::counter("serve.offered").add(r.offered);
    obs::counter("serve.completed").add(r.completed);
    obs::counter("serve.dropped").add(r.dropped);
    auto& lat_hist = obs::histogram("serve.latency_cycles");
    const std::vector<std::uint64_t>& buckets =
        r.latency_sketch.buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b)
        if (buckets[b])
            lat_hist.record(obs::QuantileSketch::bucketLowerBound(b),
                            buckets[b]);
    auto& depth_hist = obs::histogram("serve.queue_depth");
    for (std::size_t d = 0; d < r.depth_hist.size(); ++d)
        if (r.depth_hist[d])
            depth_hist.record(d, r.depth_hist[d]);
    obs::sketch("serve.latency_cycles").merge(r.latency_sketch);
    obs::gauge("serve.makespan_cycles").max(
        static_cast<std::int64_t>(r.makespan_cycles));
    return r;
}

} // namespace spikesim::serve
