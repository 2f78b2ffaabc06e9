#include "serve/arrival.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/panic.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace spikesim::serve {

namespace {

/** Per-session RNG stream id namespace (disjoint from other users of
 *  the bench seed). */
constexpr std::uint64_t kArrivalStream = 0xa1120000ULL;

/** Exponential variate with the given mean, in cycles (>= 0). */
double
expVariate(support::Pcg32& rng, double mean)
{
    // nextDouble() is in [0, 1), so 1-u is in (0, 1] and log() is safe.
    return -std::log(1.0 - rng.nextDouble()) * mean;
}

void
poissonSession(std::uint32_t session, const ArrivalConfig& cfg,
               double mean_gap, std::vector<Arrival>& out)
{
    support::Pcg32 rng(cfg.seed, kArrivalStream + session);
    double t = expVariate(rng, mean_gap);
    while (t < static_cast<double>(cfg.horizon_cycles)) {
        out.push_back({static_cast<std::uint64_t>(t), session});
        t += expVariate(rng, mean_gap);
    }
}

void
burstySession(std::uint32_t session, const ArrivalConfig& cfg,
              double mean_gap, std::vector<Arrival>& out)
{
    support::Pcg32 rng(cfg.seed, kArrivalStream + session);
    const double mean_on = cfg.mean_on_cycles;
    const double mean_off =
        mean_on * (1.0 - cfg.on_fraction) / cfg.on_fraction;
    // While ON the session fires faster by 1/on_fraction so its
    // long-run rate matches the Poisson configuration.
    const double on_gap = mean_gap * cfg.on_fraction;
    const double horizon = static_cast<double>(cfg.horizon_cycles);

    // Start in ON with the stationary probability, so the stream has
    // no warm-up transient.
    bool on = rng.nextBool(cfg.on_fraction);
    double t = 0.0;
    while (t < horizon) {
        if (!on) {
            t += expVariate(rng, mean_off);
            on = true;
            continue;
        }
        double burst_end = t + expVariate(rng, mean_on);
        double a = t + expVariate(rng, on_gap);
        while (a < burst_end && a < horizon) {
            out.push_back({static_cast<std::uint64_t>(a), session});
            a += expVariate(rng, on_gap);
        }
        t = burst_end;
        on = false;
    }
}

/** The stream's total order: by time, ties broken by session id. */
bool
arrivalLess(const Arrival& a, const Arrival& b)
{
    if (a.time != b.time)
        return a.time < b.time;
    return a.session < b.session;
}

/** K-way merge of sorted ranges into one sorted stream; frees each
 *  range as soon as it is drained. */
std::vector<Arrival>
mergeRanges(std::vector<std::vector<Arrival>>& ranges)
{
    std::size_t total = 0;
    for (const std::vector<Arrival>& r : ranges)
        total += r.size();
    std::vector<Arrival> out;
    out.reserve(total);
    std::vector<std::size_t> pos(ranges.size(), 0);
    // Min-heap of range indices keyed by each range's head.
    const auto later = [&](std::size_t a, std::size_t b) {
        return arrivalLess(ranges[b][pos[b]], ranges[a][pos[a]]);
    };
    std::vector<std::size_t> heap;
    for (std::size_t r = 0; r < ranges.size(); ++r)
        if (!ranges[r].empty())
            heap.push_back(r);
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const std::size_t r = heap.back();
        out.push_back(ranges[r][pos[r]]);
        if (++pos[r] < ranges[r].size()) {
            std::push_heap(heap.begin(), heap.end(), later);
        } else {
            heap.pop_back();
            std::vector<Arrival>().swap(ranges[r]);
        }
    }
    return out;
}

} // namespace

std::string
ArrivalConfig::check() const
{
    if (sessions == 0)
        return "sessions must be > 0";
    if (!(rate > 0.0))
        return "rate must be > 0";
    if (horizon_cycles == 0)
        return "horizon_cycles must be > 0";
    if (kind == ArrivalKind::Bursty &&
        (!(on_fraction > 0.0) || on_fraction > 1.0))
        return "on_fraction must be in (0, 1]";
    if (kind == ArrivalKind::Bursty && !(mean_on_cycles > 0.0))
        return "mean_on_cycles must be > 0";
    return "";
}

namespace detail {

std::vector<Arrival>
generateArrivals(const ArrivalConfig& cfg, int workers)
{
    SPIKESIM_ASSERT(cfg.check().empty(),
                    "bad arrival config: " << cfg.check());
    const double mean_gap =
        static_cast<double>(cfg.sessions) / cfg.rate;
    const double expected =
        cfg.rate * static_cast<double>(cfg.horizon_cycles);
    if (workers <= 0)
        workers = support::ThreadPool::defaultThreads();
    const std::size_t nranges =
        std::min<std::size_t>(cfg.sessions,
                              static_cast<std::size_t>(workers));

    // One contiguous session range per worker, each sorted on its own.
    std::vector<std::vector<Arrival>> ranges(nranges);
    support::ThreadPool::forEachShard(
        nranges,
        [&](std::size_t r) {
            const auto s0 = static_cast<std::uint32_t>(
                std::uint64_t{cfg.sessions} * r / nranges);
            const auto s1 = static_cast<std::uint32_t>(
                std::uint64_t{cfg.sessions} * (r + 1) / nranges);
            // Filled locally: neighbouring ranges' vector headers share
            // cache lines, and every push_back writes the header.
            std::vector<Arrival> out;
            out.reserve(static_cast<std::size_t>(
                expected * 1.1 * (s1 - s0) / cfg.sessions));
            for (std::uint32_t s = s0; s < s1; ++s) {
                if (cfg.kind == ArrivalKind::Poisson)
                    poissonSession(s, cfg, mean_gap, out);
                else
                    burstySession(s, cfg, mean_gap, out);
            }
            // Arrivals equal in (time, session) are equal bytes, so
            // an unstable sort yields the one sorted order.
            std::sort(out.begin(), out.end(), arrivalLess);
            ranges[r] = std::move(out);
        },
        workers);
    return mergeRanges(ranges);
}

} // namespace detail

std::vector<Arrival>
generateArrivals(const ArrivalConfig& cfg)
{
    return detail::generateArrivals(cfg, 0);
}

} // namespace spikesim::serve
