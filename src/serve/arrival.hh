#ifndef SPIKESIM_SERVE_ARRIVAL_HH
#define SPIKESIM_SERVE_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

/**
 * @file
 * Open-loop arrival generation: thousands of independent sessions, each
 * emitting requests on its own seeded random process, merged into one
 * time-ordered arrival stream. Open-loop means arrivals do not wait for
 * completions — exactly the regime where layout-induced service-time
 * differences turn into queueing-delay differences (a closed-loop
 * driver hides them by self-throttling).
 *
 * Two processes are provided: Poisson (exponential inter-arrival times,
 * the classic open-loop model) and bursty on-off (each session
 * alternates exponentially-distributed ON and OFF periods and only
 * emits while ON, a Markov-modulated Poisson process whose long-run
 * rate matches the Poisson configuration but whose arrivals clump).
 *
 * Determinism: each session derives its stream from its own
 * support::Pcg32 (seed, session-id) pair and draws in a fixed order,
 * so a session's arrivals do not depend on which host thread generates
 * them. Sessions are generated in parallel on support::executor(), one
 * contiguous session range per worker; each range is sorted by (time,
 * session) and the sorted ranges are k-way merged. (time, session) is
 * a total order up to arrivals that are equal byte for byte, so the
 * merged stream is byte-stable for a seed regardless of host or
 * thread count.
 */

namespace spikesim::serve {

/** Arrival process family. */
enum class ArrivalKind : std::uint8_t { Poisson, Bursty };

/** One generated request arrival (times in model cycles). */
struct Arrival
{
    std::uint64_t time = 0;
    std::uint32_t session = 0;
};

/** Shape of the offered load. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Concurrent sessions (users); each contributes rate/sessions. */
    std::uint32_t sessions = 1'000;
    /** Aggregate arrival rate in requests per cycle. */
    double rate = 1e-5;
    /** Generation horizon in cycles; expected arrivals = rate * horizon. */
    std::uint64_t horizon_cycles = 0;
    std::uint64_t seed = 1;
    /** Bursty only: long-run fraction of time a session is ON. While
     *  ON the session fires at rate/sessions/on_fraction, so the
     *  long-run average rate matches the Poisson configuration. */
    double on_fraction = 0.25;
    /** Bursty only: mean ON-period duration in cycles. */
    double mean_on_cycles = 500'000.0;

    /** Empty when consistent, else a complaint. */
    std::string check() const;
};

/**
 * Generate the merged arrival stream for one configuration. Sorted by
 * (time, session); ties in time across sessions are broken by session
 * id, and a session's own arrivals stay in generation order.
 */
std::vector<Arrival> generateArrivals(const ArrivalConfig& config);

} // namespace spikesim::serve

#endif // SPIKESIM_SERVE_ARRIVAL_HH
