#ifndef SPIKESIM_SERVE_SERVICE_HH
#define SPIKESIM_SERVE_SERVICE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/layout.hh"
#include "mem/hierarchy.hh"
#include "sim/timing.hh"
#include "trace/trace.hh"

/**
 * @file
 * Per-request service times from the replay timing model. The figure
 * benches report whole-trace non-idle cycles (sim/timing); the serving
 * model needs the same quantity *per transaction*, because queueing
 * delay under open-loop load depends on the service-time distribution,
 * not just its mean. The walk here replays the recorded trace through
 * the same per-CPU hierarchy simulation as Replayer::hierarchy (its
 * differential oracle), but attributes every miss penalty and
 * instruction cycle to the transaction segment being executed,
 * yielding one service time per transaction per layout — the bridge
 * from "layout saves misses" to "layout moves p99".
 *
 * It is also the one production hierarchy walk: a solo model's stats()
 * (tenants = 1) are the whole-trace hierarchy counters the Figure 14
 * and 15 benches report, and sim::commMisses adds the coherence count
 * the per-CPU walk cannot see.
 *
 * Transaction boundaries come from the trace itself: the system issues
 * every transaction on the next server process round-robin
 * (sim/system.hh), so the points where TraceEvent::process changes are
 * exactly the transaction boundaries. No extra trace format is needed.
 *
 * The walk runs sharded by simulated CPU on host threads. Every piece
 * of walk state (L1 I/D per tenant, L2, iTLB, fetch-run tracking) is
 * private to one CPU and there is no coherence pass, and every
 * segment runs on a single CPU (a process is pinned to CPU process %
 * num_cpus; a segment that changes CPU is rejected). So each CPU shard
 * replays its own segments in global (segment, tenant) order, the
 * state of every simulated structure evolves exactly as in one
 * global-order walk, and the output is byte-identical at any host
 * thread count.
 *
 * Multi-tenant mode models N engine instances on the same machine:
 * each tenant has private L1 I/D caches, but all tenants on a CPU
 * share its L2 and iTLB (the structures the fig12/13 interference
 * studies contend on). Tenant addresses are salted at page granularity
 * — distinct address spaces land on different L2 sets and TLB entries,
 * the way distinct processes' pages do — and tenants execute the trace
 * interleaved one transaction at a time, so shared-structure
 * interference inflates every tenant's service times.
 */

namespace spikesim::serve {

/** Timing platform + sharing shape for the service-time walk. */
struct ServiceModelConfig
{
    sim::PlatformParams platform = sim::PlatformParams::sim21364();
    /** Engine instances sharing each CPU's L2 + iTLB (1 = solo). */
    int tenants = 1;
};

/** Distribution summary over the per-request service times. */
struct ServiceStats
{
    std::uint64_t requests = 0;
    std::uint64_t total_cycles = 0;
    std::uint64_t min_cycles = 0;
    std::uint64_t max_cycles = 0;
    double mean_cycles = 0.0;
    std::uint64_t p50_cycles = 0;
    std::uint64_t p99_cycles = 0;
    /** Aggregate hierarchy counters over all tenants (differential
     *  check against Replayer::hierarchy when tenants == 1). */
    mem::HierarchyStats mem;
    std::uint64_t instrs = 0;
    std::uint64_t fetch_breaks = 0;
};

/** Derives per-transaction service times for one (trace, layout) pair. */
class ServiceModel
{
  public:
    /**
     * Replays the whole trace immediately, one shard per simulated CPU
     * on support::executor(). @param kernel may be null only if the
     * trace contains no kernel events.
     */
    ServiceModel(const trace::TraceBuffer& trace,
                 const core::Layout& app, const core::Layout* kernel,
                 const ServiceModelConfig& config);

    /**
     * Service time of every request, in cycles, in execution order
     * (tenant-interleaved when tenants > 1: request i belongs to
     * tenant i % tenants). Size = segments * tenants.
     */
    const std::vector<std::uint64_t>&
    requestCycles() const
    {
        return cycles_;
    }

    const ServiceStats& stats() const { return stats_; }

    /**
     * Transaction segments of a trace as [begin, end) event-index
     * ranges, split where TraceEvent::process changes. A trace with a
     * single process yields one segment (and the serving model
     * degenerates to one request — configure more processes). Panics
     * if a segment's events change CPU.
     */
    static std::vector<std::pair<std::size_t, std::size_t>>
    segments(const trace::TraceBuffer& trace);

  private:
    std::vector<std::uint64_t> cycles_;
    ServiceStats stats_;
};

} // namespace spikesim::serve

#endif // SPIKESIM_SERVE_SERVICE_HH
