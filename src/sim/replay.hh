#ifndef SPIKESIM_SIM_REPLAY_HH
#define SPIKESIM_SIM_REPLAY_HH

#include <cstddef>
#include <cstdint>

#include "core/layout.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/instrumented.hh"
#include "mem/streambuf.hh"
#include "mem/threec.hh"
#include "support/histogram.hh"
#include "trace/trace.hh"

/**
 * @file
 * Trace replay under a code layout: turns the recorded block trace into
 * fetch-address streams and feeds per-CPU cache simulators. This is the
 * paper's methodology — record the instruction trace once, then replay
 * it against many cache configurations and binaries (layouts).
 */

namespace spikesim::sim {

/** Which instruction streams to replay. */
enum class StreamFilter {
    AppOnly,
    KernelOnly,
    Combined,
};

/** Flag bits of a resolved ref (ResolvedTraceSoA::flags).
 *  kRefRunBreak marks refs where another image's block event took this
 *  CPU's fetch unit since the previous ref — a filtered-out kernel
 *  entry breaks a sequential run even when the addresses abut. */
inline constexpr std::uint8_t kRefRunBreak = 1;

/** A trace resolved through one layout pair into per-CPU columns;
 *  defined in sim/soa.hh. */
struct ResolvedTraceSoA;

/** App/kernel interference matrix (Figure 13). */
struct InterferenceMatrix
{
    /**
     * counts[m][v]: misses by stream m (0 = app, 1 = kernel) that
     * displaced a line owned by v (0 = app, 1 = kernel, 2 = cold fill).
     */
    std::uint64_t counts[2][3] = {{0, 0, 0}, {0, 0, 0}};

    std::uint64_t
    missesBy(int m) const
    {
        return counts[m][0] + counts[m][1] + counts[m][2];
    }
};

/** Result of a line-granular instruction cache replay. */
struct ICacheReplayResult
{
    std::uint64_t accesses = 0; ///< line fetches
    std::uint64_t misses = 0;
    std::uint64_t app_misses = 0;
    std::uint64_t kernel_misses = 0;
    InterferenceMatrix interference;
};

/** Result of a word-granular instrumented replay (Figures 9-11). */
struct WordStats
{
    support::Histogram words_used;
    support::Histogram word_reuse;
    support::Log2Histogram lifetimes;
    double unused_word_fraction = 0.0;
    std::uint64_t misses = 0;

    WordStats() : words_used(65), word_reuse(16), lifetimes(32) {}
};

/**
 * Geometry of a standalone iTLB replay (the TLB rows of Figure 14
 * without simulating the caches around it). One TLB access is made per
 * fetched line of `fetch_bytes`, matching how MemoryHierarchy consults
 * its iTLB once per L1I line fetch — with fetch_bytes equal to the
 * hierarchy's L1I line size the miss counts coincide.
 */
struct ITlbSpec
{
    std::uint32_t entries = 64;
    std::uint32_t page_bytes = 8 * 1024;
    std::uint32_t fetch_bytes = 64;
};

/**
 * Result of a standalone iTLB replay (summed over per-CPU TLBs):
 * accesses are line-granular TLB lookups. The shared access/miss shape
 * directly — an iTLB has no refinement beyond hit or miss.
 */
using ITlbReplayResult = support::AccessStats;

/** Full-hierarchy replay result (Figures 14-15). */
struct HierarchyReplayResult
{
    mem::HierarchyStats total;
    std::uint64_t instrs = 0; ///< dynamic instructions replayed
    /** Fetch discontinuities (taken control transfers): each costs a
     *  fetch bubble on an in-order front end. */
    std::uint64_t fetch_breaks = 0;
};

/** Replays one recorded trace under layouts and cache configs. */
class Replayer
{
  public:
    /**
     * @param trace recorded block/data events.
     * @param app_layout layout of the application image.
     * @param kernel_layout layout of the kernel image (may be null when
     *        only the application stream will be replayed).
     */
    Replayer(const trace::TraceBuffer& trace,
             const core::Layout& app_layout,
             const core::Layout* kernel_layout = nullptr);

    /** The replayer stores references; temporaries would dangle. */
    Replayer(const trace::TraceBuffer&, core::Layout&&,
             const core::Layout* = nullptr) = delete;
    Replayer(trace::TraceBuffer&&, const core::Layout&,
             const core::Layout* = nullptr) = delete;

    /** Number of CPUs observed in the trace. */
    int numCpus() const { return num_cpus_; }

    const trace::TraceBuffer& trace() const { return trace_; }
    const core::Layout& app() const { return app_; }
    /** May be null (application-only replays). */
    const core::Layout* kernel() const { return kernel_; }

    /** Line-granular replay against per-CPU instruction caches. */
    ICacheReplayResult icache(const mem::CacheConfig& config,
                              StreamFilter filter) const;

    /**
     * Resolve the filtered trace through the layouts once, into the
     * per-CPU columns every sim::replay* family consumes (see
     * ResolvedTraceSoA). Zero-sized blocks are dropped from the refs
     * but still counted in instr_events/instrs; data events are
     * dropped. Every column is sized exactly from a counting pass (no
     * growth reallocation). Both passes run chunk-parallel on
     * support::executor(), inside a "replay.resolve" trace span; the output does not depend on the
     * chunk count (see detail::resolveSoA). The per-config walks above
     * and below read the raw trace and are the differential oracles of
     * every replay over these columns. Panics with "block id out of
     * range" before writing any column if an event names a block the
     * layout does not have.
     */
    ResolvedTraceSoA resolveSoA(StreamFilter filter) const;

    /** Word-granular instrumented replay (histograms merged over
     *  CPUs). */
    WordStats instrumented(const mem::CacheConfig& config,
                           StreamFilter filter,
                           bool flush_at_end = false) const;

    /** Replay against per-CPU stream-buffered instruction caches. */
    mem::StreamBufferStats streamBuffer(const mem::CacheConfig& config,
                                        int num_buffers,
                                        StreamFilter filter) const;

    /** Replay with three-C (compulsory/capacity/conflict) miss
     *  classification, merged over CPUs. */
    mem::ThreeCStats threeCs(const mem::CacheConfig& config,
                             StreamFilter filter) const;

    /** Standalone iTLB replay against per-CPU TLBs (line-granular
     *  lookups at spec.fetch_bytes). */
    ITlbReplayResult itlb(const ITlbSpec& spec,
                          StreamFilter filter) const;

    /**
     * Full hierarchy replay: instruction lines + data lines through
     * L1s and the unified L2 (always the combined stream). With
     * `include_data` and `model_coherence` set, comm_misses counts
     * the trace's communication misses at the L1D line size (see
     * commMisses). The differential oracle of the per-CPU walk in
     * serve::ServiceModel, which prices every production hierarchy
     * column.
     */
    HierarchyReplayResult hierarchy(const mem::HierarchyConfig& config,
                                    bool include_data = true,
                                    bool model_coherence = false) const;

    /** Dynamic instructions in the trace for the given filter (under
     *  the replayer's layouts, including materialized branches). */
    std::uint64_t dynamicInstrs(StreamFilter filter) const;

  private:
    const trace::TraceBuffer& trace_;
    const core::Layout& app_;
    const core::Layout* kernel_;
    int num_cpus_ = 1;
};

/**
 * Communication misses of a multiprocessor trace: one pass over its
 * data events in global trace order, tracking the last CPU to touch
 * each `line_bytes` line; a touch by another CPU is a miss (TPC-B's
 * hot branch/teller rows migrate between processors) -- the effect
 * that dilutes layout gains on multiprocessors in the paper's section
 * 5. Independent of every cache and of the code layout, and the one
 * hierarchy quantity that depends on the cross-CPU interleaving of
 * events, so it is counted here rather than in a per-CPU walk.
 */
std::uint64_t commMisses(const trace::TraceBuffer& trace,
                         std::uint32_t line_bytes);

namespace detail {

/**
 * Replayer::resolveSoA with an explicit chunk count (test seam): the
 * event stream is cut into `chunks` contiguous ranges that are counted
 * and filled concurrently. The output is identical for every chunk
 * count >= 1; Replayer::resolveSoA picks one from the trace length and
 * the executor's width.
 */
ResolvedTraceSoA resolveSoA(const Replayer& rep, StreamFilter filter,
                            std::size_t chunks);

} // namespace detail

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_REPLAY_HH
