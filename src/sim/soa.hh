#ifndef SPIKESIM_SIM_SOA_HH
#define SPIKESIM_SIM_SOA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/replay.hh"

/**
 * @file
 * The resolved trace: the recorded block trace pushed through one
 * (app, kernel) layout pair, partitioned by CPU, with addr/bytes/
 * owner/flags stored as separate contiguous columns. Every cache
 * simulator's state is per-CPU, so a replay of one CPU's slice on its
 * own thread is bit-identical to the interleaved scalar walk — the
 * parallel replay engine (sim/engine.hh) rests on exactly this. The
 * replay hot loops consume one or two of the four fields per family
 * (the i-cache kernels read addr and bytes and only branch on owner),
 * so packed columns keep the loads dense, let the hardware prefetcher
 * see plain unit-stride streams, and give the SIMD kernels
 * (sim/kernels.hh) contiguous lanes to load from.
 * tests/replay_parallel_test.cc fuzzes every replay over these columns
 * against the scalar Replayer oracles, which walk the raw trace.
 */

namespace spikesim::sim {

namespace detail {
/** madvise(MADV_HUGEPAGE) where available; no-op elsewhere. */
void adviseHugePages(void* p, std::size_t bytes) noexcept;
} // namespace detail

/**
 * Allocator that default-initializes on vector::resize, leaving
 * trivial element types uninitialized. The resolve paths size each
 * column exactly from the ref counts and then write every slot, so
 * plain std::vector's value-init would memset 100+ MB of fresh pages
 * only for the fill pass to touch them all a second time — on this
 * class of trace that is a full third of the resolve phase.
 *
 * Columns of 2 MB and up are additionally allocated 2 MB-aligned and
 * advised MADV_HUGEPAGE: a 10M-ref trace needs ~35k 4 KB pages per
 * resolve, and both the first-touch fill and every subsequent kernel
 * stream over the columns pay the fault/TLB cost. With huge pages the
 * same trace is ~70 mappings. A no-op where THP or madvise is absent.
 */
template <class T>
struct ColumnAlloc : std::allocator<T>
{
    static constexpr std::size_t kHugeBytes = 2ull << 20;

    template <class U>
    struct rebind
    {
        using other = ColumnAlloc<U>;
    };

    T*
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugeBytes)
            return std::allocator<T>::allocate(n);
        void* p = ::operator new(bytes, std::align_val_t(kHugeBytes));
        detail::adviseHugePages(p, bytes);
        return static_cast<T*>(p);
    }

    void
    deallocate(T* p, std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugeBytes) {
            std::allocator<T>::deallocate(p, n);
            return;
        }
        ::operator delete(static_cast<void*>(p),
                          std::align_val_t(kHugeBytes));
    }

    template <class U>
    void
    construct(U* p) noexcept
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void
    construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/** One resolved-trace column (uninitialized-resize vector). */
template <class T>
using Column = std::vector<T, ColumnAlloc<T>>;

/**
 * A trace resolved through one layout pair (Replayer::resolveSoA). The
 * instruction count of a block ref is bytes / program::kInstrBytes
 * (layouts place blocks at blockSize * kInstrBytes bytes, so the two
 * are locked together). Only instruction refs are resolved: the data
 * stream feeds the hierarchy walk alone (serve::ServiceModel), which
 * reads the raw trace.
 */
struct ResolvedTraceSoA
{
    Column<std::uint64_t> addr;
    Column<std::uint32_t> bytes;
    Column<std::uint8_t> owner; ///< mem::Owner as raw uint8
    Column<std::uint8_t> flags; ///< kRefRunBreak etc.
    /** Partition offsets: CPU c owns [cpu_begin[c], cpu_begin[c+1]),
     *  in trace order within the slice. */
    std::vector<std::size_t> cpu_begin;
    int num_cpus = 1;
    /** Filtered block events, including zero-sized blocks. */
    std::uint64_t instr_events = 0;
    /** Dynamic instructions: sum of block sizes over filtered events
     *  (what Replayer::dynamicInstrs walks the raw trace for). */
    std::uint64_t instrs = 0;

    std::size_t size() const { return addr.size(); }

    /** [begin, end) column index range owned by `cpu`. */
    std::pair<std::size_t, std::size_t>
    cpuRange(int cpu) const
    {
        if (cpu < 0 || cpu + 1 >= static_cast<int>(cpu_begin.size()))
            return {0, 0};
        return {cpu_begin[static_cast<std::size_t>(cpu)],
                cpu_begin[static_cast<std::size_t>(cpu) + 1]};
    }
};

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SOA_HH
