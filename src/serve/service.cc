#include "serve/service.hh"

#include <algorithm>
#include <span>

#include "serve/queueing.hh"
#include "support/panic.hh"
#include "support/threadpool.hh"

namespace spikesim::serve {

namespace {

/** Tenant address-space salt: page-granular, far above every text base
 *  and data region, so tenants collide in the shared L2/iTLB only the
 *  way distinct address spaces do (different pages, same capacity). */
constexpr std::uint64_t kTenantSaltShift = 44;

const core::Layout&
layoutFor(trace::ImageId image, const core::Layout& app,
          const core::Layout* kernel)
{
    if (image == trace::ImageId::App)
        return app;
    SPIKESIM_ASSERT(kernel != nullptr,
                    "service model needs a kernel layout for kernel "
                    "events");
    return *kernel;
}

/**
 * Append the start index of every segment beginning in events
 * [begin, end): index 0 and each index whose process differs from the
 * previous event's. Panics where a segment changes CPU, since the
 * per-CPU sharded walk needs every segment on one CPU.
 */
void
segmentStarts(std::span<const trace::TraceEvent> events, std::size_t begin,
              std::size_t end, std::vector<std::size_t>& out)
{
    for (std::size_t i = begin; i < end; ++i) {
        if (i == 0 || events[i].process != events[i - 1].process) {
            out.push_back(i);
            continue;
        }
        SPIKESIM_ASSERT(events[i].cpu == events[i - 1].cpu,
                        "segment spans CPUs: process "
                            << events[i].process << " moves from CPU "
                            << static_cast<int>(events[i - 1].cpu)
                            << " to CPU "
                            << static_cast<int>(events[i].cpu)
                            << " at event " << i);
    }
}

/** One simulated CPU's share of the walk counters. Shards run on
 *  different host threads; the alignment keeps each shard's counters
 *  on cache lines of its own. */
struct alignas(64) CpuShard
{
    mem::HierarchyStats mem;
    std::uint64_t instrs = 0;
    std::uint64_t fetch_breaks = 0;
};

/**
 * Replay every segment that runs on `cpu`, in global (segment, tenant)
 * order, through that CPU's private structures: L1 I/D per tenant, and
 * the L2 + iTLB its tenants share. Writes each request's cycles to
 * cycles[segment * tenants + tenant]. @param starts segment start
 * indices followed by events.size().
 */
void
walkCpu(std::uint8_t cpu, std::span<const trace::TraceEvent> events,
        std::span<const std::size_t> starts, const core::Layout& app,
        const core::Layout* kernel, const ServiceModelConfig& config,
        std::span<std::uint64_t> cycles, CpuShard& out)
{
    const sim::PlatformParams& p = config.platform;
    const mem::HierarchyConfig& h = p.hierarchy;
    const std::size_t tenants = static_cast<std::size_t>(config.tenants);

    std::vector<mem::SetAssocCache> l1i;
    std::vector<mem::SetAssocCache> l1d;
    l1i.reserve(tenants);
    l1d.reserve(tenants);
    for (std::size_t t = 0; t < tenants; ++t) {
        l1i.emplace_back(h.l1i);
        l1d.emplace_back(h.l1d);
    }
    mem::SetAssocCache l2(h.l2);
    mem::ITlb itlb(h.itlb_entries, h.page_bytes);
    std::vector<std::uint64_t> expected(tenants, ~0ULL);
    CpuShard acc;

    const std::uint64_t iline = h.l1i.line_bytes;
    const std::uint64_t dline = h.l1d.line_bytes;
    for (std::size_t s = 0; s + 1 < starts.size(); ++s) {
        const std::size_t seg_begin = starts[s];
        const std::size_t seg_end = starts[s + 1];
        if (events[seg_begin].cpu != cpu)
            continue;
        // Tenants execute the trace interleaved one transaction at a
        // time: request g is tenant g % tenants running segment
        // g / tenants.
        for (std::size_t t = 0; t < tenants; ++t) {
            const std::uint64_t salt = static_cast<std::uint64_t>(t)
                                       << kTenantSaltShift;
            double c = 0.0;
            for (std::size_t i = seg_begin; i < seg_end; ++i) {
                const trace::TraceEvent& e = events[i];
                if (e.image == trace::ImageId::Data) {
                    if (!config.include_data)
                        continue;
                    const std::uint64_t line =
                        (static_cast<std::uint64_t>(e.block) << 2) &
                        ~(dline - 1);
                    if (l1d[t].access(line, mem::Owner::Data).hit) {
                        acc.mem.l1d.record(false);
                        continue;
                    }
                    acc.mem.l1d.record(true);
                    c += p.l2_hit_cycles;
                    const bool miss =
                        !l2.access(mem::pseudoPhysical(line + salt,
                                                       h.page_bytes),
                                   mem::Owner::Data)
                             .hit;
                    acc.mem.l2d.record(miss);
                    if (miss)
                        c += p.mem_cycles;
                    continue;
                }
                const core::Layout& layout =
                    layoutFor(e.image, app, kernel);
                const std::uint64_t bytes = layout.blockBytes(e.block);
                if (bytes == 0)
                    continue;
                const std::uint64_t addr = layout.blockAddr(e.block);
                const std::uint64_t end = addr + bytes;
                const std::uint64_t instrs = layout.blockSize(e.block);
                acc.instrs += instrs;
                c += static_cast<double>(instrs) * p.cpi_base;
                if (addr != expected[t]) {
                    ++acc.fetch_breaks;
                    c += p.fetch_break_cycles;
                }
                expected[t] = end;
                const mem::Owner owner = e.image == trace::ImageId::App
                                             ? mem::Owner::App
                                             : mem::Owner::Kernel;
                for (std::uint64_t a = addr & ~(iline - 1); a < end;
                     a += iline) {
                    if (!itlb.access(a + salt)) {
                        ++acc.mem.itlb_misses;
                        c += p.itlb_cycles;
                    }
                    if (l1i[t].access(a, owner).hit) {
                        acc.mem.l1i.record(false);
                        continue;
                    }
                    acc.mem.l1i.record(true);
                    c += p.l2_hit_cycles;
                    const bool miss =
                        !l2.access(mem::pseudoPhysical(a + salt,
                                                       h.page_bytes),
                                   owner)
                             .hit;
                    acc.mem.l2i.record(miss);
                    if (miss)
                        c += p.mem_cycles;
                }
            }
            cycles[s * tenants + t] = static_cast<std::uint64_t>(c);
        }
    }
    out = acc;
}

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
ServiceModel::segments(const trace::TraceBuffer& trace)
{
    const std::span<const trace::TraceEvent> events = trace.events();
    std::vector<std::size_t> starts;
    segmentStarts(events, 0, events.size(), starts);
    std::vector<std::pair<std::size_t, std::size_t>> segs;
    segs.reserve(starts.size());
    for (std::size_t s = 0; s < starts.size(); ++s)
        segs.emplace_back(starts[s], s + 1 < starts.size()
                                         ? starts[s + 1]
                                         : events.size());
    return segs;
}

ServiceModel::ServiceModel(const trace::TraceBuffer& trace,
                           const core::Layout& app,
                           const core::Layout* kernel,
                           const ServiceModelConfig& config, int workers)
{
    SPIKESIM_ASSERT(config.tenants >= 1, "tenants must be >= 1");
    const std::span<const trace::TraceEvent> events = trace.events();
    const std::size_t ncpus = static_cast<std::size_t>(trace.numCpus());
    const std::size_t tenants =
        static_cast<std::size_t>(config.tenants);

    // Segment starts, found over one contiguous event chunk per shard
    // and concatenated in chunk order.
    std::vector<std::vector<std::size_t>> chunk_starts(ncpus);
    support::ThreadPool::forEachShard(
        ncpus,
        [&](std::size_t k) {
            segmentStarts(events, events.size() * k / ncpus,
                          events.size() * (k + 1) / ncpus,
                          chunk_starts[k]);
        },
        workers);
    std::vector<std::size_t> starts;
    for (const std::vector<std::size_t>& cs : chunk_starts)
        starts.insert(starts.end(), cs.begin(), cs.end());
    const std::size_t nseg = starts.size();
    starts.push_back(events.size());

    // One shard per simulated CPU; each writes only its own requests'
    // slots and its own counters, merged below in CPU order.
    cycles_.assign(nseg * tenants, 0);
    std::vector<CpuShard> shards(ncpus);
    support::ThreadPool::forEachShard(
        ncpus,
        [&](std::size_t cpu) {
            walkCpu(static_cast<std::uint8_t>(cpu), events, starts, app,
                    kernel, config, cycles_, shards[cpu]);
        },
        workers);
    for (const CpuShard& sh : shards) {
        stats_.mem += sh.mem;
        stats_.instrs += sh.instrs;
        stats_.fetch_breaks += sh.fetch_breaks;
    }

    stats_.requests = cycles_.size();
    if (!cycles_.empty()) {
        std::vector<std::uint64_t> sorted = cycles_;
        std::sort(sorted.begin(), sorted.end());
        stats_.min_cycles = sorted.front();
        stats_.max_cycles = sorted.back();
        for (std::uint64_t v : sorted)
            stats_.total_cycles += v;
        stats_.mean_cycles = static_cast<double>(stats_.total_cycles) /
                             static_cast<double>(sorted.size());
        stats_.p50_cycles = percentileSorted(sorted, 0.50);
        stats_.p99_cycles = percentileSorted(sorted, 0.99);
    }
}

namespace detail {

ServiceModel
serviceModel(const trace::TraceBuffer& trace, const core::Layout& app,
             const core::Layout* kernel, const ServiceModelConfig& config,
             int workers)
{
    return ServiceModel(trace, app, kernel, config, workers);
}

} // namespace detail

} // namespace spikesim::serve
