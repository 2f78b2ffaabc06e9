#include "sim/replay.hh"

#include <algorithm>
#include <unordered_map>

#include "obs/tracing.hh"
#include "sim/soa.hh"
#include "support/panic.hh"
#include "support/threadpool.hh"

namespace spikesim::sim {

using trace::ImageId;
using trace::TraceEvent;

namespace {

bool
wantImage(StreamFilter filter, ImageId image)
{
    switch (filter) {
      case StreamFilter::AppOnly:
        return image == ImageId::App;
      case StreamFilter::KernelOnly:
        return image == ImageId::Kernel;
      case StreamFilter::Combined:
        return image == ImageId::App || image == ImageId::Kernel;
    }
    return false;
}

mem::Owner
ownerOf(ImageId image)
{
    return image == ImageId::App ? mem::Owner::App : mem::Owner::Kernel;
}

} // namespace

Replayer::Replayer(const trace::TraceBuffer& trace,
                   const core::Layout& app_layout,
                   const core::Layout* kernel_layout)
    : trace_(trace), app_(app_layout), kernel_(kernel_layout),
      num_cpus_(trace.numCpus())
{
}

namespace {

/** Kernel events may only be replayed when a kernel layout exists. */
const core::Layout&
layoutFor(ImageId image, const core::Layout& app,
          const core::Layout* kernel)
{
    if (image == ImageId::App)
        return app;
    SPIKESIM_ASSERT(kernel != nullptr,
                    "replaying kernel events requires a kernel layout");
    return *kernel;
}

} // namespace

ICacheReplayResult
Replayer::icache(const mem::CacheConfig& config, StreamFilter filter) const
{
    ICacheReplayResult result;
    std::vector<mem::SetAssocCache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::Owner owner = ownerOf(e.image);
        int m = owner == mem::Owner::App ? 0 : 1;
        mem::SetAssocCache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line) {
            ++result.accesses;
            mem::AccessResult r = cache.access(a, owner);
            if (!r.hit) {
                ++result.misses;
                if (owner == mem::Owner::App)
                    ++result.app_misses;
                else
                    ++result.kernel_misses;
                int v = r.victim == mem::Owner::App      ? 0
                        : r.victim == mem::Owner::Kernel ? 1
                                                         : 2;
                ++result.interference.counts[m][v];
            }
        }
    }
    return result;
}

namespace {

/** Events below which a resolve runs as one chunk: a chunk costs a
 *  small per-(chunk, CPU) prefix step and a pool task. */
constexpr std::size_t kMinChunkEvents = 1u << 16;
/** Chunks per worker, so a worker slowed by a noisy neighbour does not
 *  hold up the whole pass. */
constexpr std::size_t kChunksPerWorker = 4;

/** What a chunk leaves in one CPU's pending run-break slot. */
enum class BreakState : std::uint8_t {
    None,    ///< no block event of this CPU touched it
    Set,     ///< last was a filtered-out block event
    Cleared, ///< last was an emitted block ref
};

/** Block size and address by global block id for one image, copied out
 *  of the layout so the passes index flat arrays instead of calling
 *  the layout's checked accessors per event. */
struct ImageTable
{
    std::vector<std::uint32_t> size;
    std::vector<std::uint64_t> addr;
    bool present = false;

    explicit ImageTable(const core::Layout* layout)
    {
        if (layout == nullptr)
            return;
        present = true;
        const std::uint32_t n = layout->prog().numBlocks();
        size.resize(n);
        addr.resize(n);
        for (std::uint32_t g = 0; g < n; ++g) {
            size[g] = layout->blockSize(g);
            addr[g] = layout->blockAddr(g);
        }
    }
};

/** Pass-1 product of one chunk. Per-CPU values are indexed by CPU. */
struct ChunkCounts
{
    std::vector<std::size_t> refs;
    std::vector<BreakState> brk;
    std::uint64_t instr_events = 0;
    std::uint64_t instrs = 0;
};

} // namespace

ResolvedTraceSoA
Replayer::resolveSoA(StreamFilter filter) const
{
    obs::Span span("replay.resolve", "sim");
    const std::size_t workers =
        static_cast<std::size_t>(support::executor().numThreads());
    const std::size_t chunks = std::clamp<std::size_t>(
        trace_.size() / kMinChunkEvents, 1, workers * kChunksPerWorker);
    return detail::resolveSoA(*this, filter, chunks);
}

/**
 * Two passes over `chunks` contiguous event ranges, each pass sharded
 * across support::executor(). Pass 1 counts, per (chunk, CPU), the refs a
 * chunk emits and the run-break state it leaves, plus the chunk's
 * instruction totals. An exclusive prefix over the chunks (in trace
 * order) then gives every chunk its write cursor in each CPU slice and
 * the kRefRunBreak it inherits on each CPU. Pass 2 writes every column
 * slot by index.
 * Each ref lands at the position and with the flag the serial
 * cursor walk would give it, so the output is independent of the chunk
 * count and of scheduling.
 */
ResolvedTraceSoA
detail::resolveSoA(const Replayer& rep, StreamFilter filter,
                   std::size_t chunks)
{
    SPIKESIM_ASSERT(chunks >= 1, "resolve needs at least one chunk");
    const std::vector<TraceEvent>& events = rep.trace().events();
    const std::size_t n_cpus = static_cast<std::size_t>(rep.numCpus());
    const ImageTable app(wantImage(filter, ImageId::App) ? &rep.app()
                                                         : nullptr);
    const ImageTable kernel(wantImage(filter, ImageId::Kernel)
                                ? rep.kernel()
                                : nullptr);
    const auto chunkBegin = [&](std::size_t k) {
        return events.size() * k / chunks;
    };
    support::ThreadPool& pool = support::executor();

    // Pass 1: count. Counters live in locals until the chunk ends, so
    // workers never write to neighbouring slots mid-walk.
    std::vector<ChunkCounts> counts(chunks);
    pool.forEach(chunks, [&](std::size_t k) {
        std::vector<std::size_t> refs(n_cpus, 0);
        std::vector<BreakState> brk(n_cpus, BreakState::None);
        std::uint64_t instr_events = 0;
        std::uint64_t instrs = 0;
        for (std::size_t i = chunkBegin(k); i < chunkBegin(k + 1); ++i) {
            const TraceEvent& e = events[i];
            if (e.image == ImageId::Data)
                continue;
            if (!wantImage(filter, e.image)) {
                brk[e.cpu] = BreakState::Set;
                continue;
            }
            const ImageTable& t = e.image == ImageId::App ? app : kernel;
            SPIKESIM_ASSERT(
                t.present,
                "replaying kernel events requires a kernel layout");
            SPIKESIM_ASSERT(e.block < t.size.size(),
                            "block id out of range");
            const std::uint32_t size = t.size[e.block];
            ++instr_events;
            instrs += size;
            if (size != 0) {
                ++refs[e.cpu];
                brk[e.cpu] = BreakState::Cleared;
            }
        }
        counts[k] = {std::move(refs), std::move(brk), instr_events, instrs};
    });

    // Exclusive prefix over chunks in trace order.
    ResolvedTraceSoA out;
    out.num_cpus = rep.numCpus();
    std::vector<std::size_t> cursor(chunks * n_cpus);
    std::vector<std::uint8_t> carry(chunks * n_cpus);
    std::vector<std::size_t> slice(n_cpus, 0);
    std::vector<std::uint8_t> pending(n_cpus, 0);
    for (std::size_t k = 0; k < chunks; ++k) {
        const ChunkCounts& cc = counts[k];
        for (std::size_t c = 0; c < n_cpus; ++c) {
            cursor[k * n_cpus + c] = slice[c];
            carry[k * n_cpus + c] = pending[c];
            slice[c] += cc.refs[c];
            if (cc.brk[c] == BreakState::Set)
                pending[c] = kRefRunBreak;
            else if (cc.brk[c] == BreakState::Cleared)
                pending[c] = 0;
        }
        out.instr_events += cc.instr_events;
        out.instrs += cc.instrs;
    }
    out.cpu_begin.assign(n_cpus + 1, 0);
    for (std::size_t c = 0; c < n_cpus; ++c)
        out.cpu_begin[c + 1] = out.cpu_begin[c] + slice[c];
    for (std::size_t k = 0; k < chunks; ++k)
        for (std::size_t c = 0; c < n_cpus; ++c)
            cursor[k * n_cpus + c] += out.cpu_begin[c];
    const std::size_t total = out.cpu_begin[n_cpus];
    out.addr.resize(total);
    out.bytes.resize(total);
    out.owner.resize(total);
    out.flags.resize(total);

    // Pass 2: fill. A per-CPU cursor walk in trace order, started from
    // the chunk's cursors and carried-in run breaks, writing ~14 bytes
    // per ref straight into the four column slices. A block event of a
    // filtered-out image marks a pending run break on its CPU (the
    // fetch unit was taken by the other stream); data events are
    // skipped and never break runs.
    pool.forEach(chunks, [&](std::size_t k) {
        std::vector<std::size_t> cur(cursor.begin() + k * n_cpus,
                                     cursor.begin() + (k + 1) * n_cpus);
        std::vector<std::uint8_t> brk(carry.begin() + k * n_cpus,
                                      carry.begin() + (k + 1) * n_cpus);
        for (std::size_t i = chunkBegin(k); i < chunkBegin(k + 1); ++i) {
            const TraceEvent& e = events[i];
            if (e.image == ImageId::Data)
                continue;
            if (!wantImage(filter, e.image)) {
                brk[e.cpu] = kRefRunBreak;
                continue;
            }
            const ImageTable& t = e.image == ImageId::App ? app : kernel;
            const std::uint32_t size = t.size[e.block];
            if (size == 0)
                continue;
            const std::size_t j = cur[e.cpu]++;
            out.addr[j] = t.addr[e.block];
            out.bytes[j] = size * program::kInstrBytes;
            out.owner[j] = static_cast<std::uint8_t>(ownerOf(e.image));
            out.flags[j] = brk[e.cpu];
            brk[e.cpu] = 0;
        }
    });
    return out;
}

WordStats
Replayer::instrumented(const mem::CacheConfig& config, StreamFilter filter,
                       bool flush_at_end) const
{
    std::vector<mem::InstrumentedICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint32_t words = layout.blockSize(e.block);
        std::uint64_t addr = layout.blockAddr(e.block);
        mem::Owner owner = ownerOf(e.image);
        mem::InstrumentedICache& cache = caches[e.cpu];
        for (std::uint32_t w = 0; w < words; ++w)
            cache.fetchWord(addr + w * 4ull, owner);
    }

    WordStats out;
    out.words_used = support::Histogram(config.line_bytes / 4 + 1);
    double fetched = 0.0;
    double unused = 0.0;
    for (auto& cache : caches) {
        if (flush_at_end)
            cache.flush();
        out.words_used.merge(cache.wordsUsed());
        out.word_reuse.merge(cache.wordReuse());
        out.lifetimes.merge(cache.lifetimes());
        out.misses += cache.misses();
        fetched += static_cast<double>(cache.wordReuse().totalSamples());
        unused += cache.unusedWordFraction() *
                  static_cast<double>(cache.wordReuse().totalSamples());
    }
    out.unused_word_fraction = fetched == 0.0 ? 0.0 : unused / fetched;
    return out;
}

mem::ThreeCStats
Replayer::threeCs(const mem::CacheConfig& config,
                  StreamFilter filter) const
{
    std::vector<mem::ClassifyingICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::ClassifyingICache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line)
            cache.access(a);
    }
    mem::ThreeCStats total;
    for (const auto& c : caches)
        total += c.stats();
    return total;
}

ITlbReplayResult
Replayer::itlb(const ITlbSpec& spec, StreamFilter filter) const
{
    std::vector<mem::ITlb> tlbs;
    tlbs.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        tlbs.emplace_back(spec.entries, spec.page_bytes);

    ITlbReplayResult result;
    const std::uint64_t line = spec.fetch_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::ITlb& tlb = tlbs[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line) {
            ++result.accesses;
            tlb.access(a);
        }
    }
    for (const mem::ITlb& t : tlbs)
        result.misses += t.misses();
    return result;
}

mem::StreamBufferStats
Replayer::streamBuffer(const mem::CacheConfig& config, int num_buffers,
                       StreamFilter filter) const
{
    std::vector<mem::StreamBufferICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config, num_buffers);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::StreamBufferICache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line)
            cache.fetchLine(a);
    }
    mem::StreamBufferStats total;
    for (const auto& c : caches)
        total += c.stats();
    return total;
}

HierarchyReplayResult
Replayer::hierarchy(const mem::HierarchyConfig& config,
                    bool include_data, bool model_coherence) const
{
    HierarchyReplayResult result;
    std::vector<mem::MemoryHierarchy> cpus;
    cpus.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        cpus.emplace_back(config);

    const std::uint64_t iline = config.l1i.line_bytes;
    const std::uint64_t dline = config.l1d.line_bytes;
    std::vector<std::uint64_t> expected(
        static_cast<std::size_t>(num_cpus_), ~0ULL);
    for (const TraceEvent& e : trace_.events()) {
        if (e.image == ImageId::Data) {
            if (include_data)
                cpus[e.cpu].dataLine(
                    (static_cast<std::uint64_t>(e.block) << 2) &
                    ~(dline - 1));
            continue;
        }
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        result.instrs += layout.blockSize(e.block);
        if (addr != expected[e.cpu])
            ++result.fetch_breaks;
        expected[e.cpu] = end;
        mem::Owner owner = ownerOf(e.image);
        mem::MemoryHierarchy& h = cpus[e.cpu];
        for (std::uint64_t a = addr & ~(iline - 1); a < end; a += iline)
            h.fetchLine(a, owner);
    }
    for (const mem::MemoryHierarchy& h : cpus)
        result.total += h.stats();
    if (include_data && model_coherence)
        result.total.comm_misses =
            commMisses(trace_, config.l1d.line_bytes);
    return result;
}

std::uint64_t
commMisses(const trace::TraceBuffer& trace, std::uint32_t line_bytes)
{
    // line -> last CPU that touched it.
    std::unordered_map<std::uint64_t, std::uint8_t> owner;
    std::uint64_t misses = 0;
    const std::uint64_t line = line_bytes;
    for (const TraceEvent& e : trace.events()) {
        if (e.image != ImageId::Data)
            continue;
        auto [it, fresh] = owner.try_emplace(
            (static_cast<std::uint64_t>(e.block) << 2) & ~(line - 1),
            e.cpu);
        if (!fresh && it->second != e.cpu) {
            // The line migrates: remote dirty copy.
            ++misses;
            it->second = e.cpu;
        }
    }
    return misses;
}

std::uint64_t
Replayer::dynamicInstrs(StreamFilter filter) const
{
    std::uint64_t total = 0;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        total += layout.blockSize(e.block);
    }
    return total;
}

} // namespace spikesim::sim
