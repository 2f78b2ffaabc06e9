#include "opt/exttsp.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "support/panic.hh"

namespace spikesim::opt {

using program::BasicBlock;
using program::BlockLocalId;
using program::EdgeKind;
using program::FlowEdge;
using program::GlobalBlockId;
using program::kInstrBytes;
using program::kInvalidId;
using program::ProcId;
using program::Procedure;
using program::Terminator;

double
extTspEdgeScore(std::uint64_t src_end, std::uint64_t dst_addr,
                std::uint64_t count, const ExtTspParams& params)
{
    if (count == 0)
        return 0.0;
    const double w = static_cast<double>(count);
    double k = 0.0;
    if (dst_addr == src_end) {
        k = params.fallthrough_weight;
    } else if (dst_addr > src_end) {
        const std::uint64_t d = dst_addr - src_end;
        if (d < params.forward_window_bytes)
            k = params.forward_weight *
                (1.0 - static_cast<double>(d) /
                           static_cast<double>(params.forward_window_bytes));
    } else {
        const std::uint64_t d = src_end - dst_addr;
        if (d < params.backward_window_bytes)
            k = params.backward_weight *
                (1.0 -
                 static_cast<double>(d) /
                     static_cast<double>(params.backward_window_bytes));
    }
    // Co-residency: the next sequential byte and the target byte share
    // one i-cache line, so taking this transfer cannot fetch a new line.
    if (params.coline_weight > 0.0 &&
        src_end / params.line_bytes == dst_addr / params.line_bytes)
        k += params.coline_weight;
    // Distance-bucketed gap penalty: the decay windows above are blind
    // past ~1KB, so long transfers are charged by the power-of-two
    // bucket their gap lands in, saturating at huge-page scale.
    if (params.gap_weight > 0.0) {
        const std::uint64_t d =
            dst_addr > src_end ? dst_addr - src_end : src_end - dst_addr;
        if (d >= params.gap_start_bytes) {
            const int bucket = std::min<int>(
                std::bit_width(d / params.gap_start_bytes), 12);
            k -= params.gap_weight * (static_cast<double>(bucket) / 12.0);
        }
    }
    // Page co-residency: a transfer inside one 4KB page can never take
    // a base-page iTLB miss; inside one 2MB region it stays within a
    // single huge-page mapping.
    if (params.page4k_weight > 0.0 &&
        src_end / params.page4k_bytes == dst_addr / params.page4k_bytes)
        k += params.page4k_weight;
    if (params.page2m_weight > 0.0 &&
        src_end / params.page2m_bytes == dst_addr / params.page2m_bytes)
        k += params.page2m_weight;
    // iTLB proxy: executions crossing a page boundary are charged.
    if (params.itlb_weight > 0.0 &&
        src_end / params.itlb_page_bytes != dst_addr / params.itlb_page_bytes)
        k -= params.itlb_weight;
    return w * k;
}

namespace {

/**
 * Layout-adjusted sizes for one procedure laid out alone in `order`
 * (the same trailing-branch rules as core::Layout pass 1, but local:
 * every block's neighbour is the next order entry, packed tight).
 */
std::vector<std::uint32_t>
localAdjustedSizes(const Procedure& proc,
                   const std::vector<BlockLocalId>& order)
{
    const std::size_t n = proc.blocks.size();
    // Successor summary per local block.
    std::vector<BlockLocalId> fall(n, kInvalidId), taken(n, kInvalidId),
        uncond(n, kInvalidId);
    for (const FlowEdge& e : proc.edges) {
        switch (e.kind) {
          case EdgeKind::FallThrough: fall[e.from] = e.to; break;
          case EdgeKind::CondTaken: taken[e.from] = e.to; break;
          case EdgeKind::UncondTarget: uncond[e.from] = e.to; break;
          case EdgeKind::IndirectTarget: break;
        }
    }
    std::vector<std::uint32_t> size(n, 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const BlockLocalId b = order[i];
        const BasicBlock& blk = proc.blocks[b];
        const BlockLocalId next =
            i + 1 < order.size() ? order[i + 1] : kInvalidId;
        std::uint32_t sz = blk.sizeInstrs;
        switch (blk.term) {
          case Terminator::FallThrough:
          case Terminator::Call:
            if (fall[b] != next)
                ++sz;
            break;
          case Terminator::CondBranch:
            if (fall[b] != next && taken[b] != next)
                ++sz;
            break;
          case Terminator::UncondBranch:
            if (uncond[b] == next)
                --sz;
            break;
          case Terminator::IndirectJump:
          case Terminator::Return:
            break;
        }
        size[b] = sz;
    }
    return size;
}

} // namespace

ExtTspEdges::ExtTspEdges(const program::Program& prog,
                         const profile::Profile& profile)
{
    for (ProcId p = 0; p < prog.numProcs(); ++p) {
        const Procedure& proc = prog.proc(p);
        for (const FlowEdge& e : proc.edges) {
            const GlobalBlockId from = prog.globalBlockId(p, e.from);
            const GlobalBlockId to = prog.globalBlockId(p, e.to);
            const std::uint64_t w = profile.edgeCount(from, to);
            if (w != 0)
                edges.push_back({from, to, w});
        }
    }
    num_flow = edges.size();
    // profile.calls() iterates a hash map; sort into a canonical order.
    auto calls = profile.calls();
    std::sort(calls.begin(), calls.end());
    for (const auto& [caller_block, callee, w] : calls)
        edges.push_back({caller_block, prog.globalBlockId(callee, 0), w});
}

namespace {

/** The table prefix a layout score sums over. */
std::span<const ExtTspEdges::Edge>
scoredEdges(const ExtTspEdges& edges, const ExtTspParams& params)
{
    return std::span<const ExtTspEdges::Edge>(edges.edges)
        .first(params.include_calls ? edges.edges.size()
                                    : edges.num_flow);
}

} // namespace

double
extTspScore(const core::Layout& layout, const ExtTspEdges& edges,
            const ExtTspParams& params)
{
    double total = 0.0;
    for (const ExtTspEdges::Edge& e : scoredEdges(edges, params))
        total += extTspEdgeScore(layout.blockAddr(e.src) +
                                     layout.blockBytes(e.src),
                                 layout.blockAddr(e.dst), e.count,
                                 params);
    return total;
}

double
extTspScore(const core::Layout& layout, const profile::Profile& profile,
            const ExtTspParams& params)
{
    return extTspScore(layout, ExtTspEdges(layout.prog(), profile),
                       params);
}

double
extTspITlbCost(const core::Layout& layout, const ExtTspEdges& edges,
               const ExtTspParams& params)
{
    const std::uint64_t page = params.itlb_page_bytes;
    std::uint64_t total = 0;
    for (const ExtTspEdges::Edge& e : scoredEdges(edges, params)) {
        const std::uint64_t src_end =
            layout.blockAddr(e.src) + layout.blockBytes(e.src);
        if (src_end / page != layout.blockAddr(e.dst) / page)
            total += e.count;
    }
    return static_cast<double>(total);
}

double
extTspITlbCost(const core::Layout& layout,
               const profile::Profile& profile,
               const ExtTspParams& params)
{
    return extTspITlbCost(layout, ExtTspEdges(layout.prog(), profile),
                          params);
}

double
extTspOrderScore(const program::Program& prog, ProcId proc,
                 const profile::Profile& profile,
                 const std::vector<BlockLocalId>& order,
                 const ExtTspParams& params)
{
    const Procedure& p = prog.proc(proc);
    SPIKESIM_ASSERT(order.size() == p.blocks.size(),
                    "order must cover the procedure");
    const std::vector<std::uint32_t> size = localAdjustedSizes(p, order);
    std::vector<std::uint64_t> addr(p.blocks.size(), 0);
    std::uint64_t cur = 0;
    for (BlockLocalId b : order) {
        addr[b] = cur;
        cur += static_cast<std::uint64_t>(size[b]) * kInstrBytes;
    }
    double total = 0.0;
    for (const FlowEdge& e : p.edges) {
        const std::uint64_t w =
            profile.edgeCount(prog.globalBlockId(proc, e.from),
                              prog.globalBlockId(proc, e.to));
        if (w == 0)
            continue;
        total += extTspEdgeScore(
            addr[e.from] +
                static_cast<std::uint64_t>(size[e.from]) * kInstrBytes,
            addr[e.to], w, params);
    }
    return total;
}

ExhaustiveBest
bestOrderExhaustive(const program::Program& prog, ProcId proc,
                    const profile::Profile& profile,
                    const ExtTspParams& params)
{
    const Procedure& p = prog.proc(proc);
    const std::size_t n = p.blocks.size();
    SPIKESIM_ASSERT(n >= 1 && n <= 9,
                    "exhaustive oracle is for tiny CFGs (<= 9 blocks), "
                    "got " << n);
    // Entry stays first: no layout pipeline ever moves a procedure's
    // entry block, so the oracle searches the same space.
    std::vector<BlockLocalId> rest;
    for (BlockLocalId b = 1; b < n; ++b)
        rest.push_back(b);

    ExhaustiveBest best;
    std::vector<BlockLocalId> order(n);
    order[0] = 0;
    do {
        std::copy(rest.begin(), rest.end(), order.begin() + 1);
        const double s = extTspOrderScore(prog, proc, profile, order,
                                          params);
        ++best.permutations;
        if (best.order.empty() || s > best.score) {
            best.score = s;
            best.order = order;
        }
    } while (std::next_permutation(rest.begin(), rest.end()));
    return best;
}

} // namespace spikesim::opt
