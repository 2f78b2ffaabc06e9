/** @file Tests for the layout search engine (opt/search.hh). */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <ostream>
#include <vector>

#include "opt/perturb.hh"
#include "opt/search.hh"
#include "profile/profile.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "trace/trace.hh"

namespace spikesim::opt {
namespace {

/** Small app-image workload with a recorded trace (so the search's
 *  ground-truth re-rank path has something to replay). */
struct Workload
{
    synth::SyntheticProgram image;
    profile::Profile prof;
    trace::TraceBuffer buf;

    explicit Workload(std::uint64_t seed = 5)
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(seed))),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker w(image.prog, trace::ImageId::App, seed);
        trace::ExecContext ctx;
        for (int i = 0; i < 25; ++i) {
            w.run(image.entry("sys_read"), ctx, tee);
            w.run(image.entry("sched_switch"), ctx, tee);
        }
    }
};

Workload&
shared()
{
    static Workload w;
    return w;
}

SearchOptions
smallBudget(std::uint64_t seed)
{
    SearchOptions sopts;
    sopts.seed = seed;
    sopts.epochs = 6;
    sopts.batch = 8;
    sopts.rerank_every = 3;
    return sopts;
}

/** Per-block address map of a layout (the byte-identity witness). */
std::vector<std::uint64_t>
addressMap(const core::Layout& layout, const program::Program& prog)
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(prog.numBlocks());
    for (program::GlobalBlockId g = 0; g < prog.numBlocks(); ++g)
        addrs.push_back(layout.blockAddr(g));
    return addrs;
}

TEST(LayoutSearch, SameSeedIsByteIdenticalAcrossPoolWidths)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;

    support::ThreadPool pool(4);
    SearchResult serial = searchLayout(w.image.prog, w.prof, popts,
                                       smallBudget(42), &w.buf);
    SearchResult pooled = searchLayout(w.image.prog, w.prof, popts,
                                       smallBudget(42), &w.buf, nullptr,
                                       &pool);
    SearchResult again = searchLayout(w.image.prog, w.prof, popts,
                                      smallBudget(42), &w.buf, nullptr,
                                      &pool);

    EXPECT_EQ(fingerprint(candidateFromLayout(serial.layout)),
              fingerprint(candidateFromLayout(pooled.layout)));
    EXPECT_EQ(addressMap(serial.layout, w.image.prog),
              addressMap(pooled.layout, w.image.prog));
    EXPECT_EQ(addressMap(pooled.layout, w.image.prog),
              addressMap(again.layout, w.image.prog));
    // The whole audit trail is reproduced bit-exactly, not just the
    // winning layout.
    EXPECT_EQ(serial.best_score, pooled.best_score);
    EXPECT_EQ(serial.epoch_best, pooled.epoch_best);
    EXPECT_EQ(serial.best_misses, pooled.best_misses);
    EXPECT_EQ(serial.seed_misses, pooled.seed_misses);
}

/** Page-aware settings of the layout-search ablation (iTLB objective
 *  terms and page-aware proxy terms on). */
SearchOptions
pageBudget(std::uint64_t seed)
{
    SearchOptions sopts = smallBudget(seed);
    sopts.page.enabled = true;
    sopts.page.itlb4k_weight = 2.0;
    sopts.page.itlb2m_weight = 10.0;
    sopts.exttsp.gap_weight = 0.05;
    sopts.exttsp.page4k_weight = 0.02;
    sopts.exttsp.page2m_weight = 0.01;
    sopts.exttsp.itlb_weight = 0.05;
    return sopts;
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** Everything a search reports about its run, doubles as bit
 *  patterns, for exact comparison against recorded values. */
struct SearchPin
{
    std::uint64_t winner_fp = 0;
    std::uint64_t seed_misses = 0, seed_itlb4k = 0, seed_itlb2m = 0;
    std::uint64_t seed_objective = 0;
    std::uint64_t best_misses = 0, best_itlb4k = 0, best_itlb2m = 0;
    std::uint64_t best_objective = 0;
    /** (epoch, misses, itlb4k, objective bits) per re-rank point. */
    std::vector<std::array<std::uint64_t, 4>> rerank_curve;
    std::vector<std::uint64_t> epoch_best;
    std::uint64_t sim_evals = 0, sim_cache_hits = 0;
    /** Operators drawn: applied then no-op count per operator. */
    std::vector<std::uint64_t> perturb_ops;

    bool operator==(const SearchPin&) const = default;
};

SearchPin
pinOf(const SearchResult& r)
{
    SearchPin p;
    p.winner_fp = fingerprint(candidateFromLayout(r.layout));
    p.seed_misses = r.seed_misses;
    p.seed_itlb4k = r.seed_itlb4k;
    p.seed_itlb2m = r.seed_itlb2m;
    p.seed_objective = bits(r.seed_objective);
    p.best_misses = r.best_misses;
    p.best_itlb4k = r.best_itlb4k;
    p.best_itlb2m = r.best_itlb2m;
    p.best_objective = bits(r.best_objective);
    for (const SearchResult::RerankPoint& pt : r.rerank_curve)
        p.rerank_curve.push_back(
            {static_cast<std::uint64_t>(pt.epoch), pt.misses, pt.itlb4k,
             bits(pt.objective)});
    for (double d : r.epoch_best)
        p.epoch_best.push_back(bits(d));
    p.sim_evals = r.sim_evals;
    p.sim_cache_hits = r.sim_cache_hits;
    for (std::size_t op = 0; op < kNumPerturbOps; ++op)
        p.perturb_ops.insert(p.perturb_ops.end(),
                             {r.perturb_counts.applied[op],
                              r.perturb_counts.noop[op]});
    return p;
}

void
PrintTo(const SearchPin& p, std::ostream* os)
{
    *os << std::hex << "{0x" << p.winner_fp << std::dec << ", "
        << p.seed_misses << ", " << p.seed_itlb4k << ", " << p.seed_itlb2m
        << ", 0x" << std::hex << p.seed_objective << std::dec << ", "
        << p.best_misses << ", " << p.best_itlb4k << ", " << p.best_itlb2m
        << ", 0x" << std::hex << p.best_objective << std::dec << ",\n {";
    for (const auto& pt : p.rerank_curve)
        *os << "{" << pt[0] << ", " << pt[1] << ", " << pt[2] << ", 0x"
            << std::hex << pt[3] << std::dec << "}, ";
    *os << "},\n {";
    for (std::uint64_t b : p.epoch_best)
        *os << "0x" << std::hex << b << std::dec << ", ";
    *os << "},\n " << p.sim_evals << ", " << p.sim_cache_hits << ",\n {";
    for (std::uint64_t n : p.perturb_ops)
        *os << n << ", ";
    *os << "}}";
}

/**
 * The search's full audit trail on the recorded trace, flat and
 * page-aware, as recorded from the AoS-replay re-rank, the per-edge
 * profile-lookup proxy and serial candidate generation. Serial and at
 * every pool width, both modes must reproduce it bit for bit.
 */
TEST(LayoutSearch, PinnedResultsHoldAtEveryPoolWidth)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    const SearchPin flat = SearchPin{
        0x902c766e838cf27dULL, 377, 0, 0, 0x4077900000000000ULL, 375, 0,
        0, 0x4077700000000000ULL,
        {{3, 376, 0, 0x4077800000000000ULL},
         {6, 376, 0, 0x4077800000000000ULL},
         {9, 375, 0, 0x4077700000000000ULL},
         {12, 375, 0, 0x4077700000000000ULL}},
        {0x40d2ed128e147ac7ULL, 0x40d2ee75ea3d708aULL,
         0x40d2ee75ea3d708aULL, 0x40d2ee75ea3d708aULL,
         0x40d2eff579999980ULL, 0x40d2eff579999980ULL,
         0x40d2eff579999980ULL, 0x40d2eff579999980ULL,
         0x40d2eff579999980ULL, 0x40d2eff579999980ULL,
         0x40d2eff579999980ULL, 0x40d2eff579999980ULL},
        15, 15,
        {34, 0, 34, 0, 40, 0, 36, 0, 31, 0, 28, 0, 34, 1, 0, 0, 0, 0, 0, 0}};
    const SearchPin paged = SearchPin{
        0x5262eb55d015c81cULL, 377, 13, 1, 0x4079d00000000000ULL, 376, 13,
        1, 0x4079c00000000000ULL,
        {{3, 376, 13, 0x4079c00000000000ULL},
         {6, 376, 13, 0x4079c00000000000ULL},
         {9, 376, 13, 0x4079c00000000000ULL},
         {12, 376, 13, 0x4079c00000000000ULL}},
        std::vector<std::uint64_t>(12, 0x40d3f1beea3d70dbULL), 16, 24,
        {0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 44, 4, 33, 1, 45, 0, 7, 31, 37, 0}};
    const auto run = [&](const SearchOptions& sopts,
                         support::ThreadPool* pool) {
        return pinOf(searchLayout(w.image.prog, w.prof, popts, sopts,
                                  &w.buf, nullptr, pool));
    };
    SearchOptions flat_opts = smallBudget(42);
    SearchOptions page_opts = pageBudget(42);
    flat_opts.epochs = page_opts.epochs = 12;
    EXPECT_EQ(run(flat_opts, nullptr), flat) << "serial flat";
    EXPECT_EQ(run(page_opts, nullptr), paged) << "serial page";
    for (int width : {1, 2, 4}) {
        support::ThreadPool pool(width);
        EXPECT_EQ(run(flat_opts, &pool), flat) << "width " << width;
        EXPECT_EQ(run(page_opts, &pool), paged) << "width " << width;
    }
}

TEST(LayoutSearch, ProgressIsMonotoneAndNeverBelowSeed)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = smallBudget(7);
    SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);

    ASSERT_EQ(r.epoch_best.size(),
              static_cast<std::size_t>(sopts.epochs));
    for (std::size_t i = 1; i < r.epoch_best.size(); ++i)
        EXPECT_GE(r.epoch_best[i], r.epoch_best[i - 1]);
    EXPECT_GE(r.best_score, r.seed_score);
    EXPECT_EQ(r.best_score, r.epoch_best.back());
    // Ground truth: the champion is never worse than the greedy seed
    // on the re-rank configuration (the seed competes in every
    // re-rank), and the re-rank curve never climbs.
    EXPECT_LE(r.best_misses, r.seed_misses);
    ASSERT_FALSE(r.rerank_curve.empty());
    for (std::size_t i = 1; i < r.rerank_curve.size(); ++i)
        EXPECT_LE(r.rerank_curve[i].misses,
                  r.rerank_curve[i - 1].misses);
    EXPECT_EQ(r.rerank_curve.back().misses, r.best_misses);
    EXPECT_EQ(r.proxy_evals,
              static_cast<std::uint64_t>(sopts.epochs) *
                  static_cast<std::uint64_t>(sopts.batch));
}

TEST(LayoutSearch, EmittedLayoutIsAValidPermutation)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchResult r = searchLayout(w.image.prog, w.prof, popts,
                                  smallBudget(1234), &w.buf);

    EXPECT_EQ(r.layout.validate(), "");
    // Every global block is placed exactly once.
    std::vector<int> placed(w.image.prog.numBlocks(), 0);
    for (const core::CodeSegment& seg : r.layout.segments()) {
        EXPECT_FALSE(seg.blocks.empty());
        for (program::BlockLocalId b : seg.blocks)
            ++placed[w.image.prog.globalBlockId(seg.proc, b)];
    }
    for (program::GlobalBlockId g = 0; g < w.image.prog.numBlocks(); ++g)
        EXPECT_EQ(placed[g], 1) << "block " << g;
}

TEST(LayoutSearch, ProxyOnlyModeNeverTouchesTheSimulator)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchResult r = searchLayout(w.image.prog, w.prof, popts,
                                  smallBudget(3)); // no trace
    EXPECT_EQ(r.sim_evals, 0u);
    EXPECT_EQ(r.best_misses, 0u);
    EXPECT_TRUE(r.rerank_curve.empty());
    EXPECT_GE(r.best_score, r.seed_score);
    EXPECT_EQ(r.layout.validate(), "");
}

TEST(LayoutSearch, ZeroEpochsReturnsTheSeedLayout)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = smallBudget(9);
    sopts.epochs = 0;
    SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);
    EXPECT_EQ(r.best_score, r.seed_score);
    EXPECT_EQ(r.best_misses, r.seed_misses);
    core::PipelineOptions tight = popts;
    core::Layout greedy =
        core::buildLayout(w.image.prog, w.prof, tight);
    EXPECT_EQ(fingerprint(candidateFromLayout(r.layout)),
              fingerprint(candidateFromLayout(greedy)));
}

TEST(Perturb, OperatorsPreserveLayoutInvariants)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    core::AssignOptions aopts;
    Candidate cand = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));

    support::Pcg32 rng(99, 1);
    PerturbCounts counts;
    for (int round = 0; round < 50; ++round) {
        perturb(cand, rng, 3, &counts);
        core::Layout layout = materialize(cand, w.image.prog, aopts);
        ASSERT_EQ(layout.validate(), "") << "round " << round;
    }
    // Across 150 drawn operators, a healthy majority must have found a
    // legal application site (the image has thousands of segments).
    std::uint64_t applied = 0, noop = 0;
    for (std::size_t i = 0; i < kNumPerturbOps; ++i) {
        applied += counts.applied[i];
        noop += counts.noop[i];
    }
    EXPECT_EQ(applied + noop, 150u);
    EXPECT_GT(applied, noop);
}

TEST(Perturb, SameRngStreamGivesSameCandidates)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    Candidate a = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));
    Candidate b = a;
    support::Pcg32 ra(7, 3), rb(7, 3);
    perturb(a, ra, 10);
    perturb(b, rb, 10);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    // And a different stream diverges (overwhelmingly likely on a
    // many-segment image).
    Candidate c = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));
    support::Pcg32 rc(8, 3);
    perturb(c, rc, 10);
    EXPECT_NE(fingerprint(c), fingerprint(a));
}

} // namespace
} // namespace spikesim::opt
