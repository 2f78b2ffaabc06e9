#include "opt/search.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>

#include "core/split.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "opt/hierarchy.hh"
#include "sim/engine.hh"
#include "support/panic.hh"

namespace spikesim::opt {

namespace {

/** RNG stream ids (Pcg32 sequence selectors). Candidate generation
 *  uses streams >= kCandidateStreamBase so acceptance draws and
 *  candidate draws can never alias. */
constexpr std::uint64_t kAcceptStream = 0xacce97ULL;
constexpr std::uint64_t kCandidateStreamBase = 0x10000ULL;

struct ScoredCandidate
{
    Candidate cand;
    std::uint64_t fp = 0;
    double score = 0.0;
};

/** One ground-truth measurement (iTLB columns only in page mode). */
struct GtResult
{
    std::uint64_t misses = 0;
    std::uint64_t itlb4k = 0;
    std::uint64_t itlb2m = 0;
};

/** Ground-truth evaluator: SoA replay on the recorded trace with a
 *  fingerprint-keyed result cache. */
class GroundTruth
{
  public:
    GroundTruth(const trace::TraceBuffer* trace,
                const program::Program& prog,
                const core::AssignOptions& aopts,
                const core::Layout* kernel, const SearchOptions& sopts)
        : trace_(trace),
          prog_(prog),
          aopts_(aopts),
          kernel_(kernel),
          config_(sopts.rerank_config),
          filter_(sopts.filter)
    {
        if (sopts.page.enabled)
            specs_ = {{sopts.page.itlb_entries, 4096,
                       sopts.rerank_config.line_bytes},
                      {sopts.page.itlb_entries, 2u * 1024 * 1024,
                       sopts.rerank_config.line_bytes}};
    }

    /**
     * Measurements for every entry (cached or freshly replayed).
     * Uncached entries replay one at a time, each on every core: the
     * resolve shards the event stream on support::executor() and the
     * i-cache and iTLB kernels shard by CPU on `pool`. One resolved
     * trace is alive at a time.
     */
    std::vector<GtResult>
    evaluate(const std::vector<const ScoredCandidate*>& entries,
             support::ThreadPool* pool)
    {
        std::vector<GtResult> out(entries.size());
        std::vector<std::size_t> todo;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            auto it = cache_.find(entries[i]->fp);
            if (it != cache_.end()) {
                out[i] = it->second;
                ++hits_;
            } else {
                todo.push_back(i);
            }
        }
        SPIKESIM_ASSERT(trace_ != nullptr || todo.empty(),
                        "ground-truth evaluation needs a trace");
        for (std::size_t i : todo) {
            const core::Layout layout =
                materialize(entries[i]->cand, prog_, aopts_);
            const sim::Replayer rep(*trace_, layout, kernel_);
            const sim::ResolvedTraceSoA soa = rep.resolveSoA(filter_);
            out[i].misses =
                sim::replayICache(soa, {&config_, 1},
                                  sim::SimdMode::Auto, pool)[0]
                    .misses;
            if (!specs_.empty()) {
                const auto tlb = sim::replayITlb(
                    soa, specs_, sim::SimdMode::Auto, pool);
                out[i].itlb4k = tlb[0].misses;
                out[i].itlb2m = tlb[1].misses;
            }
            cache_.emplace(entries[i]->fp, out[i]);
        }
        evals_ += todo.size();
        return out;
    }

    std::uint64_t evals() const { return evals_; }
    std::uint64_t hits() const { return hits_; }

  private:
    const trace::TraceBuffer* trace_;
    const program::Program& prog_;
    core::AssignOptions aopts_;
    const core::Layout* kernel_;
    mem::CacheConfig config_;
    sim::StreamFilter filter_;
    std::vector<sim::ITlbSpec> specs_;
    std::unordered_map<std::uint64_t, GtResult> cache_;
    std::uint64_t evals_ = 0;
    std::uint64_t hits_ = 0;
};

/** Segment byte size under tight packing (no branch adjustment). */
std::uint64_t
candidateBytes(const program::Program& prog, const core::CodeSegment& seg)
{
    const program::Procedure& p = prog.proc(seg.proc);
    std::uint64_t bytes = 0;
    for (program::BlockLocalId b : seg.blocks)
        bytes += static_cast<std::uint64_t>(p.blocks[b].sizeInstrs) *
                 program::kInstrBytes;
    return bytes;
}

SearchResult::RegionSummary
summarizeRegions(const program::Program& prog, const Candidate& cand)
{
    SearchResult::RegionSummary s;
    if (cand.regions.empty())
        return s;
    s.num_regions = cand.regions.num_regions;
    s.num_hot = cand.regions.num_hot;
    for (std::size_t i = 0; i < cand.segments.size(); ++i) {
        const std::uint64_t bytes = candidateBytes(prog, cand.segments[i]);
        if (cand.regions.seg_region[i] < cand.regions.num_hot) {
            ++s.hot_segments;
            s.hot_bytes += bytes;
        } else {
            ++s.cold_segments;
            s.cold_bytes += bytes;
        }
    }
    return s;
}

} // namespace

SearchResult
searchLayout(const program::Program& prog,
             const profile::Profile& profile,
             const core::PipelineOptions& popts,
             const SearchOptions& sopts, const trace::TraceBuffer* trace,
             const core::Layout* kernel_layout, support::ThreadPool* pool)
{
    SPIKESIM_ASSERT(sopts.epochs >= 0 && sopts.batch > 0 &&
                        sopts.max_ops > 0,
                    "bad search budget");
    core::AssignOptions aopts;
    aopts.text_base = popts.text_base;
    aopts.segment_align = popts.segment_align;

    // Every proxy score of this search sums over one edge table.
    const ExtTspEdges edges(prog, profile);

    // Seed: the greedy pipeline's layout, re-materialized tight.
    ScoredCandidate seed;
    seed.cand =
        candidateFromLayout(core::buildLayout(prog, profile, popts));
    seed.fp = fingerprint(seed.cand);
    seed.score = extTspScore(materialize(seed.cand, prog, aopts), edges,
                             sopts.exttsp);

    SearchResult result{materialize(seed.cand, prog, aopts)};
    result.seed_score = seed.score;
    result.best_score = seed.score;

    // Page-aware starting candidates: a hot/cold split of the greedy
    // seed and the hierarchical distance-bounded merge, each carrying
    // the region map that switches perturbation to the region ops.
    const bool page = sopts.page.enabled;
    std::vector<ScoredCandidate> hotcolds;
    ScoredCandidate hier;
    if (page) {
        // Classic coarse hot/cold pipeline order expressed as a
        // permutation of the seed's fine-grain segments: run the
        // per-procedure splitHotCold + Pettis-Hansen pipeline to get
        // the coarse slot order, then bucket the seed's segments into
        // their (procedure, hotness) slot. Coarse granularity is what
        // packs pages -- whole-procedure hot chunks stay contiguous,
        // so the hot working set spans far fewer 4KB pages than any
        // fine-grain shuffle -- while keeping the seed's fine split
        // boundaries for the region-respecting annealer to exploit.
        const auto makeHotCold = [&](std::uint64_t threshold) {
            ScoredCandidate hc;
            core::PipelineOptions hc_popts = popts;
            hc_popts.combo = core::OptCombo::HotCold;
            hc_popts.hot_threshold = threshold;
            const core::Layout coarse =
                core::buildLayout(prog, profile, hc_popts);
            const auto segIsHot = [&](const core::CodeSegment& seg) {
                std::uint64_t peak = 0;
                for (program::BlockLocalId b : seg.blocks)
                    peak = std::max(
                        peak, profile.blockCount(
                                  prog.globalBlockId(seg.proc, b)));
                return peak >= threshold;
            };
            std::vector<std::vector<std::size_t>> hot_of(
                prog.numProcs());
            std::vector<std::vector<std::size_t>> cold_of(
                prog.numProcs());
            for (std::size_t i = 0; i < seed.cand.segments.size(); ++i) {
                const core::CodeSegment& seg = seed.cand.segments[i];
                (segIsHot(seg) ? hot_of : cold_of)[seg.proc].push_back(i);
            }
            // Hot slots first (in coarse layout order), then cold
            // slots, so the hot region is a contiguous prefix for the
            // region map.
            std::size_t num_hot = 0;
            for (const bool want_hot : {true, false})
                for (const core::CodeSegment& cs : coarse.segments()) {
                    if (cs.blocks.empty() || segIsHot(cs) != want_hot)
                        continue;
                    auto& bucket =
                        (want_hot ? hot_of : cold_of)[cs.proc];
                    for (std::size_t i : bucket)
                        hc.cand.segments.push_back(
                            seed.cand.segments[i]);
                    num_hot += want_hot ? bucket.size() : 0;
                    bucket.clear();
                }
            hc.cand.regions =
                buildRegionMap(prog, hc.cand.segments, num_hot,
                               sopts.page.region_page_bytes);
            hc.fp = fingerprint(hc.cand);
            hc.score = extTspScore(materialize(hc.cand, prog, aopts),
                                   edges, sopts.exttsp);
            return hc;
        };
        // A ladder of thresholds around the configured one: where the
        // hot/cold knee sits relative to the iTLB reach is workload-
        // dependent and sharply nonlinear, so several coarse candidates
        // compete in the Pareto-guarded re-rank instead of betting on
        // one. Duplicate fingerprints collapse in the survivor dedup.
        const std::uint64_t base =
            std::max<std::uint64_t>(1, sopts.page.hot_threshold);
        const std::uint64_t ladder[] = {base, base * 5 / 4, base * 3 / 2,
                                        base * 2};
        hotcolds.resize(std::size(ladder));
        support::forEach(pool, hotcolds.size(), [&](std::size_t j) {
            hotcolds[j] =
                makeHotCold(std::max<std::uint64_t>(1, ladder[j]));
        });

        HierarchyParams hp;
        hp.tiers = sopts.page.merge_tiers;
        hp.hot_threshold = sopts.page.hot_threshold;
        HierarchyResult hr =
            hierarchicalOrder(prog, profile, seed.cand.segments, hp);
        hier.cand.segments = std::move(hr.segments);
        hier.cand.regions =
            buildRegionMap(prog, hier.cand.segments, hr.num_hot,
                           sopts.page.region_page_bytes);
        hier.fp = fingerprint(hier.cand);
        hier.score = extTspScore(materialize(hier.cand, prog, aopts),
                                 edges, sopts.exttsp);
    }

    ScoredCandidate incumbent = seed;
    ScoredCandidate best_proxy = seed;
    if (page) {
        // Start annealing from the best-proxy structured candidate.
        for (const ScoredCandidate& hc : hotcolds)
            if (hc.score > incumbent.score)
                incumbent = hc;
        if (hier.score > incumbent.score)
            incumbent = hier;
        best_proxy = incumbent;
    }

    const bool rerank = trace != nullptr && sopts.rerank_every > 0;
    GroundTruth gt(trace, prog, aopts, kernel_layout, sopts);
    bool have_gt = false;
    ScoredCandidate best_gt = seed;
    GtResult best_gt_res;
    double best_gt_obj = 0.0;

    auto objective = [&](const GtResult& g) {
        return sopts.page.icache_weight * static_cast<double>(g.misses) +
               sopts.page.itlb4k_weight * static_cast<double>(g.itlb4k) +
               sopts.page.itlb2m_weight * static_cast<double>(g.itlb2m);
    };

    const double temp0 =
        sopts.init_temp_frac * std::max(std::abs(seed.score), 1.0);
    support::Pcg32 accept_rng(sopts.seed, kAcceptStream);

    /** Ground-truth re-rank of the survivor set; the winner becomes
     *  the incumbent. The seed always participates, so the champion
     *  can never be worse than the seed on the re-rank config. */
    auto rerankSurvivors = [&](const std::vector<ScoredCandidate>& batch,
                               int epochs_done) {
        obs::Span span("search.rerank", "opt");
        std::vector<const ScoredCandidate*> survivors{&seed, &incumbent,
                                                      &best_proxy};
        if (page) {
            // The structured candidates always compete, so the champion
            // is never worse than hot/cold or hierarchical placement.
            for (const ScoredCandidate& hc : hotcolds)
                survivors.push_back(&hc);
            survivors.push_back(&hier);
        }
        std::vector<std::size_t> order(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return batch[a].score > batch[b].score;
                         });
        for (std::size_t i = 0;
             i < std::min(sopts.rerank_top, order.size()); ++i)
            survivors.push_back(&batch[order[i]]);
        // Dedup by fingerprint, keeping first occurrence.
        std::vector<const ScoredCandidate*> uniq;
        for (const ScoredCandidate* s : survivors) {
            bool dup = false;
            for (const ScoredCandidate* u : uniq)
                dup = dup || u->fp == s->fp;
            if (!dup)
                uniq.push_back(s);
        }
        const std::vector<GtResult> m = gt.evaluate(uniq, pool);
        // Winner: lowest combined objective (== fewest misses with the
        // default weights); ties go to the higher proxy score, then the
        // earlier survivor (seed < incumbent < ...). Only candidates
        // that weakly Pareto-dominate the seed on both hardware
        // metrics are eligible: the weighted objective picks the
        // tradeoff, but it may never buy page locality with i-cache
        // misses or vice versa relative to the greedy baseline. The
        // seed is always uniq[0], so a winner always exists.
        std::size_t win = 0;
        for (std::size_t i = 1; i < uniq.size(); ++i) {
            if (m[i].misses > m[0].misses || m[i].itlb4k > m[0].itlb4k)
                continue;
            if (objective(m[i]) < objective(m[win]) ||
                (objective(m[i]) == objective(m[win]) &&
                 uniq[i]->score > uniq[win]->score))
                win = i;
        }
        if (!have_gt || objective(m[win]) < best_gt_obj ||
            (objective(m[win]) == best_gt_obj &&
             uniq[win]->score > best_gt.score)) {
            best_gt = *uniq[win];
            best_gt_res = m[win];
            best_gt_obj = objective(m[win]);
        }
        const GtResult seed_gt = gt.evaluate({&seed}, nullptr)[0];
        result.seed_misses = seed_gt.misses;
        result.seed_itlb4k = seed_gt.itlb4k;
        result.seed_itlb2m = seed_gt.itlb2m;
        result.seed_objective = objective(seed_gt);
        have_gt = true;
        incumbent = *uniq[win];
        const SearchResult::RerankPoint point{epochs_done,
                                              best_gt_res.misses,
                                              best_gt_res.itlb4k,
                                              best_gt_obj};
        if (!result.rerank_curve.empty() &&
            result.rerank_curve.back().epoch == epochs_done)
            result.rerank_curve.back() = point;
        else
            result.rerank_curve.push_back(point);
    };

    static obs::Counter& c_accepted = obs::counter("opt.search.accepted");
    static obs::Counter& c_proxy = obs::counter("opt.search.proxy_evals");

    std::vector<ScoredCandidate> batch;
    for (int e = 0; e < sopts.epochs; ++e) {
        obs::Span epoch_span("search.epoch", "opt");
        batch.resize(static_cast<std::size_t>(sopts.batch));
        // Generate and score the batch in parallel: every candidate
        // draws from its own seeded stream and counts its operators in
        // its own slot (summed below), and scores are
        // pure per-candidate functions, so pool width cannot change
        // the batch.
        std::vector<PerturbCounts> op_counts(batch.size());
        auto make = [&](std::size_t i) {
            support::Pcg32 rng(
                sopts.seed,
                kCandidateStreamBase +
                    static_cast<std::uint64_t>(e) *
                        static_cast<std::uint64_t>(sopts.batch) +
                    static_cast<std::uint64_t>(i));
            ScoredCandidate& c = batch[i];
            c.cand = incumbent.cand;
            const int ops =
                1 + static_cast<int>(rng.nextBounded(
                        static_cast<std::uint32_t>(sopts.max_ops)));
            perturb(c.cand, rng, ops, &op_counts[i]);
            c.fp = fingerprint(c.cand);
            c.score = extTspScore(materialize(c.cand, prog, aopts), edges,
                                  sopts.exttsp);
        };
        support::forEach(pool, batch.size(), make);
        for (const PerturbCounts& pc : op_counts)
            for (std::size_t op = 0; op < kNumPerturbOps; ++op) {
                result.perturb_counts.applied[op] += pc.applied[op];
                result.perturb_counts.noop[op] += pc.noop[op];
            }
        result.proxy_evals += batch.size();
        c_proxy.add(batch.size());

        // Acceptance (sequential, deterministic).
        if (sopts.algorithm == SearchOptions::Algorithm::HillClimb) {
            for (const ScoredCandidate& c : batch)
                if (c.score > incumbent.score) {
                    incumbent = c;
                    c_accepted.add(1);
                    break;
                }
        } else {
            std::size_t bi = 0;
            for (std::size_t i = 1; i < batch.size(); ++i)
                if (batch[i].score > batch[bi].score)
                    bi = i;
            const ScoredCandidate& c = batch[bi];
            if (c.score > incumbent.score) {
                incumbent = c;
                c_accepted.add(1);
            } else {
                const double temp =
                    temp0 * std::pow(sopts.cooling, static_cast<double>(e));
                if (temp > 0.0 &&
                    accept_rng.nextDouble() <
                        std::exp((c.score - incumbent.score) / temp)) {
                    incumbent = c;
                    c_accepted.add(1);
                }
            }
        }
        if (incumbent.score > best_proxy.score)
            best_proxy = incumbent;
        result.epoch_best.push_back(best_proxy.score);

        if (rerank && (e + 1) % sopts.rerank_every == 0)
            rerankSurvivors(batch, e + 1);
    }

    if (rerank) {
        // Final re-rank so the last epochs' progress is measured too.
        rerankSurvivors(batch, sopts.epochs);
        result.best_misses = best_gt_res.misses;
        result.best_itlb4k = best_gt_res.itlb4k;
        result.best_itlb2m = best_gt_res.itlb2m;
        result.best_objective = best_gt_obj;
        result.best_score = best_proxy.score;
        result.layout = materialize(best_gt.cand, prog, aopts);
        result.regions = summarizeRegions(prog, best_gt.cand);
    } else {
        result.best_score = best_proxy.score;
        result.layout = materialize(best_proxy.cand, prog, aopts);
        result.regions = summarizeRegions(prog, best_proxy.cand);
    }
    result.sim_evals = gt.evals();
    result.sim_cache_hits = gt.hits();
    static obs::Counter& c_sim = obs::counter("opt.search.sim_evals");
    static obs::Counter& c_rerank_hits =
        obs::counter("opt.search.rerank_cache_hits");
    c_sim.add(gt.evals());
    c_rerank_hits.add(gt.hits());
    return result;
}

} // namespace spikesim::opt
