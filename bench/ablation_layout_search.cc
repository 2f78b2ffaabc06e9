/**
 * @file
 * Ablation: the layout search engine (opt/search.hh) versus the greedy
 * pipeline it is seeded from. Three application binaries are priced on
 * the Figure-4-style cache grid (32KB-512KB x 16B-256B lines,
 * direct-mapped): the unoptimized baseline, the greedy `All` combo,
 * and the searched layout (ExtTSP-proxy annealing seeded from `All`,
 * periodically re-ranked against ground-truth i-cache replay).
 *
 * The searched layout is guaranteed no worse than greedy `All` on the
 * re-rank configuration (the paper's Figure 7 setup: 64KB, 128B lines,
 * 4-way) because the seed participates in every re-rank; everywhere
 * else the numbers land where they land and are reported honestly.
 *
 * Deterministic: `--seed N` (or SPIKESIM_SEED) fixes the search RNG,
 * and two runs with the same seed produce byte-identical layouts and
 * an identical BENCH_layout_search.json (the JSON carries no timings).
 * Search budget is overridable for smoke tests via
 * SPIKESIM_SEARCH_EPOCHS / SPIKESIM_SEARCH_BATCH (positive integers,
 * strictly parsed).
 */

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench/common.hh"
#include "opt/search.hh"

using namespace spikesim;

namespace {

const std::vector<std::uint32_t> kSizesKb{32, 64, 128, 256, 512};
const std::vector<std::uint32_t> kLines{16, 32, 64, 128, 256};

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Ablation",
                  "layout search engine (ExtTSP annealing) vs greedy "
                  "pipeline");
    opt::SearchOptions sopts;
    sopts.epochs =
        bench::positiveFromEnv("SPIKESIM_SEARCH_EPOCHS", sopts.epochs);
    sopts.batch =
        bench::positiveFromEnv("SPIKESIM_SEARCH_BATCH", sopts.batch);
    bench::Workload w = bench::runWorkload(argc, argv);

    core::Layout base = w.appLayout(core::OptCombo::Base);
    core::Layout greedy = w.appLayout(core::OptCombo::All);

    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    popts.text_base = w.system->config().app_text_base;

    sopts.seed = w.seed;

    // Page-aware hierarchical mode: hot/cold + Codestitcher-merge
    // candidates seed the annealer, perturbation respects 4KB page
    // regions, and re-ranking optimizes a combined objective over
    // fused i-cache misses and standalone-iTLB misses at 4KB / 2MB
    // pages. The iTLB weights reflect the relative stall costs
    // (sim/timing.hh: ~30-cycle iTLB fill vs ~12-cycle L2 hit) scaled
    // by how much rarer page crossings are than line misses.
    sopts.page.enabled = true;
    sopts.page.itlb4k_weight = 2.0;
    sopts.page.itlb2m_weight = 10.0;
    // Hot/cold threshold scales with the profiling run: block counts
    // grow linearly with profiled transactions, so a fixed count would
    // classify everything hot on long profiles and everything cold on
    // short ones. profile_txns/8 puts the knee where the packed hot
    // region roughly matches the 64-entry x 4KB iTLB reach on the
    // default workload.
    sopts.page.hot_threshold =
        std::max<std::uint64_t>(1, w.profile_txns / 8);
    // Page-aware proxy terms (all default-zero otherwise): gap-bucket
    // penalty past the ExtTSP decay windows, 4KB/2MB co-residency
    // bonuses, and a page-crossing iTLB charge.
    sopts.exttsp.gap_weight = 0.05;
    sopts.exttsp.page4k_weight = 0.02;
    sopts.exttsp.page2m_weight = 0.01;
    sopts.exttsp.itlb_weight = 0.05;

    std::cout << "search: seed " << sopts.seed << ", " << sopts.epochs
              << " epochs x " << sopts.batch
              << " candidates, re-rank every " << sopts.rerank_every
              << " epochs on " << sopts.rerank_config.size_bytes / 1024
              << "KB/" << sopts.rerank_config.line_bytes << "B/"
              << sopts.rerank_config.assoc << "-way\n"
              << "page-aware: objective = "
              << sopts.page.icache_weight << "*icache + "
              << sopts.page.itlb4k_weight << "*itlb4k + "
              << sopts.page.itlb2m_weight << "*itlb2m ("
              << sopts.page.itlb_entries << "-entry iTLB), regions at "
              << sopts.page.region_page_bytes << "B pages\n\n";

    const opt::SearchResult searched =
        opt::searchLayout(w.appProg(), w.appProfile(), popts, sopts,
                          &w.buf, nullptr, w.pool());

    std::cout << "proxy (ExtTSP) score: seed " << searched.seed_score
              << " -> best " << searched.best_score << " ("
              << searched.proxy_evals << " proxy evals)\n"
              << "ground truth: " << searched.sim_evals
              << " i-cache replays, " << searched.sim_cache_hits
              << " fingerprint-cache hits\n"
              << "re-rank config misses: greedy All "
              << support::withCommas(searched.seed_misses)
              << " -> searched "
              << support::withCommas(searched.best_misses) << "\n"
              << "standalone iTLB misses: 4KB pages "
              << support::withCommas(searched.seed_itlb4k) << " -> "
              << support::withCommas(searched.best_itlb4k)
              << ", 2MB pages "
              << support::withCommas(searched.seed_itlb2m) << " -> "
              << support::withCommas(searched.best_itlb2m) << "\n"
              << "combined objective: " << searched.seed_objective
              << " -> " << searched.best_objective << "\n"
              << "winner region map: " << searched.regions.num_regions
              << " regions (" << searched.regions.num_hot << " hot), "
              << searched.regions.hot_segments << " hot segments / "
              << support::withCommas(searched.regions.hot_bytes)
              << " bytes, " << searched.regions.cold_segments
              << " cold segments / "
              << support::withCommas(searched.regions.cold_bytes)
              << " bytes\n\n";

    // Price all three binaries on the Figure-4 grid, one fused i-cache
    // column per binary.
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t kb : kSizesKb)
        for (std::uint32_t line : kLines)
            grid.push_back({kb * 1024, line, 1});
    auto price = [&](const core::Layout& layout) {
        bench::BenchReplay rep(w, layout);
        return rep.icacheColumn(grid, sim::StreamFilter::AppOnly);
    };
    const std::vector<sim::ICacheReplayResult> col_base = price(base);
    const std::vector<sim::ICacheReplayResult> col_greedy = price(greedy);
    const std::vector<sim::ICacheReplayResult> col_search =
        price(searched.layout);
    auto misses = [&](const std::vector<sim::ICacheReplayResult>& col,
                      std::uint32_t kb, std::uint32_t line) {
        return bench::gridMisses(grid, col, kb * 1024, line, 1);
    };

    std::cout << "app i-cache misses at 128B lines (direct-mapped):\n";
    support::TablePrinter table(
        {"cache", "base", "greedy All", "searched", "vs greedy"});
    for (std::uint32_t kb : kSizesKb) {
        const std::uint64_t mg = misses(col_greedy, kb, 128);
        const std::uint64_t ms = misses(col_search, kb, 128);
        const double delta =
            mg == 0 ? 0.0
                    : (static_cast<double>(ms) - static_cast<double>(mg)) /
                          static_cast<double>(mg);
        table.addRow({std::to_string(kb) + "KB",
                      support::withCommas(misses(col_base, kb, 128)),
                      support::withCommas(mg), support::withCommas(ms),
                      support::percent(delta)});
    }
    table.print(std::cout);
    std::cout << "\n";

    std::cout << "search-budget vs miss curve (re-rank config):\n";
    for (const auto& p : searched.rerank_curve)
        std::cout << "  after " << p.epoch << " epochs: "
                  << support::withCommas(p.misses) << " misses, "
                  << support::withCommas(p.itlb4k)
                  << " iTLB@4KB, objective " << p.objective << "\n";
    std::cout << "\n";

    std::ofstream json("BENCH_layout_search.json");
    json << "{\n"
         << "  \"bench\": \"layout_search\",\n"
         << "  \"seed\": " << sopts.seed << ",\n"
         << "  \"profile_txns\": " << w.profile_txns << ",\n"
         << "  \"trace_txns\": " << w.trace_txns << ",\n"
         << "  \"epochs\": " << sopts.epochs << ",\n"
         << "  \"batch\": " << sopts.batch << ",\n"
         << "  \"proxy_evals\": " << searched.proxy_evals << ",\n"
         << "  \"sim_evals\": " << searched.sim_evals << ",\n"
         << "  \"sim_cache_hits\": " << searched.sim_cache_hits << ",\n"
         << "  \"seed_exttsp_score\": " << searched.seed_score << ",\n"
         << "  \"best_exttsp_score\": " << searched.best_score << ",\n"
         << "  \"rerank_config\": {\"size_bytes\": "
         << sopts.rerank_config.size_bytes
         << ", \"line_bytes\": " << sopts.rerank_config.line_bytes
         << ", \"assoc\": " << sopts.rerank_config.assoc << "},\n"
         << "  \"greedy_all_misses\": " << searched.seed_misses << ",\n"
         << "  \"searched_misses\": " << searched.best_misses << ",\n"
         << "  \"objective_weights\": {\"icache\": "
         << sopts.page.icache_weight
         << ", \"itlb4k\": " << sopts.page.itlb4k_weight
         << ", \"itlb2m\": " << sopts.page.itlb2m_weight << "},\n"
         << "  \"page_geometry\": {\"region_page_bytes\": "
         << sopts.page.region_page_bytes
         << ", \"itlb_entries\": " << sopts.page.itlb_entries << "},\n"
         << "  \"greedy_all_itlb4k\": " << searched.seed_itlb4k << ",\n"
         << "  \"searched_itlb4k\": " << searched.best_itlb4k << ",\n"
         << "  \"greedy_all_itlb2m\": " << searched.seed_itlb2m << ",\n"
         << "  \"searched_itlb2m\": " << searched.best_itlb2m << ",\n"
         << "  \"seed_objective\": " << searched.seed_objective << ",\n"
         << "  \"best_objective\": " << searched.best_objective << ",\n"
         << "  \"region_map\": {\"num_regions\": "
         << searched.regions.num_regions
         << ", \"num_hot\": " << searched.regions.num_hot
         << ", \"hot_segments\": " << searched.regions.hot_segments
         << ", \"cold_segments\": " << searched.regions.cold_segments
         << ", \"hot_bytes\": " << searched.regions.hot_bytes
         << ", \"cold_bytes\": " << searched.regions.cold_bytes
         << "},\n"
         << "  \"rerank_curve\": [";
    for (std::size_t i = 0; i < searched.rerank_curve.size(); ++i)
        json << (i ? ", " : "") << "{\"epoch\": "
             << searched.rerank_curve[i].epoch << ", \"misses\": "
             << searched.rerank_curve[i].misses << ", \"itlb4k\": "
             << searched.rerank_curve[i].itlb4k << ", \"objective\": "
             << searched.rerank_curve[i].objective << "}";
    json << "],\n"
         << "  \"epoch_best_exttsp\": [";
    for (std::size_t i = 0; i < searched.epoch_best.size(); ++i)
        json << (i ? ", " : "") << searched.epoch_best[i];
    json << "],\n"
         << "  \"grid\": [\n";
    bool first = true;
    for (std::uint32_t kb : kSizesKb)
        for (std::uint32_t line : kLines) {
            if (!first)
                json << ",\n";
            first = false;
            json << "    {\"size_kb\": " << kb << ", \"line_b\": " << line
                 << ", \"base\": " << misses(col_base, kb, line)
                 << ", \"greedy_all\": " << misses(col_greedy, kb, line)
                 << ", \"searched\": " << misses(col_search, kb, line)
                 << "}";
        }
    json << "\n  ]\n}\n";
    json.close(); // flush before the manifest embeds it
    std::cout << "wrote BENCH_layout_search.json\n\n";
    w.recordArtifact("BENCH_layout_search.json");

    if (w.obs()) {
        obs::Manifest& m = w.obs()->manifest();
        auto num = [](double v) {
            std::ostringstream s;
            s << v;
            return s.str();
        };
        m.info.emplace_back("search.objective_weights",
                            "icache=" + num(sopts.page.icache_weight) +
                                ",itlb4k=" +
                                num(sopts.page.itlb4k_weight) +
                                ",itlb2m=" +
                                num(sopts.page.itlb2m_weight));
        m.info.emplace_back(
            "search.page_geometry",
            "region_page_bytes=" +
                std::to_string(sopts.page.region_page_bytes) +
                ",itlb_entries=" +
                std::to_string(sopts.page.itlb_entries) +
                ",itlb_pages=4096/2097152");
        m.info.emplace_back(
            "search.region_map",
            "num_regions=" +
                std::to_string(searched.regions.num_regions) +
                ",num_hot=" + std::to_string(searched.regions.num_hot) +
                ",hot_segments=" +
                std::to_string(searched.regions.hot_segments) +
                ",cold_segments=" +
                std::to_string(searched.regions.cold_segments) +
                ",hot_bytes=" +
                std::to_string(searched.regions.hot_bytes) +
                ",cold_bytes=" +
                std::to_string(searched.regions.cold_bytes));
    }

    bench::paperVsMeasured(
        "searched vs greedy All (64KB/128B/4-way app misses)",
        "n/a -- the search engine extends the paper's greedy pipeline",
        support::withCommas(searched.best_misses) + " vs " +
            support::withCommas(searched.seed_misses) +
            " misses; iTLB@4KB " +
            support::withCommas(searched.best_itlb4k) + " vs " +
            support::withCommas(searched.seed_itlb4k) +
            " (combined objective never worse by construction)");
    return 0;
}
