/**
 * @file
 * Benchmark program: runs the whole profile -> layout -> replay ->
 * serving chain for one workload by calling each module's public
 * functions, timing every call from outside, and checking the outputs.
 *
 * One run = `kSetups` captures (System construction through a recorded
 * trace plus profiles; the median is setup_s) followed by repeated
 * evaluations of the last capture for `--seconds` (the median is
 * eval_s). Simulated results must repeat exactly between captures and
 * between evaluations; any difference counts as a failure.
 *
 * With `--trace 1`, every other evaluation records spans around the
 * layer calls and the run reports per-layer numbers, self times, the
 * tracing overhead (traced minus untraced median eval time) and the
 * outcome of the differential self-checks, instead of the end-to-end
 * numbers.
 *
 * usage: perfbench --workload NAME --seed N --seconds S
 *          --trace 0|1 --threads N [--spans-out FILE]
 *
 * The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "db/ycsb.hh"
#include "opt/search.hh"
#include "spans.hh"
#include "profile/serialize.hh"
#include "serve/arrival.hh"
#include "serve/queueing.hh"
#include "serve/service.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim/replay.hh"
#include "sim/soa.hh"
#include "sim/system.hh"
#include "sim/timing.hh"
#include "support/checksum.hh"
#include "support/threadpool.hh"

using namespace spikesim;
using perfbench::Span;
using perfbench::Tracer;
using perfbench::wallNow;

namespace {

/** Captures per run; setup_s is their median. */
constexpr int kSetups = 3;

/**
 * One workload. Sizes, offered rates and the latency limit are fixed
 * constants: the rates are absolute simulated req/s, measured once as
 * fractions of the base layout's capacity at seed 1, so every seed is
 * offered the same traffic.
 */
struct WorkloadSpec
{
    const char* name;
    bool ycsb;   ///< YCSB requests instead of TPC-B transactions
    bool search; ///< full combo ladder + layout search + SoA scoring
    int tenants; ///< engine instances sharing each CPU's L2/iTLB
    std::uint64_t warmup;
    std::uint64_t profile;
    std::uint64_t trace;
    /** Base-layout capacity at seed 1 (req/s): shards / mean service. */
    double base_capacity_tps;
    /** p999 latency limit of the slo_rate_tps search, in simulated us
     *  (about 4x the seed-1 base-layout p99 service time). */
    double slo_p999_us;
};

// Fixed-rate tails near saturation follow each seed's mean service time,
// so the serve workloads record long traces to keep them steady across
// seeds; the search workload, which replays its trace for every layout,
// keeps a shorter one to fit the run budget.
const WorkloadSpec kWorkloads[] = {
    {"tpcb_serve", false, false, 1, 50, 300, 1000, 10000.0, 2600.0},
    {"ycsb_serve", true, false, 2, 50, 300, 900, 14200.0, 2200.0},
    {"tpcb_search", false, true, 1, 50, 300, 600, 10000.0, 2600.0},
};

/** Offered-load points: fraction of base_capacity_tps, process, and
 *  requests simulated (near saturation and under bursts the tail comes
 *  from few long busy periods, so those points need more samples to
 *  repeat across seeds). */
struct LoadPoint
{
    const char* tag;
    double fraction;
    serve::ArrivalKind kind;
    std::uint64_t requests;
};
const LoadPoint kLoads[] = {
    {"load60", 0.60, serve::ArrivalKind::Poisson, 200'000},
    {"load97", 0.97, serve::ArrivalKind::Poisson, 1'000'000},
    {"bursty85", 0.85, serve::ArrivalKind::Bursty, 1'200'000},
};

/** Requests simulated per SLO-search probe. */
constexpr std::uint64_t kSloRequests = 60'000;
constexpr int kSloSteps = 8;
constexpr std::uint32_t kSessions = 2'000;
constexpr std::uint32_t kQueueBound = 64;

/** The paper's Figure 7 i-cache and the search's iTLB geometry. */
const mem::CacheConfig kFig07{64 * 1024, 128, 4};
const sim::ITlbSpec kItlb4k{64, 4096, 128};
const sim::ITlbSpec kItlb2m{64, 2u * 1024 * 1024, 128};

struct Options
{
    const WorkloadSpec* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --threads N [--spans-out FILE]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string& flag, const std::string& v)
{
    std::size_t pos = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(v, &pos);
    } catch (const std::exception&) {
        usage(flag + ": not a number: '" + v + "'");
    }
    if (pos != v.size() || v[0] == '-')
        usage(flag + ": not a number: '" + v + "'");
    return n;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string v = argv[++i];
        if (arg == "--workload") {
            for (const WorkloadSpec& w : kWorkloads)
                if (v == w.name)
                    o.workload = &w;
            if (o.workload == nullptr)
                usage("unknown workload '" + v + "'");
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = parseUint(arg, v);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUint(arg, v));
            if (o.seconds < 1)
                usage("--seconds must be >= 1");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--threads") {
            o.threads = static_cast<int>(parseUint(arg, v));
            if (o.threads < 1 || o.threads > 256)
                usage("--threads must be in [1, 256]");
        } else if (arg == "--spans-out") {
            o.spans_out = v;
        } else {
            usage("unknown option '" + arg + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** Ops attempted and failed; every check adds one op. */
struct Tally
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string& what)
    {
        ++ops;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }
};

// ---------------------------------------------------------------------
// Capture: System construction through a recorded trace plus profiles.

struct Capture
{
    std::unique_ptr<sim::System> system;
    std::optional<sim::System::Profiles> profiles;
    trace::TraceBuffer buf;
    std::uint64_t requests = 0; ///< transactions/requests executed
    std::uint64_t aborts = 0;
    /** Digest of the trace and both profiles (setups must agree). */
    std::uint64_t fingerprint = 0;
};

Capture
capture(const WorkloadSpec& spec, std::uint64_t seed, Tracer& tr,
        Tally& tally)
{
    Span root(tr, "setup");
    Capture c;
    sim::SystemConfig cfg;
    cfg.workload_seed = seed; // image seeds stay fixed: same binary
    {
        Span s(tr, "synth.image_build");
        c.system = std::make_unique<sim::System>(cfg);
    }
    sim::System& sys = *c.system;
    if (!spec.ycsb) {
        {
            Span s(tr, "db.load");
            sys.setup();
        }
        {
            Span s(tr, "db.warmup");
            sys.warmup(spec.warmup);
        }
        {
            Span s(tr, "profile.collect");
            c.profiles = sys.collectProfiles(spec.profile);
        }
        {
            Span s(tr, "trace.capture");
            sys.run(spec.trace, c.buf);
        }
        db::TpcbDatabase& db = sys.database();
        c.requests = spec.warmup + spec.profile + spec.trace;
        c.aborts = db.txns().numAborted();
        tally.ops += c.requests;
        tally.failed += c.aborts;
        tally.check(db.transactionsRun() == c.requests,
                    "TPC-B transaction count");
        const std::string bad = db.verify();
        tally.check(bad.empty(), "TpcbDatabase::verify: " + bad);
    } else {
        // Read-mostly YCSB (YCSB-B mix): Zipfian keys, 5% updates. Only
        // the YCSB table is loaded; the TPC-B database stays empty.
        db::YcsbConfig ycfg;
        ycfg.seed = seed;
        ycfg.zipf_theta = 0.99;
        ycfg.update_ratio = 0.05;
        db::YcsbDatabase ydb(ycfg, &sys);
        {
            Span s(tr, "db.load");
            ydb.setup();
        }
        const auto request = [&](std::uint16_t p) {
            const db::YcsbOutcome o = ydb.runRequest(p);
            ++c.requests;
            if (o.reads + o.updates != ycfg.operation_count)
                ++c.aborts;
        };
        {
            Span s(tr, "db.warmup");
            trace::NullSink warm;
            sys.runRequests(spec.warmup, warm, request);
        }
        {
            Span s(tr, "profile.collect");
            c.profiles.emplace(sim::System::Profiles{
                profile::Profile(sys.appProg()),
                profile::Profile(sys.kernelProg())});
            profile::ProfileRecorder app(trace::ImageId::App,
                                         c.profiles->app);
            profile::ProfileRecorder kern(trace::ImageId::Kernel,
                                          c.profiles->kernel);
            trace::TeeSink tee({&app, &kern});
            sys.runRequests(spec.profile, tee, request);
        }
        {
            Span s(tr, "trace.capture");
            sys.runRequests(spec.trace, c.buf, request);
        }
        tally.ops += c.requests;
        tally.failed += c.aborts;
        const std::string bad = ydb.verify();
        tally.check(bad.empty(), "YcsbDatabase::verify: " + bad);
    }
    std::vector<std::uint8_t> bytes;
    profile::appendProfile(c.profiles->app, bytes);
    profile::appendProfile(c.profiles->kernel, bytes);
    c.fingerprint =
        support::fnv1a64Words(c.buf.events().data(),
                              c.buf.size() * sizeof(trace::TraceEvent)) ^
        support::fnv1a64(bytes.data(), bytes.size());
    return c;
}

// ---------------------------------------------------------------------
// Evaluation: layouts, search, SoA scoring, service model, serving.

/** Everything one evaluation produces. `sim` holds simulated values,
 *  exact per seed; `work` holds the work counts behind per-layer
 *  rates. */
struct Eval
{
    std::map<std::string, double> sim;
    std::map<std::string, double> work;
    std::optional<core::Layout> base;
    std::optional<core::Layout> opt;
    std::optional<core::Layout> kernel;
};

opt::SearchOptions
searchOptions(std::uint64_t seed)
{
    // The page-aware settings of the layout-search ablation, on a
    // smaller fixed budget.
    opt::SearchOptions so;
    so.seed = seed;
    so.epochs = 24;
    so.batch = 16;
    so.rerank_every = 8;
    so.rerank_config = kFig07;
    so.page.enabled = true;
    so.page.itlb4k_weight = 2.0;
    so.page.itlb2m_weight = 10.0;
    so.exttsp.gap_weight = 0.05;
    so.exttsp.page4k_weight = 0.02;
    so.exttsp.page2m_weight = 0.01;
    so.exttsp.itlb_weight = 0.05;
    return so;
}

/** i-cache configurations of the SoA column: the fig04 grid
 *  (direct-mapped, 32-512KB x 16-256B lines) then kFig07 last. */
std::vector<mem::CacheConfig>
icacheColumn()
{
    std::vector<mem::CacheConfig> out;
    for (std::uint32_t kb : {32u, 64u, 128u, 256u, 512u})
        for (std::uint32_t line : {16u, 32u, 64u, 128u, 256u})
            out.push_back({kb * 1024, line, 1});
    out.push_back(kFig07);
    return out;
}

std::string
safeName(const char* combo)
{
    std::string s = combo;
    std::replace(s.begin(), s.end(), '+', '_');
    return s;
}

/** Simulated per-layout hierarchy counters and cycle attribution. */
void
recordService(Eval& e, const char* tag, const serve::ServiceModel& m,
              const sim::PlatformParams& p, Tally& tally)
{
    const serve::ServiceStats& st = m.stats();
    const std::string t = tag;
    const sim::CycleBreakdown b =
        sim::cycleBreakdown(st.mem, st.instrs, p, st.fetch_breaks);
    tally.check(static_cast<std::uint64_t>(b.total()) == st.total_cycles,
                std::string("cycle breakdown sums to service cycles (") +
                    tag + ")");
    e.sim["timing.cycles.base." + t] = b.base;
    e.sim["timing.cycles.fetch_break." + t] = b.fetch_break;
    e.sim["timing.cycles.l2_hit." + t] = b.l2_hit;
    e.sim["timing.cycles.memory." + t] = b.memory;
    e.sim["timing.cycles.itlb." + t] = b.itlb;
    e.sim["timing.cycles.remote." + t] = b.remote;
    e.sim["timing.cycles.total." + t] =
        static_cast<double>(st.total_cycles);
    e.sim["mem.l1i_misses." + t] = static_cast<double>(st.mem.l1i.misses);
    e.sim["mem.l2_misses." + t] =
        static_cast<double>(st.mem.l2i.misses + st.mem.l2d.misses);
    e.sim["mem.itlb_misses." + t] = static_cast<double>(st.mem.itlb_misses);
    e.sim["mem.fetch_breaks." + t] = static_cast<double>(st.fetch_breaks);
    e.sim["mem.instrs." + t] = static_cast<double>(st.instrs);
    e.sim["serve.mean_service_us." + t] =
        st.mean_cycles / (p.clock_ghz * 1e3);
    e.sim["serve.p99_service_us." + t] =
        sim::cyclesToMicros(st.p99_cycles, p);
}

/** One open-loop simulation of the optimized layout. */
serve::ServingResult
serveAt(double tps, serve::ArrivalKind kind, std::uint64_t requests,
        std::span<const std::uint64_t> service,
        const sim::PlatformParams& p, const serve::QueueConfig& qc,
        std::uint64_t seed, support::ThreadPool* pool, Tracer& tr,
        Eval& e, Tally& tally)
{
    serve::ArrivalConfig ac;
    ac.kind = kind;
    ac.sessions = kSessions;
    ac.rate = tps / (p.clock_ghz * 1e9);
    ac.horizon_cycles = static_cast<std::uint64_t>(
        static_cast<double>(requests) / ac.rate);
    ac.seed = seed;
    std::vector<serve::Arrival> arrivals;
    {
        Span s(tr, "serve.arrivals");
        arrivals = serve::generateArrivals(ac);
    }
    serve::ServingResult r;
    {
        Span s(tr, "serve.simulate");
        r = serve::simulateOpenLoop(arrivals, service, ac.horizon_cycles,
                                    qc, pool);
    }
    e.work["serve.requests"] += static_cast<double>(r.offered);
    tally.check(r.completed + r.dropped == r.offered,
                "completed + dropped == offered");
    return r;
}

Eval
evaluate(const WorkloadSpec& spec, const Capture& c, std::uint64_t seed,
         sim::SimdMode simd, support::ThreadPool* pool, Tracer& tr,
         Tally& tally)
{
    Span root(tr, "eval");
    Eval e;
    const sim::System& sys = *c.system;
    const program::Program& prog = sys.appProg();
    const profile::Profile& prof = c.profiles->app;
    const sim::PlatformParams platform = sim::PlatformParams::sim21364();

    core::PipelineOptions po;
    po.text_base = sys.config().app_text_base;
    {
        Span s(tr, "core.layout", "kernel-base");
        e.kernel.emplace(core::baselineLayout(sys.kernelProg(),
                                        sys.config().kernel_text_base));
    }
    const std::vector<core::OptCombo> combos =
        spec.search
            ? core::allCombos()
            : std::vector<core::OptCombo>{core::OptCombo::Base,
                                          core::OptCombo::All};
    std::vector<std::pair<std::string, core::Layout>> scored;
    for (core::OptCombo combo : combos) {
        po.combo = combo;
        Span s(tr, "core.layout", safeName(core::comboName(combo)));
        core::Layout l = core::buildLayout(prog, prof, po);
        if (combo == core::OptCombo::Base)
            e.base.emplace(l);
        if (combo == core::OptCombo::All)
            e.opt.emplace(l);
        if (spec.search)
            scored.emplace_back(safeName(core::comboName(combo)),
                                std::move(l));
    }
    e.work["core.layouts"] = static_cast<double>(combos.size() + 1);

    if (spec.search) {
        po.combo = core::OptCombo::All;
        const opt::SearchOptions so = searchOptions(seed);
        std::optional<opt::SearchResult> r;
        {
            Span s(tr, "opt.search");
            r.emplace(opt::searchLayout(prog, prof, po, so, &c.buf,
                                        nullptr, pool));
        }
        tally.check(r->best_objective <= r->seed_objective,
                    "search best_objective <= seed_objective");
        e.sim["opt.objective_ratio"] =
            r->best_objective / r->seed_objective;
        e.work["opt.proxy_evals"] = static_cast<double>(r->proxy_evals);
        e.work["opt.sim_evals"] = static_cast<double>(r->sim_evals);
        e.work["opt.sim_cache_hits"] =
            static_cast<double>(r->sim_cache_hits);
        e.opt.emplace(std::move(r->layout));
        scored.emplace_back("searched", *e.opt);
    }

    // SoA scoring of every layout on the fig04 grid + fig07 i-cache
    // column and the 4KB/2MB iTLB column, app-only stream (search
    // workload only: the serve workloads take their miss rates from
    // the hierarchy walk below, so the SoA kernels stay off their
    // path).
    const std::vector<mem::CacheConfig> configs = icacheColumn();
    const sim::ITlbSpec specs[] = {kItlb4k, kItlb2m};
    for (const auto& [name, layout] : scored) {
        const sim::Replayer rep(c.buf, layout, &*e.kernel);
        sim::ResolvedTraceSoA soa;
        {
            Span s(tr, "sim.resolve");
            soa = rep.resolveSoA(sim::StreamFilter::AppOnly);
        }
        std::vector<sim::ICacheReplayResult> ic;
        {
            Span s(tr, "sim.icache");
            ic = sim::replayICache(soa, configs, simd, pool);
        }
        std::vector<sim::ITlbReplayResult> it;
        {
            Span s(tr, "sim.itlb");
            it = sim::replayITlb(soa, specs, simd, pool);
        }
        const double refs = static_cast<double>(soa.size());
        e.work["sim.resolved_refs"] += refs;
        e.work["sim.icache_ref_configs"] +=
            refs * static_cast<double>(configs.size());
        e.work["sim.itlb_ref_configs"] += refs * std::size(specs);
        const double kinstr = static_cast<double>(soa.instrs) / 1000.0;
        e.sim["score." + name + ".l1i_mpki"] =
            static_cast<double>(ic.back().misses) / kinstr;
        e.sim["score." + name + ".itlb_mpki"] =
            static_cast<double>(it[0].misses) / kinstr;
    }

    // Per-request service times, one hierarchy walk per layout.
    serve::ServiceModelConfig smc;
    smc.platform = platform;
    smc.tenants = spec.tenants;
    std::optional<serve::ServiceModel> base_model, opt_model;
    {
        Span s(tr, "serve.service_model", "base");
        base_model.emplace(c.buf, *e.base, &*e.kernel, smc);
    }
    {
        Span s(tr, "serve.service_model", "opt");
        opt_model.emplace(c.buf, *e.opt, &*e.kernel, smc);
    }
    e.work["serve.service_refs"] =
        2.0 * static_cast<double>(c.buf.size()) * spec.tenants;
    recordService(e, "base", *base_model, platform, tally);
    recordService(e, "opt", *opt_model, platform, tally);
    const serve::ServiceStats& so = opt_model->stats();
    const double kinstr = static_cast<double>(so.instrs) / 1000.0;
    e.sim["l1i_mpki"] =
        spec.search ? e.sim["score.searched.l1i_mpki"]
                    : static_cast<double>(so.mem.l1i.misses) / kinstr;
    e.sim["itlb_mpki"] =
        spec.search ? e.sim["score.searched.itlb_mpki"]
                    : static_cast<double>(so.mem.itlb_misses) / kinstr;
    e.sim["serve.base_capacity_tps"] =
        sys.config().num_cpus /
        (base_model->stats().mean_cycles / (platform.clock_ghz * 1e9));
    e.sim["sim_speedup"] =
        static_cast<double>(base_model->stats().total_cycles) /
        static_cast<double>(opt_model->stats().total_cycles);

    serve::QueueConfig qc;
    qc.shards = sys.config().num_cpus;
    qc.queue_bound = kQueueBound;
    qc.seed = seed;
    const std::vector<std::uint64_t>& service = opt_model->requestCycles();
    for (const LoadPoint& lp : kLoads) {
        const serve::ServingResult r =
            serveAt(lp.fraction * spec.base_capacity_tps, lp.kind,
                    lp.requests, service, platform, qc, seed, pool, tr,
                    e, tally);
        const std::string t = lp.tag;
        e.sim["p50_us." + t] = sim::cyclesToMicros(r.p50, platform);
        e.sim["p999_us." + t] = sim::cyclesToMicros(r.p999, platform);
        e.sim["serve.completed." + t] = static_cast<double>(r.completed);
        e.sim["drop_ratio." + t] = static_cast<double>(r.dropped) /
                                   static_cast<double>(r.offered);
        e.sim["serve.utilization." + t] = r.utilization;
        std::uint64_t deepest = 0;
        for (std::size_t d = 0; d < r.depth_hist.size(); ++d)
            if (r.depth_hist[d] != 0)
                deepest = d;
        e.sim["serve.depth_max." + t] = static_cast<double>(deepest);
    }

    // Highest Poisson rate meeting the SLO: p999 within the limit, no
    // drops, and the backlog left at the horizon drains within the
    // limit (a growing backlog would not). Bisection over a fixed
    // bracket, so the answer is exact per seed.
    const std::uint64_t limit = static_cast<std::uint64_t>(
        spec.slo_p999_us * platform.clock_ghz * 1e3);
    const auto meets = [&](double tps) {
        const serve::ServingResult r =
            serveAt(tps, serve::ArrivalKind::Poisson, kSloRequests,
                    service, platform, qc, seed, pool, tr, e, tally);
        return r.p999 <= limit && r.dropped == 0 &&
               r.makespan_cycles <= r.horizon_cycles + limit;
    };
    double lo = 0.40 * spec.base_capacity_tps;
    double hi = 1.20 * spec.base_capacity_tps;
    double best = 0.0;
    {
        Span s(tr, "serve.slo_search");
        if (meets(lo)) {
            best = lo;
            for (int i = 0; i < kSloSteps; ++i) {
                const double mid = 0.5 * (lo + hi);
                if (meets(mid))
                    lo = best = mid;
                else
                    hi = mid;
            }
        }
    }
    tally.check(best > 0.0, "SLO met at the bracket's low end");
    e.sim["slo_rate_tps"] = best;
    return e;
}

// ---------------------------------------------------------------------
// Self-checks of the traced run (differential, outside timed regions).

void
crossCheck(const WorkloadSpec& spec, const Capture& c, Eval& e,
           sim::SimdMode simd, support::ThreadPool* pool, Tally& tally)
{
    const sim::PlatformParams platform = sim::PlatformParams::sim21364();
    const mem::HierarchyConfig& h = platform.hierarchy;

    // Solo service-model cycles sum to the hierarchy replay's
    // non-idle cycles.
    serve::ServiceModelConfig smc;
    smc.platform = platform;
    const serve::ServiceModel solo(c.buf, *e.base, &*e.kernel, smc);
    const sim::Replayer base_rep(c.buf, *e.base, &*e.kernel);
    const sim::HierarchyReplayResult hr = base_rep.hierarchy(h, true);
    std::uint64_t summed = 0;
    for (std::uint64_t v : solo.requestCycles())
        summed += v;
    tally.check(summed == sim::nonIdleCycles(hr.total, hr.instrs, platform,
                                             hr.fetch_breaks),
                "service cycles == Replayer::hierarchy non-idle cycles");

    // One engine i-cache column entry equals the scalar oracle.
    const sim::Replayer opt_rep(c.buf, *e.opt, &*e.kernel);
    const sim::ResolvedTraceSoA soa =
        opt_rep.resolveSoA(sim::StreamFilter::AppOnly);
    const auto column = sim::replayICache(
        soa, std::span<const mem::CacheConfig>(&kFig07, 1), simd, pool);
    const sim::ICacheReplayResult scalar =
        opt_rep.icache(kFig07, sim::StreamFilter::AppOnly);
    tally.check(column[0].misses == scalar.misses &&
                    column[0].accesses == scalar.accesses,
                "SoA i-cache column == scalar Replayer::icache");

    // App/kernel split of the hierarchy's L1I misses: the L1I is
    // private per (tenant, CPU) and unsalted, so every tenant sees the
    // solo stream and the split times the tenant count must add up to
    // the service model's L1I misses.
    for (const char* tag : {"base", "opt"}) {
        const core::Layout& l = std::string(tag) == "base" ? *e.base
                                                           : *e.opt;
        const sim::Replayer rep(c.buf, l, &*e.kernel);
        const sim::ICacheReplayResult r =
            rep.icache(h.l1i, sim::StreamFilter::Combined);
        const std::string t = tag;
        e.sim["mem.l1i_misses.app." + t] =
            static_cast<double>(r.app_misses * spec.tenants);
        e.sim["mem.l1i_misses.kernel." + t] =
            static_cast<double>(r.kernel_misses * spec.tenants);
        tally.check(
            static_cast<double>(r.misses * spec.tenants) ==
                e.sim["mem.l1i_misses." + t],
            "L1I app+kernel split == service model L1I misses (" + t +
                ")");
    }
}

// ---------------------------------------------------------------------
// Reporting.

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Span names the benchmark records, in setup and in evaluation. */
const char* const kSetupSpans[] = {"setup", "synth.image_build", "db.load",
                                   "db.warmup", "profile.collect",
                                   "trace.capture"};
const char* const kEvalSpans[] = {
    "eval",        "core.layout",         "opt.search",
    "sim.resolve", "sim.icache",          "sim.itlb",
    "serve.service_model", "serve.arrivals", "serve.simulate",
    "serve.slo_search"};

/** Per-layer host numbers of one traced evaluation plus its setup. */
std::map<std::string, double>
layerMetrics(const Tracer& tr, std::size_t setup_mark,
             std::size_t setup_end, std::size_t eval_mark, const Eval& e,
             const Capture& c, int threads)
{
    std::map<std::string, double> m;
    const auto setup = tr.layerTimes(setup_mark, setup_end);
    const auto eval = tr.layerTimes(eval_mark, tr.size());
    const auto get = [](const std::map<std::string, perfbench::LayerTime>&
                            t,
                        const std::string& n) {
        const auto it = t.find(n);
        return it == t.end() ? perfbench::LayerTime{} : it->second;
    };
    const auto work = [&](const std::string& n) {
        const auto it = e.work.find(n);
        return it == e.work.end() ? 0.0 : it->second;
    };

    // Capture layers.
    const double capture_s = get(setup, "trace.capture").total;
    const double txn_s = get(setup, "db.warmup").total +
                         get(setup, "profile.collect").total + capture_s;
    m["synth.image_build_s"] = get(setup, "synth.image_build").total;
    m["db.load_s"] = get(setup, "db.load").total;
    m["db.warmup_s"] = get(setup, "db.warmup").total;
    m["db.txn_per_s"] = ratio(static_cast<double>(c.requests), txn_s);
    m["db.aborts"] = static_cast<double>(c.aborts);
    m["trace.capture_s"] = capture_s;
    m["trace.events"] = static_cast<double>(c.buf.size());
    m["trace.events_per_s"] =
        ratio(static_cast<double>(c.buf.size()), capture_s);
    m["profile.collect_s"] = get(setup, "profile.collect").total;

    // Layout layers.
    m["core.layout_s"] = get(eval, "core.layout").total;
    m["core.layouts"] = work("core.layouts");
    for (core::OptCombo combo : core::allCombos()) {
        const std::string n = safeName(core::comboName(combo));
        m["core.layout_s." + n] =
            tr.detailTotal(eval_mark, tr.size(), "core.layout", n);
    }
    const perfbench::LayerTime search = get(eval, "opt.search");
    m["opt.search_s"] = search.total;
    m["opt.proxy_evals"] = work("opt.proxy_evals");
    m["opt.proxy_evals_per_s"] =
        ratio(work("opt.proxy_evals"), search.total);
    m["opt.sim_evals"] = work("opt.sim_evals");
    m["opt.sim_cache_hit_ratio"] =
        ratio(work("opt.sim_cache_hits"),
              work("opt.sim_cache_hits") + work("opt.sim_evals"));
    m["opt.cpu_util"] = ratio(search.cpu, search.total * threads);
    const auto obj = e.sim.find("opt.objective_ratio");
    m["opt.objective_ratio"] = obj == e.sim.end() ? 0.0 : obj->second;

    // Replay layers.
    const perfbench::LayerTime resolve = get(eval, "sim.resolve");
    const perfbench::LayerTime icache = get(eval, "sim.icache");
    const perfbench::LayerTime itlb = get(eval, "sim.itlb");
    m["sim.resolve_s"] = resolve.total;
    m["sim.resolved_refs"] = work("sim.resolved_refs");
    m["sim.icache_s"] = icache.total;
    m["sim.icache_refs_per_s"] =
        ratio(work("sim.icache_ref_configs"), icache.total);
    m["sim.itlb_s"] = itlb.total;
    m["sim.itlb_refs_per_s"] =
        ratio(work("sim.itlb_ref_configs"), itlb.total);
    const double sim_wall = resolve.total + icache.total + itlb.total;
    m["sim.cpu_util"] =
        ratio(resolve.cpu + icache.cpu + itlb.cpu, sim_wall * threads);

    // Serving layers.
    const perfbench::LayerTime svc = get(eval, "serve.service_model");
    const perfbench::LayerTime simulate = get(eval, "serve.simulate");
    m["serve.service_model_s"] = svc.total;
    m["serve.service_ns_per_ref"] =
        ratio(svc.total * 1e9, work("serve.service_refs"));
    m["serve.service_cpu_util"] = ratio(svc.cpu, svc.total * threads);
    m["serve.arrivals_s"] = get(eval, "serve.arrivals").total;
    m["serve.simulate_s"] = simulate.total;
    m["serve.sim_requests_per_s"] =
        ratio(work("serve.requests"), simulate.total);

    // Self time of every layer span; 0 where a workload skips a layer.
    for (const char* name : kSetupSpans)
        m[std::string("self_s.") + name] = get(setup, name).self;
    for (const char* name : kEvalSpans)
        m[std::string("self_s.") + name] = get(eval, name).self;
    return m;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec& spec = *o.workload;

    // Fixed kernel: Auto calibration flips between AVX2 and AVX-512
    // from run to run, which would split eval_s into two clusters.
    const sim::SimdMode simd = sim::simdAvailable() ? sim::SimdMode::Simd
                                                    : sim::SimdMode::Scalar;
    const sim::KernelChoice kernel = sim::resolveKernel(simd);
    support::ThreadPool pool(o.threads);

    Tracer tr;
    const std::string run_key =
        std::string(spec.name) + "/" + std::to_string(o.seed);
    tr.run_id = support::fnv1a64(run_key.data(), run_key.size());

    std::cout << "settings: workload=" << spec.name << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << " threads=" << o.threads
              << " simd_kernel=" << sim::kernelName(kernel.kind)
              << " (fixed by the benchmark: avx2 when runnable, else "
                 "scalar)"
              << " setups=" << kSetups << " txns=" << spec.warmup << "/"
              << spec.profile << "/" << spec.trace
              << " tenants=" << spec.tenants << "\n";

    Tally tally;
    std::vector<double> setup_times;
    std::optional<Capture> cap;
    std::uint64_t first_fingerprint = 0;
    std::size_t setup_mark = 0, setup_end = 0;
    for (int k = 0; k < kSetups; ++k) {
        cap.reset();
        tr.enabled = o.trace && k == kSetups - 1;
        setup_mark = tr.size();
        const double t0 = wallNow();
        cap.emplace(capture(spec, o.seed, tr, tally));
        setup_times.push_back(wallNow() - t0);
        setup_end = tr.size();
        if (k == 0)
            first_fingerprint = cap->fingerprint;
        tally.check(cap->fingerprint == first_fingerprint,
                    "repeated capture is identical");
    }

    std::vector<double> untraced, traced;
    std::vector<std::map<std::string, double>> layer_reps;
    std::optional<Eval> first;
    const double start = wallNow();
    for (int rep = 0;
         rep < (o.trace ? 2 : 1) || wallNow() - start < o.seconds; ++rep) {
        tr.enabled = o.trace && rep % 2 == 1;
        const std::size_t mark = tr.size();
        const double t0 = wallNow();
        Eval e = evaluate(spec, *cap, o.seed, simd, &pool, tr, tally);
        (tr.enabled ? traced : untraced).push_back(wallNow() - t0);
        if (tr.enabled)
            layer_reps.push_back(layerMetrics(tr, setup_mark, setup_end,
                                              mark, e, *cap, o.threads));
        if (!first)
            first.emplace(std::move(e));
        else
            tally.check(e.sim == first->sim,
                        "repeated evaluation is identical");
    }
    tr.enabled = false;

    Eval& e = *first;
    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", median(setup_times), "s"},
            {"eval_s", median(untraced), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_speedup", e.sim["sim_speedup"], "x"},
            {"p50_us.load60", e.sim["p50_us.load60"], "us"},
            {"p999_us.load60", e.sim["p999_us.load60"], "us"},
            {"p50_us.load97", e.sim["p50_us.load97"], "us"},
            {"p999_us.load97", e.sim["p999_us.load97"], "us"},
            {"p50_us.bursty85", e.sim["p50_us.bursty85"], "us"},
            {"p999_us.bursty85", e.sim["p999_us.bursty85"], "us"},
            {"slo_rate_tps", e.sim["slo_rate_tps"], "req/s"},
            {"l1i_mpki", e.sim["l1i_mpki"], "miss/kinstr"},
            {"itlb_mpki", e.sim["itlb_mpki"], "miss/kinstr"},
        };
    } else {
        crossCheck(spec, *cap, e, simd, &pool, tally);
        std::map<std::string, double> m;
        for (const auto& [name, v] : layer_reps.front()) {
            std::vector<double> vals;
            for (const auto& r : layer_reps)
                vals.push_back(r.at(name));
            m[name] = median(vals);
        }
        for (const char* key :
             {"mem.l1i_misses.app", "mem.l1i_misses.kernel",
              "mem.l2_misses", "mem.itlb_misses", "mem.fetch_breaks",
              "mem.instrs", "timing.cycles.base", "timing.cycles.fetch_break",
              "timing.cycles.l2_hit", "timing.cycles.memory",
              "timing.cycles.itlb", "timing.cycles.remote",
              "timing.cycles.total", "serve.mean_service_us",
              "serve.p99_service_us"})
            for (const char* tag : {"base", "opt"}) {
                const std::string n = std::string(key) + "." + tag;
                m[n] = e.sim.at(n);
            }
        for (const char* n :
             {"serve.utilization.load97", "serve.depth_max.load97",
              "serve.completed.load97"})
            m[n] = e.sim.at(n);
        m["serve.drop_ratio.load97"] = e.sim.at("drop_ratio.load97");
        m["trace.eval_traced_s"] = median(traced);
        m["trace.eval_untraced_s"] = median(untraced);
        m["trace.overhead_s"] = median(traced) - median(untraced);
        for (const auto& [name, v] : m) {
            std::string unit = "count";
            if (name.ends_with("_per_s"))
                unit = "1/s";
            else if (name.ends_with("_s") || name.starts_with("self_s.") ||
                     name.starts_with("core.layout_s."))
                unit = "s";
            else if (name.find("_us.") != std::string::npos)
                unit = "us";
            else if (name.starts_with("timing.cycles."))
                unit = "cycles";
            else if (name.ends_with("_ns_per_ref"))
                unit = "ns/ref";
            else if (name.find("util") != std::string::npos ||
                     name.find("ratio") != std::string::npos)
                unit = "ratio";
            metrics.push_back({name, v, unit});
        }
        if (!o.spans_out.empty() && !tr.writeChromeTrace(o.spans_out))
            std::cerr << "perfbench: cannot write " << o.spans_out << "\n";
    }

    // Simulated values on one line: byte-identical per seed across
    // runs and pool widths.
    std::cout << "sim:";
    for (const auto& [name, v] : e.sim)
        std::cout << " " << name << "=" << num(v);
    std::cout << "\n";
    std::cout << "sim_speedup: " << num(e.sim["sim_speedup"])
              << "x base/optimized service cycles on sim21364 (paper: "
                 "1.33x non-idle cycles; the model is unvalidated against "
                 "hardware, so no error figure is given)\n";
    // p999 is the highest percentile with >= 10 samples beyond it once
    // a load point completes >= 10000 requests.
    std::cout << "serve: completed requests per load point:";
    for (const LoadPoint& lp : kLoads)
        std::cout << " " << lp.tag << "="
                  << num(e.sim[std::string("serve.completed.") + lp.tag]);
    std::cout << "\nsetup times:";
    for (double t : setup_times)
        std::cout << " " << num(t);
    std::cout << "\neval times untraced:";
    for (double t : untraced)
        std::cout << " " << num(t);
    std::cout << "\neval times traced:";
    for (double t : traced)
        std::cout << " " << num(t);
    std::cout << "\n";

    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.ops);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + num(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
