/**
 * @file
 * Unit and differential tests for the SIMD kernel dispatch
 * (sim/kernels.hh) and the kernels' replay over the resolved columns
 * (sim/soa.hh):
 *
 *  - SPIKESIM_SIMD parsing is strict — unset/empty means Auto, "0",
 *    "1" and "2" force a kernel, and anything else is a fatal user
 *    error (death-tested, since support::fatal exits).
 *  - resolveKernel: explicit modes win over the environment, Auto
 *    consults the env then the startup calibration, every choice
 *    carries a human-readable reason, and forcing a vector kernel on
 *    a host that cannot run it dies instead of silently falling back
 *    (both the AVX2 and AVX-512 tiers).
 *  - The i-cache kernels match the scalar Replayer oracle on geometry
 *    the vector fast paths do NOT cover (3-way and 6-way sets take the
 *    generic scalar probe inside the vector builds) mixed with
 *    geometry they do (direct-mapped, 4-way, 8-way), across several
 *    line sizes in one fused column — so group construction, the
 *    span-segmented DM probes, and the per-assoc dispatch all get
 *    exercised in a single replay, under every runnable kernel.
 *  - An inconsistent cache geometry panics with "bad cache config"
 *    under every kernel, serial and on a pool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/** RAII guard: sets/unsets SPIKESIM_SIMD and restores it on exit. */
class SimdEnvGuard
{
  public:
    explicit SimdEnvGuard(const char* value)
    {
        const char* old = std::getenv("SPIKESIM_SIMD");
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value == nullptr)
            ::unsetenv("SPIKESIM_SIMD");
        else
            ::setenv("SPIKESIM_SIMD", value, 1);
    }

    ~SimdEnvGuard()
    {
        if (had_old_)
            ::setenv("SPIKESIM_SIMD", old_.c_str(), 1);
        else
            ::unsetenv("SPIKESIM_SIMD");
    }

  private:
    bool had_old_ = false;
    std::string old_;
};

Program
randomProgram(const char* name, int blocks, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    Program p(name);
    for (int i = 0; i < blocks; i += 2) {
        ProcedureBuilder b("p" + std::to_string(i));
        auto a = b.addBlock(1 + rng.nextBounded(32),
                            Terminator::FallThrough);
        auto r = b.addBlock(1 + rng.nextBounded(32), Terminator::Return);
        b.addEdge(a, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    EXPECT_EQ(p.validate(), "");
    return p;
}

trace::TraceBuffer
randomTrace(int blocks, int events, int num_cpus, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    trace::TraceBuffer buf;
    std::vector<trace::ExecContext> ctx(num_cpus);
    std::vector<std::uint32_t> cur(num_cpus, 0);
    for (int c = 0; c < num_cpus; ++c)
        ctx[c].cpu = static_cast<std::uint8_t>(c);
    for (int i = 0; i < events; ++i) {
        int c = static_cast<int>(
            rng.nextBounded(static_cast<std::uint32_t>(num_cpus)));
        if (rng.nextBool(0.15))
            cur[c] = rng.nextBounded(static_cast<std::uint32_t>(blocks));
        else
            cur[c] = static_cast<std::uint32_t>(
                (cur[c] + 1) % static_cast<std::uint32_t>(blocks));
        trace::ImageId image = rng.nextBool(0.3)
                                   ? trace::ImageId::Kernel
                                   : trace::ImageId::App;
        buf.onBlock(ctx[c], image, cur[c]);
        if (rng.nextBool(0.1))
            buf.onData(ctx[c], 0x80000000ULL + rng.nextBounded(1 << 14));
    }
    return buf;
}

/** One self-contained random workload. */
struct Workload
{
    Program app;
    Program kern;
    core::Layout app_layout;
    core::Layout kern_layout;
    trace::TraceBuffer buf;
    Replayer rep;

    Workload(int num_cpus, std::uint32_t seed)
        : app(randomProgram("app", 120, seed)),
          kern(randomProgram("kern", 120, seed + 1)),
          app_layout(core::baselineLayout(app, 0)),
          kern_layout(core::baselineLayout(kern, 0x400000)),
          buf(randomTrace(120, 20000, num_cpus, seed + 2)),
          rep(buf, app_layout, &kern_layout)
    {
    }
};

TEST(SimdDispatch, EnvParseIsStrict)
{
    {
        SimdEnvGuard guard(nullptr);
        EXPECT_EQ(simdModeFromEnv(), SimdMode::Auto);
    }
    {
        SimdEnvGuard guard("");
        EXPECT_EQ(simdModeFromEnv(), SimdMode::Auto);
    }
    {
        SimdEnvGuard guard("0");
        EXPECT_EQ(simdModeFromEnv(), SimdMode::Scalar);
    }
    {
        SimdEnvGuard guard("1");
        EXPECT_EQ(simdModeFromEnv(), SimdMode::Simd);
    }
    {
        SimdEnvGuard guard("2");
        EXPECT_EQ(simdModeFromEnv(), SimdMode::Avx512);
    }
}

TEST(SimdDispatchDeathTest, EnvParseRejectsJunk)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char* junk : {"3", "yes", "true", "01", " 1", " 2"}) {
        SimdEnvGuard guard(junk);
        EXPECT_DEATH(simdModeFromEnv(),
                     "SPIKESIM_SIMD must be \"0\", \"1\" or \"2\"")
            << junk;
    }
}

TEST(SimdDispatch, ResolveHonorsExplicitAndAutoModes)
{
    // Explicit Scalar ignores the environment entirely.
    {
        SimdEnvGuard guard("1");
        const KernelChoice c = resolveKernel(SimdMode::Scalar);
        EXPECT_EQ(c.kind, KernelKind::Scalar);
        EXPECT_NE(c.reason.find("forced by caller"), std::string::npos)
            << c.reason;
    }
    // Auto follows the env when set...
    {
        SimdEnvGuard guard("0");
        const KernelChoice c = resolveKernel(SimdMode::Auto);
        EXPECT_EQ(c.kind, KernelKind::Scalar);
        EXPECT_NE(c.reason.find("SPIKESIM_SIMD"), std::string::npos)
            << c.reason;
    }
    if (simdAvailable()) {
        SimdEnvGuard guard("1");
        EXPECT_EQ(resolveKernel(SimdMode::Auto).kind,
                  KernelKind::Avx2);
    }
    if (avx512Available()) {
        SimdEnvGuard guard("2");
        EXPECT_EQ(resolveKernel(SimdMode::Auto).kind,
                  KernelKind::Avx512);
    }
    // ...and the calibrated choice when not: whatever kernel wins, it
    // must be runnable here and must say why it was picked.
    {
        SimdEnvGuard guard(nullptr);
        const KernelChoice c = resolveKernel(SimdMode::Auto);
        if (c.kind == KernelKind::Avx2)
            EXPECT_TRUE(simdAvailable());
        if (c.kind == KernelKind::Avx512)
            EXPECT_TRUE(avx512Available());
        EXPECT_NE(c.reason.find("auto"), std::string::npos)
            << c.reason;
        // Calibration is cached: resolving again returns the same
        // choice without re-timing.
        const KernelChoice again = resolveKernel(SimdMode::Auto);
        EXPECT_EQ(again.kind, c.kind);
        EXPECT_EQ(again.reason, c.reason);
    }
    if (simdAvailable()) {
        SimdEnvGuard guard("0");
        // Explicit Simd wins over a scalar-forcing environment.
        EXPECT_EQ(resolveKernel(SimdMode::Simd).kind,
                  KernelKind::Avx2);
    }
    EXPECT_STREQ(kernelName(KernelKind::Scalar), "scalar");
    EXPECT_STREQ(kernelName(KernelKind::Avx2), "avx2");
    EXPECT_STREQ(kernelName(KernelKind::Avx512), "avx512");
    // Compiled-but-no-CPU can't be simulated here, but the implication
    // must hold: available implies compiled.
    if (simdAvailable()) {
        EXPECT_TRUE(simdKernelsCompiled());
    }
    if (avx512Available()) {
        EXPECT_TRUE(avx512KernelsCompiled());
    }
}

TEST(SimdDispatchDeathTest, ForcingSimdWithoutSupportDies)
{
    if (simdAvailable())
        GTEST_SKIP() << "host can run the AVX2 kernels";
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(resolveKernel(SimdMode::Simd),
                 "SIMD kernels requested but unavailable");
}

TEST(SimdDispatchDeathTest, ForcingAvx512WithoutSupportDies)
{
    if (avx512Available())
        GTEST_SKIP() << "host can run the AVX-512 kernels";
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(resolveKernel(SimdMode::Avx512),
                 "AVX-512 kernels requested but unavailable");
    // The environment route must die identically: strict parsing
    // accepts "2", then availability checking rejects it.
    SimdEnvGuard guard("2");
    EXPECT_DEATH(resolveKernel(SimdMode::Auto),
                 "AVX-512 kernels requested but unavailable");
}

/**
 * Mixed geometry fuzz: odd associativities (3-way, 6-way) ride the
 * generic probe inside the AVX2 build, 4-way and 8-way take the vector
 * set probes, direct-mapped configs of several line sizes take the
 * gather probe — all fused into one column so the line-size groups and
 * the nested-mask DM inclusion fast path are in play.
 */
TEST(SimdKernels, OddAssocAndMixedGeometryMatchOracle)
{
    const std::vector<mem::CacheConfig> configs = {
        {16 * 1024, 64, 1},  {64 * 1024, 64, 1},  {8 * 1024, 32, 2},
        {48 * 1024, 64, 3},  {64 * 1024, 128, 4}, {24 * 1024, 32, 6},
        {64 * 1024, 128, 8}, {32 * 1024, 256, 1}, {128 * 1024, 256, 4},
    };
    std::vector<SimdMode> modes{SimdMode::Scalar};
    if (simdAvailable())
        modes.push_back(SimdMode::Simd);
    if (avx512Available())
        modes.push_back(SimdMode::Avx512);
    support::ThreadPool pool(3);
    std::vector<support::ThreadPool*> pools{nullptr, &pool};
    for (int cpus : {1, 4}) {
        Workload w(cpus, 7100 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::Combined}) {
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<ICacheReplayResult> oracle;
            for (const auto& c : configs)
                oracle.push_back(w.rep.icache(c, filter));
            for (SimdMode mode : modes) {
                for (support::ThreadPool* p : pools) {
                    auto col = replayICache(soa, configs, mode, p);
                    ASSERT_EQ(col.size(), oracle.size());
                    for (std::size_t i = 0; i < oracle.size(); ++i) {
                        EXPECT_EQ(col[i].accesses, oracle[i].accesses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].misses, oracle[i].misses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].app_misses,
                                  oracle[i].app_misses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].kernel_misses,
                                  oracle[i].kernel_misses)
                            << "cfg " << i;
                        for (int m = 0; m < 2; ++m)
                            for (int v = 0; v < 3; ++v)
                                EXPECT_EQ(
                                    col[i].interference.counts[m][v],
                                    oracle[i].interference.counts[m][v])
                                    << "cfg " << i;
                    }
                }
            }
        }
    }
}

/**
 * A geometry whose size is not a multiple of line x assoc (or is not a
 * power of two) must panic, never replay garbage: every kernel checks
 * its configs before walking a shard, and a shard that panics on a
 * pool worker takes the process down the same way.
 */
TEST(SimdKernelsDeathTest, BadGeometryPanicsWithAndWithoutAPool)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Workload w(2, 7200);
    const ResolvedTraceSoA soa = w.rep.resolveSoA(StreamFilter::AppOnly);
    const std::vector<mem::CacheConfig> bad = {{64 * 1024, 64, 1},
                                               {1000, 64, 1}};
    std::vector<SimdMode> modes{SimdMode::Scalar};
    if (simdAvailable())
        modes.push_back(SimdMode::Simd);
    if (avx512Available())
        modes.push_back(SimdMode::Avx512);
    for (SimdMode mode : modes) {
        EXPECT_DEATH((void)replayICache(soa, bad, mode, nullptr),
                     "bad cache config");
        EXPECT_DEATH(
            {
                support::ThreadPool pool(2);
                (void)replayICache(soa, bad, mode, &pool);
            },
            "bad cache config");
    }
}

} // namespace
} // namespace spikesim::sim
