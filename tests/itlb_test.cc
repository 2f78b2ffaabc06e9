/** @file Tests for the instruction TLB model. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/itlb.hh"

namespace spikesim::mem {
namespace {

constexpr std::uint64_t kPage = 8 * 1024;

TEST(ITlb, MissThenHitSamePage)
{
    ITlb tlb(4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1ffc));
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(ITlb, CapacityEviction)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    tlb.access(2 * kPage); // evicts page 0 (LRU)
    EXPECT_FALSE(tlb.access(0 * kPage));
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(ITlb, LruOrderRespectsRecency)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    tlb.access(0 * kPage); // page 0 recent; page 1 is LRU
    tlb.access(2 * kPage); // evicts page 1
    EXPECT_TRUE(tlb.access(0 * kPage));
    EXPECT_FALSE(tlb.access(1 * kPage));
}

TEST(ITlb, SamePageFilterStillUpdatesRecency)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    // Long run inside page 1 through the same-page fast path.
    for (int i = 0; i < 100; ++i)
        tlb.access(1 * kPage + static_cast<std::uint64_t>(i) * 4);
    tlb.access(2 * kPage); // must evict page 0, not the hot page 1
    EXPECT_TRUE(tlb.access(1 * kPage));
    EXPECT_FALSE(tlb.access(0 * kPage));
}

TEST(ITlb, CustomPageSize)
{
    ITlb tlb(4, 4096);
    tlb.access(0);
    EXPECT_FALSE(tlb.access(4096)); // different 4KB page
    EXPECT_TRUE(tlb.access(4100));
}

TEST(ITlb, ResetClears)
{
    ITlb tlb(4);
    tlb.access(0);
    tlb.reset();
    EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
    EXPECT_FALSE(tlb.access(0));
}

/** Hit/miss sequence of a list of page numbers. */
std::vector<bool>
replay(ITlb& tlb, const std::vector<std::uint64_t>& pages)
{
    std::vector<bool> hits;
    hits.reserve(pages.size());
    for (std::uint64_t p : pages)
        hits.push_back(tlb.access(p * kPage));
    return hits;
}

TEST(ITlb, CopiesAndMovesOfAWarmedTlbAreIndependent)
{
    // Warm 2 entries with pages 0 then 1: the one-entry filter now
    // holds page 1.
    const std::vector<std::uint64_t> warm = {0, 1};
    // A long run inside page 1 (the filter's fast path).
    const std::vector<std::uint64_t> run(100, 1);
    // LRU probe: page 1 is older than page 0 here, so page 2 must
    // evict page 1 and keep page 0.
    const std::vector<std::uint64_t> probe = {0, 2, 0, 1};
    const std::vector<bool> probe_hits = {true, false, true, false};

    ITlb source(2);
    replay(source, warm);
    ITlb copy = source;
    // The copy's fast path must stamp the copy's entry, not the
    // source's: the source must still see page 1 as least recent.
    EXPECT_EQ(replay(copy, run), std::vector<bool>(run.size(), true));
    EXPECT_EQ(replay(source, probe), probe_hits);

    // The copy itself tracks an untouched twin.
    ITlb twin(2);
    replay(twin, warm);
    replay(twin, run);
    EXPECT_EQ(replay(copy, probe), replay(twin, probe));
    EXPECT_EQ(copy.hits(), twin.hits());
    EXPECT_EQ(copy.misses(), twin.misses());

    // A moved-to TLB and a copy that outlives its source behave like
    // a freshly warmed one.
    ITlb moved_src(2);
    replay(moved_src, warm);
    ITlb moved = std::move(moved_src);
    replay(moved, run);
    EXPECT_EQ(replay(moved, probe), probe_hits);

    ITlb survivor(1);
    {
        ITlb doomed(2);
        replay(doomed, warm);
        survivor = doomed;
    }
    replay(survivor, run);
    EXPECT_EQ(replay(survivor, probe), probe_hits);
}

} // namespace
} // namespace spikesim::mem
