/**
 * @file
 * BuddyAllocator: split/coalesce correctness, alignment, exhaustion,
 * ballooning removal, and a property sweep that hammers random
 * alloc/free sequences and then checks full-coalescing invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "guestos/buddy_allocator.hh"
#include "sim/rng.hh"

namespace {

using namespace hos::guestos;

struct BuddyFixture : ::testing::Test
{
    static constexpr std::uint64_t span = 1 << 14; // 16K pages
    PageArray pages{span};
    BuddyAllocator buddy{pages, 0, span};

    void
    SetUp() override
    {
        buddy.addFreeRange(0, span);
    }
};

TEST_F(BuddyFixture, StartsFullyFree)
{
    EXPECT_EQ(buddy.freePages(), span);
    EXPECT_EQ(buddy.managedPages(), span);
    buddy.checkInvariants();
}

TEST_F(BuddyFixture, AllocMarksPagesAllocated)
{
    const Gpfn pfn = buddy.alloc(3);
    ASSERT_NE(pfn, invalidGpfn);
    EXPECT_EQ(pfn % 8, 0u) << "order-3 block must be aligned";
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pages.page(pfn + i).allocated());
    EXPECT_EQ(buddy.freePages(), span - 8);
    buddy.checkInvariants();
}

TEST_F(BuddyFixture, FreeCoalescesBackToMaximalBlocks)
{
    std::vector<Gpfn> held;
    for (int i = 0; i < 64; ++i)
        held.push_back(buddy.alloc(0));
    for (Gpfn pfn : held)
        buddy.free(pfn, 0);
    EXPECT_EQ(buddy.freePages(), span);
    buddy.checkInvariants();
    // Everything should have coalesced into max-order blocks again.
    EXPECT_EQ(buddy.freeBlocks(BuddyAllocator::maxOrder - 1),
              span >> (BuddyAllocator::maxOrder - 1));
}

TEST_F(BuddyFixture, ExhaustionReturnsInvalid)
{
    std::uint64_t got = 0;
    while (buddy.alloc(0) != invalidGpfn)
        ++got;
    EXPECT_EQ(got, span);
    EXPECT_EQ(buddy.alloc(0), invalidGpfn);
    EXPECT_EQ(buddy.freePages(), 0u);
}

TEST_F(BuddyFixture, LargeOrderAfterFragmentationFails)
{
    // Allocate everything, free every other page: max fragmentation.
    std::vector<Gpfn> held;
    while (true) {
        const Gpfn pfn = buddy.alloc(0);
        if (pfn == invalidGpfn)
            break;
        held.push_back(pfn);
    }
    for (std::size_t i = 0; i < held.size(); i += 2)
        buddy.free(held[i], 0);
    EXPECT_EQ(buddy.alloc(1), invalidGpfn);
    EXPECT_GT(buddy.freePages(), 0u);
    buddy.checkInvariants();
}

TEST_F(BuddyFixture, RemoveFreePagePrefersSmallBlocks)
{
    const Gpfn a = buddy.alloc(0); // creates small split blocks
    const Gpfn removed = buddy.removeFreePage();
    ASSERT_NE(removed, invalidGpfn);
    EXPECT_EQ(buddy.managedPages(), span - 1);
    // Give it back via addFreeRange (balloon deflate).
    buddy.addFreeRange(removed, 1);
    EXPECT_EQ(buddy.managedPages(), span);
    buddy.free(a, 0);
    buddy.checkInvariants();
}

TEST_F(BuddyFixture, DoubleFreePanics)
{
    const Gpfn pfn = buddy.alloc(0);
    buddy.free(pfn, 0);
    EXPECT_DEATH(buddy.free(pfn, 0), "double free|freeing");
}

TEST(BuddyAllocator, NonZeroBaseBlocks)
{
    PageArray pages(1 << 12);
    BuddyAllocator buddy(pages, 1024, 2048);
    buddy.addFreeRange(1024, 2048);
    const Gpfn pfn = buddy.alloc(4);
    ASSERT_NE(pfn, invalidGpfn);
    EXPECT_GE(pfn, 1024u);
    EXPECT_LT(pfn + 16, 1024u + 2048u);
    EXPECT_EQ((pfn - 1024) % 16, 0u) << "alignment is base-relative";
    buddy.free(pfn, 4);
    buddy.checkInvariants();
}

/** Property sweep: random alloc/free traffic preserves invariants. */
class BuddyChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuddyChurn, RandomTrafficKeepsInvariants)
{
    const std::uint64_t seed = GetParam();
    hos::sim::Rng rng(seed);
    constexpr std::uint64_t span = 1 << 13;
    PageArray pages(span);
    BuddyAllocator buddy(pages, 0, span);
    buddy.addFreeRange(0, span);

    std::vector<std::pair<Gpfn, unsigned>> held;
    for (int step = 0; step < 4000; ++step) {
        if (held.empty() || rng.chance(0.55)) {
            const auto order = static_cast<unsigned>(rng.uniformInt(5));
            const Gpfn pfn = buddy.alloc(order);
            if (pfn != invalidGpfn)
                held.emplace_back(pfn, order);
        } else {
            const auto idx = rng.uniformInt(held.size());
            buddy.free(held[idx].first, held[idx].second);
            held[idx] = held.back();
            held.pop_back();
        }
    }
    buddy.checkInvariants();
    std::uint64_t held_pages = 0;
    for (auto [pfn, order] : held)
        held_pages += 1ull << order;
    EXPECT_EQ(buddy.freePages() + held_pages, span);

    for (auto [pfn, order] : held)
        buddy.free(pfn, order);
    EXPECT_EQ(buddy.freePages(), span);
    buddy.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyChurn,
                         ::testing::Values(1, 7, 42, 1337, 99991));

/** Everything a batch form must leave exactly as the per-page calls. */
void
expectSameState(const PageArray &a, const BuddyAllocator &ba,
                const PageArray &b, const BuddyAllocator &bb)
{
    ASSERT_EQ(ba.freePages(), bb.freePages());
    for (unsigned o = 0; o < BuddyAllocator::maxOrder; ++o) {
        Gpfn x = ba.freeList(o).head();
        Gpfn y = bb.freeList(o).head();
        ASSERT_EQ(ba.freeList(o).size(), bb.freeList(o).size());
        while (x != invalidGpfn) {
            ASSERT_EQ(x, y) << "order " << o;
            x = a.page(x).link_next();
            y = b.page(y).link_next();
        }
    }
    for (Gpfn pfn = 0; pfn < a.size(); ++pfn) {
        const PageRef p = a.page(pfn);
        const PageRef q = b.page(pfn);
        ASSERT_EQ(p.allocated(), q.allocated()) << pfn;
        ASSERT_EQ(p.in_buddy(), q.in_buddy()) << pfn;
        ASSERT_EQ(p.buddy_order(), q.buddy_order()) << pfn;
        ASSERT_EQ(p.list_id() != noListId, q.list_id() != noListId) << pfn;
        ASSERT_EQ(p.link_prev(), q.link_prev()) << pfn;
        ASSERT_EQ(p.link_next(), q.link_next()) << pfn;
    }
}

/**
 * allocBatch/freeBatch against alloc(0)/free(pfn, 0) on twin
 * allocators fragmented by the same random mixed-order traffic.
 */
class BuddyBatch : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuddyBatch, BatchesMatchSinglePageCalls)
{
    constexpr std::uint64_t span = 1 << 12;
    PageArray pa(span), pb(span);
    BuddyAllocator a(pa, 0, span), b(pb, 0, span);
    a.addFreeRange(0, span);
    b.addFreeRange(0, span);
    hos::sim::Rng rng(GetParam());
    std::vector<std::pair<Gpfn, unsigned>> held;
    std::vector<Gpfn> batch;
    for (int step = 0; step < 300; ++step) {
        const auto kind = rng.uniformInt(4);
        if (kind == 0) {
            // Mixed-order traffic keeps the free lists fragmented.
            const auto order = static_cast<unsigned>(rng.uniformInt(4));
            const Gpfn x = a.alloc(order);
            ASSERT_EQ(x, b.alloc(order));
            if (x != invalidGpfn)
                held.emplace_back(x, order);
        } else if (kind == 1) {
            const std::uint64_t n = 1 + rng.uniformInt(200);
            batch.assign(n, invalidGpfn);
            const std::uint64_t got = a.allocBatch(n, batch.data());
            for (std::uint64_t i = 0; i < n; ++i) {
                const Gpfn y = b.alloc(0);
                ASSERT_EQ(i < got ? batch[i] : invalidGpfn, y);
                if (y == invalidGpfn)
                    break;
                held.emplace_back(y, 0);
            }
        } else if (!held.empty()) {
            // Free a random mix: order-0 pages in a batch, in an order
            // that is mostly ascending runs with some shuffling.
            batch.clear();
            const std::uint64_t n = 1 + rng.uniformInt(held.size());
            for (std::uint64_t i = 0; i < n && !held.empty(); ++i) {
                const auto idx = kind == 2 ? held.size() - 1
                                           : rng.uniformInt(held.size());
                const auto [pfn, order] = held[idx];
                held[idx] = held.back();
                held.pop_back();
                if (order == 0) {
                    batch.push_back(pfn);
                } else {
                    a.free(pfn, order);
                    b.free(pfn, order);
                }
            }
            std::sort(batch.begin(), batch.end());
            if (batch.size() > 4)
                std::swap(batch[1], batch[batch.size() - 2]);
            a.freeBatch(batch.data(), batch.size());
            for (Gpfn pfn : batch)
                b.free(pfn, 0);
        }
        expectSameState(pa, a, pb, b);
    }
    a.checkInvariants();
}

/**
 * addFreeRange's closed-form carve against the donation it replaced:
 * search each maximal aligned block, mark its pages allocated and
 * free() it. Ranges of random length arrive in random order between
 * allocations, so donated blocks coalesce with free neighbours.
 */
TEST_P(BuddyBatch, AddFreeRangeMatchesBlockFrees)
{
    constexpr std::uint64_t span = (1 << 12) + 37;
    PageArray pa(span), pb(span);
    BuddyAllocator a(pa, 0, span), b(pb, 0, span);
    hos::sim::Rng rng(GetParam());
    std::vector<std::pair<Gpfn, std::uint64_t>> ranges;
    for (Gpfn pfn = 0; pfn < span;) {
        const std::uint64_t n =
            std::min<std::uint64_t>(1 + rng.uniformInt(300), span - pfn);
        ranges.emplace_back(pfn, n);
        pfn += n;
    }
    for (std::size_t i = ranges.size(); i > 1; --i)
        std::swap(ranges[i - 1], ranges[rng.uniformInt(i)]);
    for (const auto &[first, count] : ranges) {
        a.addFreeRange(first, count);
        for (Gpfn pfn = first, left = count; left > 0;) {
            unsigned order = BuddyAllocator::maxOrder - 1;
            while (order > 0 && ((pfn & ((1ull << order) - 1)) != 0 ||
                                 (1ull << order) > left)) {
                --order;
            }
            for (std::uint64_t i = 0; i < (1ull << order); ++i)
                pb.setAllocated(pfn + i, true);
            b.free(pfn, order);
            pfn += 1ull << order;
            left -= 1ull << order;
        }
        if (rng.uniformInt(3) == 0) {
            const auto order = static_cast<unsigned>(rng.uniformInt(4));
            ASSERT_EQ(a.alloc(order), b.alloc(order));
        }
        expectSameState(pa, a, pb, b);
    }
    a.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyBatch,
                         ::testing::Values(3, 11, 2024));

} // namespace
