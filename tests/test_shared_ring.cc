/**
 * @file
 * SharedRing: directive versioning, hot-page queueing, and the
 * exception list plumbing.
 */

#include <gtest/gtest.h>

#include "vmm/shared_ring.hh"

namespace {

using namespace hos;
using vmm::SharedRing;
using vmm::TrackingDirectives;

TEST(SharedRing, StartsEmpty)
{
    SharedRing ring;
    EXPECT_FALSE(ring.hasDirectives());
    EXPECT_EQ(ring.pendingHotPages(), 0u);
    EXPECT_TRUE(ring.drainHotPages().empty());
}

TEST(SharedRing, PublishBumpsVersion)
{
    SharedRing ring;
    TrackingDirectives d;
    d.ranges.push_back({0, 0x1000, 0x2000});
    ring.publishDirectives(std::move(d));
    EXPECT_TRUE(ring.hasDirectives());
    EXPECT_EQ(ring.directives().version, 1u);

    TrackingDirectives d2;
    ring.publishDirectives(std::move(d2));
    EXPECT_EQ(ring.directives().version, 2u);
    EXPECT_TRUE(ring.directives().ranges.empty())
        << "publish replaces, not merges";
}

TEST(SharedRing, HotPagesAccumulateAndDrain)
{
    SharedRing ring;
    ring.pushHotPages({1, 2, 3});
    ring.pushHotPages({4});
    EXPECT_EQ(ring.pendingHotPages(), 4u);
    auto drained = ring.drainHotPages();
    EXPECT_EQ(drained, (std::vector<guestos::Gpfn>{1, 2, 3, 4}));
    EXPECT_EQ(ring.pendingHotPages(), 0u);
}

TEST(SharedRing, ExceptionPredicateTravels)
{
    SharedRing ring;
    TrackingDirectives d;
    d.exception = guestos::pageTypeBit(guestos::PageType::PageCache);
    ring.publishDirectives(std::move(d));

    const guestos::PageTypeMask exception = ring.directives().exception;
    EXPECT_TRUE(exception &
                guestos::pageTypeBit(guestos::PageType::PageCache));
    EXPECT_FALSE(exception & guestos::pageTypeBit(guestos::PageType::Anon));
}

} // namespace
