/**
 * @file
 * Zones and NUMA nodes: the HeteroOS single-unified-zone rule for
 * FastMem, the DMA+Normal split for SlowMem, watermark scaling, and
 * node-level allocation routing.
 */

#include <gtest/gtest.h>

#include "guestos/numa.hh"

namespace {

using namespace hos;
using namespace hos::guestos;

TEST(Zone, WatermarksScaleWithManagedPages)
{
    PageArray pages(1 << 16);
    Zone small(pages, ZoneKind::Unified, 0, 1 << 12);
    Zone large(pages, ZoneKind::Unified, 1 << 12, 1 << 15);
    small.buddy().addFreeRange(0, 1 << 12);
    large.buddy().addFreeRange(1 << 12, 1 << 15);
    small.updateWatermarks();
    large.updateWatermarks();
    EXPECT_LT(small.watermarkLow(), large.watermarkLow());
    EXPECT_LT(small.watermarkMin(), small.watermarkLow());
    EXPECT_LT(small.watermarkLow(), small.watermarkHigh());
}

TEST(Zone, PressurePredicates)
{
    PageArray pages(4096);
    Zone z(pages, ZoneKind::Unified, 0, 4096);
    z.buddy().addFreeRange(0, 4096);
    z.updateWatermarks();
    EXPECT_FALSE(z.belowLow());
    // Drain nearly everything.
    while (z.freePages() > z.watermarkMin() / 2)
        z.buddy().alloc(0);
    EXPECT_TRUE(z.belowMin());
    EXPECT_TRUE(z.belowLow());
    EXPECT_TRUE(z.belowHigh());
}

TEST(NumaNode, FastMemGetsOneUnifiedZone)
{
    PageArray pages(1 << 16);
    NumaNode fast(0, mem::MemType::FastMem, pages, 0, 1 << 16);
    ASSERT_EQ(fast.numZones(), 1u);
    EXPECT_EQ(fast.zone(0).kind(), ZoneKind::Unified);
}

TEST(NumaNode, SlowMemGetsDmaPlusNormal)
{
    // 64 MiB SlowMem node: 16 MiB DMA + 48 MiB Normal.
    const std::uint64_t span = (64 * mem::mib) / mem::pageSize;
    PageArray pages(span);
    NumaNode slow(0, mem::MemType::SlowMem, pages, 0, span);
    ASSERT_EQ(slow.numZones(), 2u);
    EXPECT_EQ(slow.zone(0).kind(), ZoneKind::Dma);
    EXPECT_EQ(slow.zone(1).kind(), ZoneKind::Normal);
    EXPECT_EQ(slow.zone(0).spanPages(),
              (16 * mem::mib) / mem::pageSize);
    EXPECT_EQ(&slow.primaryZone(), &slow.zone(1));
}

TEST(NumaNode, TinySlowMemSkipsDmaSplit)
{
    const std::uint64_t span = (8 * mem::mib) / mem::pageSize;
    PageArray pages(span);
    NumaNode slow(0, mem::MemType::SlowMem, pages, 0, span);
    EXPECT_EQ(slow.numZones(), 1u);
    EXPECT_EQ(slow.zone(0).kind(), ZoneKind::Normal);
}

TEST(NumaNode, AllocationPrefersPrimaryZone)
{
    const std::uint64_t span = (64 * mem::mib) / mem::pageSize;
    PageArray pages(span);
    NumaNode slow(0, mem::MemType::SlowMem, pages, 0, span);
    for (std::size_t zi = 0; zi < slow.numZones(); ++zi) {
        auto &z = slow.zone(zi);
        z.buddy().addFreeRange(z.base(), z.spanPages());
    }
    Gpfn pfn = invalidGpfn;
    ASSERT_EQ(slow.allocBatch(1, &pfn), 1u);
    EXPECT_TRUE(slow.primaryZone().containsGpfn(pfn))
        << "DMA zone is spared until Normal runs dry";

    // Drain Normal; allocation falls through to DMA.
    while (slow.primaryZone().freePages() > 0)
        slow.primaryZone().buddy().alloc(0);
    Gpfn dma = invalidGpfn;
    ASSERT_EQ(slow.allocBatch(1, &dma), 1u);
    EXPECT_TRUE(slow.zone(0).containsGpfn(dma));
}

TEST(NumaNode, ZoneOfRoutesByGpfn)
{
    const std::uint64_t span = (64 * mem::mib) / mem::pageSize;
    PageArray pages(span);
    NumaNode slow(0, mem::MemType::SlowMem, pages, 0, span);
    EXPECT_EQ(slow.zoneOf(0).kind(), ZoneKind::Dma);
    EXPECT_EQ(slow.zoneOf(span - 1).kind(), ZoneKind::Normal);
    EXPECT_TRUE(slow.containsGpfn(span - 1));
    EXPECT_FALSE(slow.containsGpfn(span));
}

TEST(NumaNode, FreeBlockReturnsToOwningZone)
{
    const std::uint64_t span = (64 * mem::mib) / mem::pageSize;
    PageArray pages(span);
    NumaNode slow(0, mem::MemType::SlowMem, pages, 0, span);
    for (std::size_t zi = 0; zi < slow.numZones(); ++zi) {
        auto &z = slow.zone(zi);
        z.buddy().addFreeRange(z.base(), z.spanPages());
    }
    const auto free_before = slow.freePages();
    // One page from each zone: the batch splits into per-zone runs.
    Gpfn pfns[2] = {invalidGpfn, slow.zone(0).buddy().alloc(0)};
    ASSERT_EQ(slow.allocBatch(1, &pfns[0]), 1u);
    EXPECT_EQ(slow.freePages(), free_before - 2);
    slow.freeBatch(pfns, 2);
    EXPECT_EQ(slow.freePages(), free_before);
    EXPECT_EQ(slow.zone(0).freePages(), slow.zone(0).managedPages());
}

} // namespace
