#include "guestos/hetero_lru.hh"

#include <algorithm>

#include "guestos/kernel.hh"
#include "prof/prof.hh"
#include "sim/log.hh"
#include "trace/trace.hh"
#include "xray/xray.hh"

namespace {

/**
 * Guest-internal page-move cost: a 4 KiB copy plus PTE/radix
 * bookkeeping and a targeted invalidation. Far cheaper than the
 * VMM-exclusive migration path Table 6 measures (no whole-table walk,
 * no cross-layer synchronization) — exactly the asymmetry the paper
 * exploits by running migrations in the guest (Section 4.1).
 */
constexpr double guestPageMoveNs = 3000.0;

hos::sim::Duration
guestMoveCost(std::uint64_t pages)
{
    return static_cast<hos::sim::Duration>(
        static_cast<double>(pages) * guestPageMoveNs);
}

} // namespace

namespace hos::guestos {

HeteroLru::HeteroLru(GuestKernel &kernel, HeteroLruConfig cfg)
    : kernel_(kernel), cfg_(cfg)
{
}

bool
HeteroLru::fastMemUnderPressure() const
{
    auto *fast = kernel_.nodeFor(mem::MemType::FastMem);
    if (!fast)
        return false;
    const double managed =
        static_cast<double>(std::max<std::uint64_t>(1,
                                                    fast->managedPages()));
    return static_cast<double>(kernel_.effectiveFreePages(*fast)) /
               managed <
           cfg_.fast_low_ratio;
}

std::uint64_t
HeteroLru::demotePage(Gpfn pfn)
{
    PageRef p = kernel_.pageMeta(pfn);
    if (p.mem_type() != mem::MemType::FastMem)
        return 0;
    if (p.under_io() || p.unevictable())
        return 0;

    // Demotion target: heap pages step one level at a time (high
    // reuse: FastMem -> MediumMem when a middle tier exists), while
    // finished I/O pages go straight to the large-but-slowest tier —
    // the page-type-specific demotion policies of paper Section 4.3.
    NumaNode *slow = nullptr;
    if (p.type() == PageType::Anon)
        slow = kernel_.nodeFor(mem::MemType::MediumMem);
    if (!slow)
        slow = kernel_.nodeFor(mem::MemType::SlowMem);
    if (!slow)
        return 0;
    // Whether the target can supply a page, decided once up front:
    // under sustained pressure it usually cannot, and the work before
    // the allocation (the page-table walk) would be thrown away.
    const bool can_alloc = kernel_.canAllocOnNode(slow->id());

    switch (p.type()) {
      case PageType::Anon: {
        if (!can_alloc)
            return 0;
        // Must still be mapped; the owner's PTE gets remapped.
        if (p.owner_process() == noProcess ||
            !kernel_.hasProcess(p.owner_process())) {
            return 0;
        }
        AddressSpace &as = kernel_.process(p.owner_process());
        auto mapped = as.translate(p.vaddr());
        if (!mapped || *mapped != pfn)
            return 0; // released or remapped since: skip

        const Gpfn dst =
            kernel_.allocPageOnNode(slow->id(), p.type());
        hos_assert(dst != invalidGpfn, "node %u refused a page it had",
                   slow->id());
        PageRef d = kernel_.pageMeta(dst);
        d.setOwnerProcess(p.owner_process());
        d.setVaddr(p.vaddr());
        d.setDirty(p.dirty());
        as.pageTable().remap(p.vaddr(), dst);

        const bool was_on_lru = p.lru() != LruState::None;
        if (was_on_lru)
            kernel_.lruRemove(pfn);
        kernel_.lruAdd(dst); // demoted pages start inactive
        p.setDirty(false);
        p.setOwnerProcess(noProcess);
        if (auto *xr = xray::active()) {
            xr->onGuestMove(
                kernel_.vmTag(), pfn, dst,
                static_cast<std::uint8_t>(kernel_.backingOf(dst)),
                p.heat(), 0, kernel_.events().now());
        }
        kernel_.freePage(pfn);
        ++stats_.demoted_anon;
        return 1;
      }
      case PageType::PageCache:
      case PageType::BufferCache: {
        PageCache &cache = kernel_.pageCache();
        if (!cache.owns(pfn))
            return 0;
        if (p.dirty())
            return 0; // write back first; the flusher will get to it

        if (!can_alloc) {
            // No SlowMem either: drop the clean page entirely. The
            // LRU membership is released by evictPage -> freeIoPage.
            if (cache.evictPage(pfn)) {
                ++stats_.dropped_cache;
                return 1;
            }
            return 0;
        }
        const Gpfn dst =
            kernel_.allocPageOnNode(slow->id(), p.type());
        hos_assert(dst != invalidGpfn, "node %u refused a page it had",
                   slow->id());
        cache.remapPage(pfn, dst);
        if (p.lru() != LruState::None)
            kernel_.lruRemove(pfn);
        kernel_.lruAdd(dst);
        if (auto *xr = xray::active()) {
            xr->onGuestMove(
                kernel_.vmTag(), pfn, dst,
                static_cast<std::uint8_t>(kernel_.backingOf(dst)),
                p.heat(), 0, kernel_.events().now());
        }
        kernel_.freePage(pfn);
        ++stats_.demoted_cache;
        return 1;
      }
      default:
        return 0; // slab/netbuf/pagetable/dma are pinned
    }
}

std::uint64_t
HeteroLru::reclaimFastMem(std::uint64_t target_pages)
{
    NumaNode *fast = kernel_.nodeFor(mem::MemType::FastMem);
    if (!fast || target_pages == 0)
        return 0;

    // Boot-time allocation bursts carry no hotness information —
    // every eviction decision would be blind, and the evicted page's
    // first use is as imminent as the requester's. Reclaim starts
    // once the system is actually running.
    if (kernel_.events().now() == 0)
        return 0;

    HOS_PROF_SPAN(reclaim_span, prof::SpanKind::ReclaimPass,
                  kernel_.events(), 0,
                  static_cast<std::uint8_t>(mem::MemType::FastMem));
    ++stats_.reclaim_passes;
    std::uint64_t freed = 0;
    std::uint64_t scanned_total = 0;
    std::uint64_t demoted_total = 0;

    // Two passes: the first declines pages the hotness tracker has
    // marked hot (coordination makes eviction smart — the guest knows
    // which FastMem pages are worth keeping); if nothing reclaimable
    // remains, the second pass takes what it can.
    bool give_up = false;
    for (int heat_aware = 1;
         heat_aware >= 0 && freed < target_pages && !give_up;
         --heat_aware) {
        for (std::size_t zi = 0;
             zi < fast->numZones() && freed < target_pages && !give_up;
             ++zi) {
            SplitLru &lru = fast->zone(zi).lru();
            // Bound the work: a few batches per call, not a storm.
            for (int round = 0; round < 4 && freed < target_pages;
                 ++round) {
                if (lru.inactiveCount() == 0) {
                    // Feed the inactive list from the active tail.
                    lru.balance(0.30, cfg_.scan_batch);
                }
                const std::uint64_t before = lru.scanned();
                const std::uint64_t got = lru.scanInactive(
                    std::min<std::uint64_t>(cfg_.scan_batch,
                                            target_pages - freed),
                    [&](PageRef &page) {
                        if (heat_aware && page.heat() >= 96)
                            return false; // proven hot: keep it
                        if (heat_aware && page.type() == PageType::Anon &&
                            page.last_touch() == 0) {
                            // Allocated but never used: its first
                            // touch is imminent (allocation bursts
                            // look like this); demoting it for
                            // another allocation is a pure loss.
                            return false;
                        }
                        return demotePage(page.pfn()) > 0;
                    });
                const std::uint64_t looked = lru.scanned() - before;
                scanned_total += looked;
                demoted_total += got;
                freed += got;
                if (got == 0 && lru.inactiveCount() == 0)
                    break;
                // Rotations (second chances) are progress — they
                // clear referenced bits so genuinely cold pages
                // surface on later rounds. Only abort when a round
                // does nothing at all on an empty-ish list.
                if (got == 0 && looked == 0) {
                    give_up = true;
                    break;
                }
                (void)looked;
            }
        }
        if (freed >= target_pages / 2)
            break; // the heat-aware pass found enough
    }

    stats_.pages_scanned += scanned_total;
    trace::emit(trace::EventType::LruReclaim, kernel_.events().now(),
                target_pages, freed, scanned_total);
    // Charge scan cost plus the batched migration cost of what moved.
    const double scan_ns =
        static_cast<double>(scanned_total) * cfg_.scan_cost_ns;
    kernel_.charge(OverheadKind::Reclaim,
                   static_cast<sim::Duration>(scan_ns));
    if (demoted_total > 0) {
        kernel_.charge(OverheadKind::Migration,
                       guestMoveCost(demoted_total) +
                           kernel_.tlb().shootdownCost(demoted_total));
    }
    return freed;
}

std::uint64_t
HeteroLru::directReclaim(std::uint64_t target_pages)
{
    HOS_PROF_SPAN(reclaim_span, prof::SpanKind::ReclaimPass,
                  kernel_.events());
    std::uint64_t freed = 0;
    std::uint64_t scanned_total = 0;
    PageCache &cache = kernel_.pageCache();

    for (int round = 0; round < 2 && freed < target_pages; ++round) {
        for (unsigned nid = 0; nid < kernel_.numNodes(); ++nid) {
            NumaNode &node = kernel_.node(nid);
            for (std::size_t zi = 0;
                 zi < node.numZones() && freed < target_pages; ++zi) {
                SplitLru &lru = node.zone(zi).lru();
                if (lru.inactiveCount() <
                    std::max<std::uint64_t>(64, target_pages)) {
                    lru.balance(0.30, cfg_.scan_batch * 4);
                }
                const std::uint64_t before = lru.scanned();
                freed += lru.scanInactive(
                    cfg_.scan_batch * 4, [&](PageRef &p) {
                        if (!isShortLivedIo(p.type()))
                            return false;
                        if (p.dirty() || !cache.owns(p.pfn()))
                            return false;
                        return cache.evictPage(p.pfn());
                    });
                scanned_total += lru.scanned() - before;
            }
        }
        if (freed < target_pages) {
            // Nothing clean left: push dirty pages out and retry.
            HOS_PROF_SPAN(wb_span, prof::SpanKind::WritebackPass,
                          kernel_.events());
            kernel_.charge(OverheadKind::Writeback,
                           cache.writeback(target_pages * 2));
        }
    }

    stats_.pages_scanned += scanned_total;
    kernel_.charge(OverheadKind::Reclaim,
                   static_cast<sim::Duration>(
                       static_cast<double>(scanned_total) *
                       cfg_.scan_cost_ns));
    return freed;
}

void
HeteroLru::tick()
{
    if (!cfg_.enabled)
        return;
    NumaNode *fast = kernel_.nodeFor(mem::MemType::FastMem);
    if (!fast)
        return;
    const std::uint64_t managed =
        std::max<std::uint64_t>(1, fast->managedPages());
    const double free_ratio =
        static_cast<double>(kernel_.effectiveFreePages(*fast)) /
        static_cast<double>(managed);
    if (free_ratio < cfg_.fast_low_ratio) {
        const auto target = static_cast<std::uint64_t>(
            (cfg_.fast_high_ratio - free_ratio) *
            static_cast<double>(managed));
        reclaimFastMem(std::max<std::uint64_t>(64, target));
    }
    // Keep LRUs balanced so the inactive lists stay populated.
    for (std::size_t zi = 0; zi < fast->numZones(); ++zi)
        fast->zone(zi).lru().balance(0.30, 128);
}

void
HeteroLru::onIoComplete(const std::vector<Gpfn> &pages, bool writeback)
{
    if (!cfg_.enabled || !cfg_.eager_io_eviction)
        return;
    // Rule 2: pages whose *write-back* just finished have done their
    // job; deactivate them and, under FastMem pressure, demote them
    // right away. Fresh read fills are about to be consumed and are
    // left alone.
    if (!writeback)
        return;
    HOS_PROF_SPAN(reclaim_span, prof::SpanKind::ReclaimPass,
                  kernel_.events(), 0,
                  static_cast<std::uint8_t>(mem::MemType::FastMem));
    const bool pressure = fastMemUnderPressure();
    std::uint64_t demoted = 0;
    for (Gpfn pfn : pages) {
        PageRef p = kernel_.pageMeta(pfn);
        if (p.mem_type() != mem::MemType::FastMem)
            continue;
        if (!isShortLivedIo(p.type()))
            continue;
        if (p.lru() == LruState::Active)
            kernel_.zoneOf(pfn).lru().deactivate(pfn);
        p.setReferenced(false);
        if (pressure)
            demoted += demotePage(pfn);
    }
    if (demoted > 0) {
        kernel_.charge(OverheadKind::Migration,
                       guestMoveCost(demoted) +
                           kernel_.tlb().shootdownCost(demoted));
    }
}

void
HeteroLru::onUnmapRelease(const std::vector<Gpfn> &file_pages)
{
    if (!cfg_.enabled || !cfg_.eager_unmap_demotion)
        return;
    // Rule 1: a munmap released a contiguous region; its still-cached
    // file pages are deactivated and aggressively pushed to SlowMem.
    HOS_PROF_SPAN(reclaim_span, prof::SpanKind::ReclaimPass,
                  kernel_.events(), 0,
                  static_cast<std::uint8_t>(mem::MemType::FastMem));
    std::uint64_t demoted = 0;
    for (Gpfn pfn : file_pages) {
        PageRef p = kernel_.pageMeta(pfn);
        if (p.lru() == LruState::Active)
            kernel_.zoneOf(pfn).lru().deactivate(pfn);
        if (p.mem_type() == mem::MemType::FastMem)
            demoted += demotePage(pfn);
    }
    if (demoted > 0) {
        kernel_.charge(OverheadKind::Migration,
                       guestMoveCost(demoted) +
                           kernel_.tlb().shootdownCost(demoted));
    }
}

} // namespace hos::guestos
