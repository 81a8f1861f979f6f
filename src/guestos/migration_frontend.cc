#include "guestos/migration_frontend.hh"

#include "check/page_state.hh"
#include "guestos/kernel.hh"
#include "prof/prof.hh"
#include "sim/log.hh"
#include "trace/trace.hh"
#include "xray/xray.hh"

namespace hos::guestos {

MigrationFrontend::MigrationFrontend(GuestKernel &kernel)
    : kernel_(kernel)
{
}

bool
MigrationFrontend::migrateOne(Gpfn pfn, mem::MemType dst,
                              MigrationOutcome &out)
{
    PageRef p = kernel_.pageMeta(pfn);
    auto *xr = xray::active();
    const std::uint16_t vm = kernel_.vmTag();
    const sim::Tick now = kernel_.events().now();

    if (!p.allocated()) {
        // Released since the candidate list was built: the guest-side
        // check the VMM cannot do (Section 4.1, "page state").
        ++out.skipped_unmapped;
        if (xr)
            xr->onSkip(vm, pfn, xray::EventKind::SkipUnmapped, 0, 0, now);
        return false;
    }
    if (p.under_io()) {
        ++out.skipped_under_io;
        if (xr) {
            xr->onSkip(vm, pfn, xray::EventKind::SkipUnderIo, p.heat(), 0,
                       now);
        }
        return false;
    }
    if (isMigrationException(p.type()) || p.unevictable()) {
        ++out.skipped_pinned;
        if (xr) {
            xr->onSkip(vm, pfn, xray::EventKind::SkipPinned, p.heat(), 0,
                       now);
        }
        return false;
    }
    if (p.mem_type() == dst)
        return false; // already there; not an error, just nothing to do

    // Backstop behind the skip checks above: a page reaching the
    // actual move must satisfy the migration rules.
    HOS_CHECK_CHEAP(
        check::validateMigration(p, dst, "migration_frontend.migrateOne"));

    NumaNode *target = kernel_.nodeFor(dst);
    if (!target) {
        ++out.skipped_no_memory;
        if (xr) {
            xr->onSkip(vm, pfn, xray::EventKind::SkipNoMemory, p.heat(), 0,
                       now);
        }
        return false;
    }

    switch (p.type()) {
      case PageType::Anon: {
        if (p.owner_process() == noProcess ||
            !kernel_.hasProcess(p.owner_process())) {
            ++out.skipped_unmapped;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipUnmapped,
                           p.heat(), 0, now);
            }
            return false;
        }
        AddressSpace &as = kernel_.process(p.owner_process());
        auto mapped = as.translate(p.vaddr());
        if (!mapped || *mapped != pfn) {
            ++out.skipped_unmapped;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipUnmapped,
                           p.heat(), 0, now);
            }
            return false;
        }
        const Gpfn newp = kernel_.allocPageOnNode(target->id(), p.type());
        if (newp == invalidGpfn) {
            ++out.skipped_no_memory;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipNoMemory,
                           p.heat(), 0, now);
            }
            return false;
        }
        PageRef d = kernel_.pageMeta(newp);
        d.setOwnerProcess(p.owner_process());
        d.setVaddr(p.vaddr());
        d.setDirty(p.dirty());
        d.setPteAccessed(p.pte_accessed());
        as.pageTable().remap(p.vaddr(), newp);

        if (p.lru() != LruState::None)
            kernel_.lruRemove(pfn);
        // Promotions carry proven heat: land active. Demotions start
        // inactive so they are first out again under pressure.
        if (dst == mem::MemType::FastMem)
            kernel_.lruAddActive(newp);
        else
            kernel_.lruAdd(newp);
        p.setDirty(false);
        p.setOwnerProcess(noProcess);
        if (xr) {
            xr->onGuestMove(
                vm, pfn, newp,
                static_cast<std::uint8_t>(kernel_.backingOf(newp)),
                p.heat(), 0, now);
        }
        kernel_.freePage(pfn);
        return true;
      }
      case PageType::PageCache:
      case PageType::BufferCache: {
        PageCache &cache = kernel_.pageCache();
        if (!cache.owns(pfn)) {
            ++out.skipped_unmapped;
            return false;
        }
        if (p.dirty() && dst == mem::MemType::FastMem) {
            // Dirty short-lived I/O pages: migrating them only adds
            // overhead (Section 4.1); they are about to be written
            // back and evicted anyway.
            ++out.skipped_dirty_io;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipDirtyIo,
                           p.heat(), 0, now);
            }
            return false;
        }
        if (p.dirty() && dst != mem::MemType::FastMem) {
            ++out.skipped_dirty_io;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipDirtyIo,
                           p.heat(), 0, now);
            }
            return false;
        }
        const Gpfn newp = kernel_.allocPageOnNode(target->id(), p.type());
        if (newp == invalidGpfn) {
            ++out.skipped_no_memory;
            if (xr) {
                xr->onSkip(vm, pfn, xray::EventKind::SkipNoMemory,
                           p.heat(), 0, now);
            }
            return false;
        }
        cache.remapPage(pfn, newp);
        if (p.lru() != LruState::None)
            kernel_.lruRemove(pfn);
        if (dst == mem::MemType::FastMem)
            kernel_.lruAddActive(newp);
        else
            kernel_.lruAdd(newp);
        if (xr) {
            xr->onGuestMove(
                vm, pfn, newp,
                static_cast<std::uint8_t>(kernel_.backingOf(newp)),
                p.heat(), 0, now);
        }
        kernel_.freePage(pfn);
        return true;
      }
      default:
        ++out.skipped_pinned;
        if (xr) {
            xr->onSkip(vm, pfn, xray::EventKind::SkipPinned, p.heat(), 0,
                       now);
        }
        return false;
    }
}

MigrationOutcome
MigrationFrontend::migratePages(const std::vector<Gpfn> &pfns,
                                mem::MemType dst)
{
    MigrationOutcome out;
    out.attempted = pfns.size();
    const auto dst_tier = static_cast<std::uint8_t>(dst);
    HOS_PROF_SPAN(epoch_span, prof::SpanKind::MigrationEpoch,
                  kernel_.events(), 0, dst_tier);
    trace::emit(trace::EventType::MigrationStart,
                kernel_.events().now(), out.attempted,
                static_cast<std::uint64_t>(dst));
    {
        HOS_PROF_SPAN(remap_span, prof::SpanKind::Remap,
                      kernel_.events(), 0, dst_tier);
        for (Gpfn pfn : pfns) {
            if (migrateOne(pfn, dst, out))
                ++out.migrated;
        }
    }
    migrated_.inc(out.migrated);
    skipped_.inc(out.attempted - out.migrated);

    sim::Duration cost = 0;
    if (out.migrated > 0) {
        // Guest-internal moves: copy + PTE remap + targeted
        // shootdown, batched. Much cheaper than the VMM path
        // (Table 6) because the guest validates and remaps its own
        // mappings directly — the design point of Section 4.1. Copy
        // and shootdown are charged under their own spans; the sum is
        // unchanged.
        const auto copy_cost = static_cast<sim::Duration>(
            static_cast<double>(out.migrated) * 3000.0);
        const sim::Duration shootdown_cost =
            kernel_.tlb().shootdownCost(out.migrated);
        {
            HOS_PROF_SPAN(copy_span, prof::SpanKind::BatchCopy,
                          kernel_.events(), 0, dst_tier);
            kernel_.charge(OverheadKind::Migration, copy_cost);
        }
        {
            HOS_PROF_SPAN(tlb_span, prof::SpanKind::TlbShootdown,
                          kernel_.events(), 0, dst_tier);
            kernel_.charge(OverheadKind::Migration, shootdown_cost);
        }
        cost = copy_cost + shootdown_cost;
    }
    trace::emit(trace::EventType::MigrationComplete,
                kernel_.events().now(), out.migrated,
                out.attempted - out.migrated,
                static_cast<std::uint64_t>(dst), cost);
    return out;
}

} // namespace hos::guestos
