#include "vmm/hotness_pte.hh"

#include "prof/prof.hh"
#include "sim/log.hh"

namespace hos::vmm {

PteScanTracker::PteScanTracker(VmContext &vm, HotnessConfig cfg)
    : HotnessTracker(vm, cfg)
{
}

ScanResult
PteScanTracker::scanOnce()
{
    ScanResult res;
    auto &kernel = vm_.kernel();
    auto &pages = kernel.pages();
    const auto vm_id = static_cast<std::uint16_t>(vm_.id());
    HOS_PROF_SPAN(scan_span, prof::SpanKind::ScanPass, kernel.events(),
                  vm_id);
    // Adaptive reservation: hot counts are stable scan to scan, so
    // last scan's size (plus slack) kills the reallocation churn.
    res.hot.reserve(last_hot_ + 64);

    if (ring_ && ring_->hasDirectives()) {
        // OS-guided: walk only the tracking-list VMA ranges through
        // the owning process's page table, skipping exception pages.
        // A persistent cursor resumes where the previous scan left
        // off, so each round costs at most pages_per_scan PTEs.
        const TrackingDirectives &d = ring_->directives();
        if (d.version != directives_version_) {
            directives_version_ = d.version;
            range_cursor_ = 0;
            va_cursor_ = 0;
        }
        std::size_t ranges_stepped = 0;
        while (!d.ranges.empty() &&
               res.pages_scanned < cfg_.pages_per_scan &&
               ranges_stepped < d.ranges.size()) {
            HOS_PROF_SPAN(chunk_span, prof::SpanKind::ChunkWalk,
                          kernel.events(), vm_id);
            if (range_cursor_ >= d.ranges.size()) {
                range_cursor_ = 0;
                va_cursor_ = 0;
            }
            const TrackingRange &r = d.ranges[range_cursor_];
            if (!kernel.hasProcess(r.pid)) {
                ++range_cursor_;
                va_cursor_ = 0;
                ++ranges_stepped;
                continue;
            }
            const std::uint64_t lo =
                (va_cursor_ > r.va_lo && va_cursor_ < r.va_hi)
                    ? va_cursor_
                    : r.va_lo;
            std::uint64_t last_va = lo;
            auto &as = kernel.process(r.pid);
            const std::uint64_t budget =
                cfg_.pages_per_scan - res.pages_scanned;
            const std::uint64_t visited = as.pageTable().scanRange(
                lo, r.va_hi,
                [&](std::uint64_t va, const guestos::PteView &pte) {
                    last_va = va;
                    guestos::PageRef p = pages.page(pte.pfn);
                    if (d.exception && d.exception(p))
                        return;
                    const bool accessed =
                        pte.accessed || p.pte_accessed();
                    p.setPteAccessed(false);
                    heatPage(p, accessed, res);
                },
                /*clear_accessed=*/true, budget);
            res.pages_scanned += visited;
            if (visited < budget) {
                // Range exhausted: move to the next one.
                ++range_cursor_;
                va_cursor_ = 0;
                ++ranges_stepped;
            } else {
                va_cursor_ = last_va + mem::pageSize;
            }
        }
    } else {
        // Full-VM sweep: the VMM has no idea what the pages are, so
        // it walks everything, pages_per_scan at a time (HeteroVisor).
        // Free pfns count against `step` but not `visited` (the scan
        // budget is real work, the span bound is one lap); runs of
        // them are skipped via the allocated-range hint at the cost
        // the one-at-a-time walk would have paid in steps.
        const std::uint64_t span = pages.size();
        std::uint64_t visited = 0;
        std::uint64_t step = 0;
        HOS_PROF_SPAN(chunk_span, prof::SpanKind::ChunkWalk,
                      kernel.events(), vm_id);
        while (step < span && visited < cfg_.pages_per_scan) {
            guestos::PageRef p = pages.page(cursor_);
            if (!p.allocated()) {
                // Skipping a free run of length L consumes exactly L
                // steps, so cursor and visited counts match a
                // page-at-a-time walk bit for bit.
                const std::uint64_t run =
                    pages.freeRunLength(cursor_, span - step);
                step += run;
                cursor_ += run; // freeRunLength stops at the array end
                if (cursor_ == span)
                    cursor_ = 0;
                continue;
            }
            ++step;
            if (++cursor_ == span)
                cursor_ = 0;
            ++visited;
            const bool accessed = p.pte_accessed();
            p.setPteAccessed(false);
            heatPage(p, accessed, res);
        }
        res.pages_scanned = visited;
    }

    // Charge: per-PTE software cost plus the forced TLB invalidation
    // (needed so access bits get re-set by the hardware). The two
    // parts are charged separately — PTE walking under the scan span,
    // flush under a TlbShootdown child — summing to the same total.
    const double scan_ns =
        static_cast<double>(res.pages_scanned) * cfg_.per_pte_ns;
    const auto walk_cost = static_cast<sim::Duration>(scan_ns);
    const sim::Duration flush_cost =
        kernel.tlb().scanFlushCost(res.pages_scanned, res.accessed);
    kernel.charge(guestos::OverheadKind::HotScan, walk_cost);
    {
        HOS_PROF_SPAN(tlb_span, prof::SpanKind::TlbShootdown,
                      kernel.events(), vm_id);
        kernel.charge(guestos::OverheadKind::HotScan, flush_cost);
    }
    res.cost = walk_cost + flush_cost;

    finishScan(res);
    return res;
}

} // namespace hos::vmm
