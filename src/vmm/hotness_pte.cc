#include "vmm/hotness_pte.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "prof/prof.hh"
#include "sim/log.hh"

namespace hos::vmm {

namespace {

/** Eight heat lanes' worth of a mask byte: 0xffff per set bit. */
using LaneMask8 = std::array<std::uint16_t, 8>;

constexpr auto laneMasks = [] {
    std::array<LaneMask8, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
        for (unsigned j = 0; j < 8; ++j)
            t[b][j] = ((b >> j) & 1u) ? 0xffff : 0;
    }
    return t;
}();

/** Expand a 64-bit lane mask into 64 lane-wide masks. */
void
expandLanes(std::uint64_t mask, std::uint16_t *out)
{
    for (unsigned g = 0; g < 8; ++g) {
        std::memcpy(out + 8 * g, laneMasks[(mask >> (8 * g)) & 0xffu].data(),
                    sizeof(LaneMask8));
    }
}

/**
 * The full-VM sweep's inner kernel over one bitmap word: every lane
 * under `visit` takes HotnessTracker::nextHeat of its access bit, the
 * others keep their heat. Returns the visited lanes that are hot now.
 * The lane loop is branch-free over all 64 lanes (the masks are
 * expanded to lane width first), so the compiler vectorises it.
 */
std::uint64_t
heatWord(std::uint16_t *lanes, std::uint64_t visit, std::uint64_t accessed,
         std::uint16_t threshold)
{
    alignas(16) std::uint16_t vis[64];
    alignas(16) std::uint16_t acc[64];
    alignas(16) std::uint8_t hot[64];
    expandLanes(visit, vis);
    expandLanes(accessed, acc);
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint16_t h = lanes[i];
        const bool v = vis[i] != 0;
        const std::uint16_t next = HotnessTracker::nextHeat(h, acc[i] != 0);
        lanes[i] = v ? next : h;
        hot[i] = v & (next >= threshold);
    }
    // Gather the 0/1 bytes into bits: the multiply moves byte k's bit
    // to bit 56 + k without carries.
    std::uint64_t mask = 0;
    for (unsigned g = 0; g < 8; ++g) {
        std::uint64_t bytes = 0;
        std::memcpy(&bytes, hot + 8 * g, sizeof(bytes));
        mask |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * g);
    }
    return mask;
}

} // namespace

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
    const HeatSink sink = heatSink();

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
                    if (d.exception & guestos::pageTypeBit(p.type()))
                        return;
                    const bool accessed =
                        pte.accessed || p.pte_accessed();
                    p.setPteAccessed(false);
                    heatPage(p, accessed, res, sink);
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
        // it walks everything, pages_per_scan at a time (HeteroVisor),
        // a 64-gpfn bitmap word at a time. Every gpfn position, free
        // or not, takes one step of the one-lap bound `step < span`;
        // allocated ones take the budget. A free word is one step.
        const std::uint64_t span = pages.size();
        const std::uint16_t threshold = cfg_.hot_threshold;
        std::uint64_t visited = 0;
        std::uint64_t step = 0;
        HOS_PROF_SPAN(chunk_span, prof::SpanKind::ChunkWalk,
                      kernel.events(), vm_id);
        while (step < span && visited < cfg_.pages_per_scan) {
            const std::uint64_t w = cursor_ >> 6;
            const Gpfn base = w << 6;
            const Gpfn end = std::min({base + 64, span,
                                       cursor_ + (span - step)});
            std::uint64_t visit = pages.allocatedWord(w) &
                                  (~std::uint64_t(0) << (cursor_ - base));
            if (end - base < 64)
                visit &= (std::uint64_t(1) << (end - base)) - 1;
            Gpfn stop = end;
            const std::uint64_t left = cfg_.pages_per_scan - visited;
            if (static_cast<std::uint64_t>(std::popcount(visit)) >= left) {
                // The budget runs out in this word: keep the first
                // `left` pages and stop right after the last of them.
                std::uint64_t rest = visit;
                for (std::uint64_t i = 0; i < left; ++i)
                    rest &= rest - 1;
                visit ^= rest;
                stop = base + 64 -
                       static_cast<unsigned>(std::countl_zero(visit));
            }
            step += stop - cursor_;
            cursor_ = stop == span ? 0 : stop;
            if (visit == 0)
                continue;
            visited += static_cast<std::uint64_t>(std::popcount(visit));
            const std::uint64_t accessed = pages.takeAccessed(w, visit);
            res.accessed +=
                static_cast<std::uint64_t>(std::popcount(accessed));
            std::uint16_t *lanes = pages.heatLanes(w);
            std::uint64_t hot = heatWord(lanes, visit, accessed, threshold);
            for (; hot != 0; hot &= hot - 1) {
                res.hot.push_back(
                    base + static_cast<unsigned>(std::countr_zero(hot)));
            }
            if (sink.xr) {
                for (std::uint64_t v = visit; v != 0; v &= v - 1) {
                    const auto i =
                        static_cast<unsigned>(std::countr_zero(v));
                    reportHeat(sink, base + i, lanes[i]);
                }
            }
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
