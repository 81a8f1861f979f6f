#include "vmm/hotness_region.hh"

#include <algorithm>
#include <cmath>

#include "prof/prof.hh"
#include "sim/log.hh"

namespace hos::vmm {

namespace {

/** Base seed for per-VM probe streams (mixed with the VM id). */
constexpr std::uint64_t regionSeedBase = 0xDA30u;

bool
sameRanges(const std::vector<TrackingRange> &a,
           const std::vector<TrackingRange> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pid != b[i].pid || a[i].va_lo != b[i].va_lo ||
            a[i].va_hi != b[i].va_hi) {
            return false;
        }
    }
    return true;
}

} // namespace

RegionTracker::RegionTracker(VmContext &vm, HotnessConfig cfg)
    : HotnessTracker(vm, cfg),
      rng_(sim::deriveSeed(regionSeedBase, vm.id()))
{
}

void
RegionTracker::syncSpace()
{
    const bool guided = ring_ && ring_->hasDirectives();
    if (!guided) {
        if (regions_.empty() || guided_) {
            guided_ = false;
            tracked_ranges_.clear();
            tileFullVm();
        }
        return;
    }
    const TrackingDirectives &d = ring_->directives();
    if (guided_ && d.version == directives_version_)
        return;
    directives_version_ = d.version;
    // The guest republishes directives on a timer whether or not its
    // VMA set changed; every publish bumps the version. Rebuilding on
    // version alone would wipe the learned region structure every
    // couple of scans, so re-tile only when the ranges really moved.
    if (guided_ && sameRanges(d.ranges, tracked_ranges_))
        return;
    guided_ = true;
    tracked_ranges_ = d.ranges;
    tileGuided(d);
}

void
RegionTracker::tileFullVm()
{
    const std::uint64_t span = vm_.kernel().pages().size();
    regions_.clear();
    if (span == 0)
        return;
    const std::uint64_t count =
        std::min<std::uint64_t>(cfg_.region_min, span);
    regions_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        HotRegion r;
        r.lo = span * i / count;
        r.hi = span * (i + 1) / count;
        regions_.push_back(r);
    }
}

void
RegionTracker::tileGuided(const TrackingDirectives &d)
{
    std::vector<HotRegion> fresh;
    std::uint64_t total_pages = 0;
    for (const TrackingRange &tr : d.ranges) {
        total_pages +=
            (tr.va_hi >> mem::pageShift) - (tr.va_lo >> mem::pageShift);
    }
    for (const TrackingRange &tr : d.ranges) {
        const std::uint64_t lo = tr.va_lo >> mem::pageShift;
        const std::uint64_t hi =
            (tr.va_hi + mem::pageSize - 1) >> mem::pageShift;
        if (hi <= lo)
            continue;
        // Apportion the initial region budget by range size, at least
        // one region per range (coverage beats the count floor).
        std::uint64_t want =
            total_pages > 0
                ? (cfg_.region_min * (hi - lo) + total_pages - 1) /
                      total_pages
                : 1;
        want = std::clamp<std::uint64_t>(want, 1, hi - lo);
        for (std::uint64_t i = 0; i < want; ++i) {
            HotRegion r;
            r.pid = tr.pid;
            r.lo = lo + (hi - lo) * i / want;
            r.hi = lo + (hi - lo) * (i + 1) / want;
            // Carry heat over from whatever old region covered this
            // span, so a directive refresh doesn't reset learning.
            r.heat = inheritedHeat(tr.pid, r.lo + r.pages() / 2);
            fresh.push_back(r);
        }
    }
    regions_ = std::move(fresh);
    emit_region_cursor_ = 0;
}

std::uint16_t
RegionTracker::inheritedHeat(guestos::ProcessId pid,
                             std::uint64_t page) const
{
    for (const HotRegion &r : regions_) {
        if (r.pid == pid && r.lo <= page && page < r.hi)
            return r.heat;
    }
    return 0;
}

void
RegionTracker::probeRegion(HotRegion &r, ScanResult &res,
                           const HeatSink &sink)
{
    auto &kernel = vm_.kernel();
    auto &pages = kernel.pages();
    const std::uint64_t len = r.pages();
    if (len == 0)
        return;
    const std::uint64_t mid = r.lo + len / 2;
    std::uint32_t hits = 0;
    std::uint32_t probes = 0;
    for (std::uint32_t i = 0; i < cfg_.region_probes; ++i) {
        // Alternate probes between the halves; accumulated per-half
        // hit rates are the split evidence. A one-page region has an
        // empty upper half — everything lands in half 0.
        unsigned half = i & 1u;
        std::uint64_t half_lo = half ? mid : r.lo;
        std::uint64_t half_hi = half ? r.hi : mid;
        if (half_hi <= half_lo) {
            half = 1u - half;
            half_lo = r.lo;
            half_hi = r.hi;
        }
        const std::uint64_t pn =
            half_lo + rng_.uniformInt(half_hi - half_lo);
        bool hit = false;
        if (r.pid == guestos::noProcess) {
            // Full-VM scope: pn is a gpfn; read the descriptor.
            guestos::PageRef p = pages.page(pn);
            if (p.allocated()) {
                const bool accessed = p.pte_accessed();
                p.setPteAccessed(false);
                hit = accessed;
                probeHeat(p, accessed, sink);
            }
        } else if (kernel.hasProcess(r.pid)) {
            // Guided scope: pn is a VA page; resolve one PTE, reset
            // its access bit, and heat the backing page — unless the
            // guest exception-listed it.
            const TrackingDirectives &d = ring_->directives();
            const std::uint64_t va = pn << mem::pageShift;
            auto &as = kernel.process(r.pid);
            as.pageTable().scanRange(
                va, va + mem::pageSize,
                [&](std::uint64_t, const guestos::PteView &pte) {
                    guestos::PageRef p = pages.page(pte.pfn);
                    if (d.exception & guestos::pageTypeBit(p.type()))
                        return;
                    const bool accessed =
                        pte.accessed || p.pte_accessed();
                    p.setPteAccessed(false);
                    hit = accessed;
                    probeHeat(p, accessed, sink);
                },
                /*clear_accessed=*/true, 1);
        }
        ++probes;
        ++r.half_probes[half];
        if (hit) {
            ++r.half_hits[half];
            ++res.accessed;
        }
        hits += hit ? 1u : 0u;
        ++res.pages_scanned;
    }
    // Region heat: same halve-and-add EWMA as per-page heat, fed by
    // this scan's hit rate (converges to 127 for an always-hot
    // region, matching the per-page scale the threshold lives on).
    if (probes > 0) {
        r.heat = static_cast<std::uint16_t>(r.heat / 2 +
                                            (64u * hits) / probes);
    }
}

void
RegionTracker::adjustRegions(ScanResult &res)
{
    // Merge adjacent same-scope regions whose heats agree. Merged
    // halves keep their evidence: each side becomes one half of the
    // merged region, which is exactly the split evidence layout.
    for (std::size_t i = 0;
         i + 1 < regions_.size() && regions_.size() > cfg_.region_min;) {
        HotRegion &a = regions_[i];
        HotRegion &b = regions_[i + 1];
        const std::uint16_t delta =
            a.heat > b.heat ? a.heat - b.heat : b.heat - a.heat;
        if (a.pid == b.pid && a.hi == b.lo &&
            delta <= cfg_.region_merge_heat_delta) {
            const std::uint64_t total = a.pages() + b.pages();
            a.heat = static_cast<std::uint16_t>(
                (a.heat * a.pages() + b.heat * b.pages()) /
                std::max<std::uint64_t>(total, 1));
            a.half_probes[0] = a.half_probes[0] + a.half_probes[1];
            a.half_hits[0] = a.half_hits[0] + a.half_hits[1];
            a.half_probes[1] = b.half_probes[0] + b.half_probes[1];
            a.half_hits[1] = b.half_hits[0] + b.half_hits[1];
            a.hi = b.hi;
            a.emit_cursor = 0;
            regions_.erase(regions_.begin() +
                           static_cast<std::ptrdiff_t>(i + 1));
            ++res.merges;
        } else {
            ++i;
        }
    }

    // Split regions whose halves' accumulated hit rates disagree.
    for (std::size_t i = 0;
         i < regions_.size() && regions_.size() < cfg_.region_max; ++i) {
        HotRegion &r = regions_[i];
        if (r.pages() < 2 * cfg_.region_min_pages)
            continue;
        // Demand one scan's worth of evidence per half before acting.
        if (r.half_probes[0] < cfg_.region_probes ||
            r.half_probes[1] < cfg_.region_probes) {
            continue;
        }
        const double rate0 = static_cast<double>(r.half_hits[0]) /
                             static_cast<double>(r.half_probes[0]);
        const double rate1 = static_cast<double>(r.half_hits[1]) /
                             static_cast<double>(r.half_probes[1]);
        if (std::abs(rate0 - rate1) <= cfg_.region_split_threshold)
            continue;
        HotRegion right;
        right.pid = r.pid;
        right.lo = r.lo + r.pages() / 2;
        right.hi = r.hi;
        right.heat = static_cast<std::uint16_t>(rate1 * 127.0);
        r.hi = right.lo;
        r.heat = static_cast<std::uint16_t>(rate0 * 127.0);
        r.half_probes[0] = r.half_probes[1] = 0;
        r.half_hits[0] = r.half_hits[1] = 0;
        r.emit_cursor = 0;
        regions_.insert(regions_.begin() +
                            static_cast<std::ptrdiff_t>(i + 1),
                        right);
        ++res.splits;
        ++i; // skip the freshly inserted right half
    }

    // Floor enforcement: if merging undershot the minimum, split the
    // largest regions back apart (heat preserved — no evidence yet).
    while (regions_.size() < cfg_.region_min && !regions_.empty()) {
        std::size_t largest = 0;
        for (std::size_t i = 1; i < regions_.size(); ++i) {
            if (regions_[i].pages() > regions_[largest].pages())
                largest = i;
        }
        HotRegion &r = regions_[largest];
        if (r.pages() < 2)
            break;
        HotRegion right;
        right.pid = r.pid;
        right.lo = r.lo + r.pages() / 2;
        right.hi = r.hi;
        right.heat = r.heat;
        r.hi = right.lo;
        r.half_probes[0] = r.half_probes[1] = 0;
        r.half_hits[0] = r.half_hits[1] = 0;
        regions_.insert(regions_.begin() +
                            static_cast<std::ptrdiff_t>(largest + 1),
                        right);
        ++res.splits;
    }

    // Decay split evidence once it exceeds a few scans' worth, so the
    // hit rates track a recency window, not the region's lifetime.
    // (Halving every scan would asymptote the accumulated probe count
    // just below the split threshold's evidence floor.)
    for (HotRegion &r : regions_) {
        for (int h = 0; h < 2; ++h) {
            if (r.half_probes[h] > 4 * cfg_.region_probes) {
                r.half_probes[h] /= 2;
                r.half_hits[h] /= 2;
            }
        }
    }
}

sim::Duration
RegionTracker::emitCandidates(ScanResult &res, const HeatSink &sink)
{
    auto &kernel = vm_.kernel();
    auto &pages = kernel.pages();
    const std::uint64_t budget = cfg_.promoteBudget(interval_);
    if (budget == 0 || regions_.empty())
        return 0;
    HOS_PROF_SPAN(select_span, prof::SpanKind::CandidateSelect,
                  kernel.events(),
                  static_cast<std::uint16_t>(vm_.id()));
    // Materializing candidates means walking descriptors/PTEs inside
    // hot regions; bound that walk by configuration (not footprint) so
    // the backend's flat-cost contract holds even when hot regions are
    // mostly fast-backed already.
    std::uint64_t walk_budget =
        budget * 4 + static_cast<std::uint64_t>(cfg_.region_probes) *
                         cfg_.region_max;
    std::uint64_t examined = 0;
    const bool hidden = vm_.config().hide_heterogeneity;
    for (std::size_t n = 0;
         n < regions_.size() && res.hot.size() < budget && walk_budget;
         ++n) {
        HotRegion &r = regions_[(emit_region_cursor_ + n) %
                                regions_.size()];
        if (r.heat < cfg_.hot_threshold || r.pages() == 0)
            continue;
        const std::uint64_t len = r.pages();
        std::uint64_t steps = 0;
        for (; steps < len && res.hot.size() < budget && walk_budget;
             ++steps, --walk_budget) {
            const std::uint64_t pn =
                r.lo + (r.emit_cursor + steps) % len;
            ++examined;
            if (r.pid == guestos::noProcess) {
                guestos::PageRef p = pages.page(pn);
                if (!p.allocated())
                    continue;
                // Candidates must actually live in SlowMem; under a
                // hidden topology the guest-visible type is a lie and
                // the P2M is the truth.
                const mem::MemType tier =
                    hidden ? (vm_.p2m().populated(pn)
                                  ? vm_.p2m().tierOf(pn)
                                  : mem::MemType::SlowMem)
                           : p.mem_type();
                if (tier != mem::MemType::SlowMem)
                    continue;
                raiseHeat(p, r.heat, sink);
                res.hot.push_back(p.pfn());
            } else {
                if (!kernel.hasProcess(r.pid))
                    break;
                const std::uint64_t va = pn << mem::pageShift;
                const auto pte =
                    kernel.process(r.pid).pageTable().lookup(va);
                if (!pte)
                    continue;
                guestos::PageRef p = pages.page(pte->pfn);
                const TrackingDirectives &d = ring_->directives();
                if (d.exception & guestos::pageTypeBit(p.type()))
                    continue;
                if (p.mem_type() != mem::MemType::SlowMem)
                    continue;
                raiseHeat(p, r.heat, sink);
                res.hot.push_back(p.pfn());
            }
        }
        r.emit_cursor = (r.emit_cursor + steps) % len;
    }
    emit_region_cursor_ =
        (emit_region_cursor_ + 1) % regions_.size();
    const auto cost = static_cast<sim::Duration>(
        static_cast<double>(examined) * cfg_.per_pte_ns);
    kernel.charge(guestos::OverheadKind::HotScan, cost);
    return cost;
}

ScanResult
RegionTracker::scanOnce()
{
    ScanResult res;
    auto &kernel = vm_.kernel();
    const auto vm_id = static_cast<std::uint16_t>(vm_.id());
    HOS_PROF_SPAN(scan_span, prof::SpanKind::ScanPass, kernel.events(),
                  vm_id);
    res.hot.reserve(last_hot_ + 64);
    const HeatSink sink = heatSink();

    syncSpace();

    // Probe pass: region_probes samples per region, every sample one
    // PTE/descriptor read — the whole point is that this is bounded by
    // region_max * region_probes no matter how big the guest is.
    sim::Duration probe_cost = 0;
    {
        HOS_PROF_SPAN(sample_span, prof::SpanKind::RegionSample,
                      kernel.events(), vm_id);
        for (HotRegion &r : regions_)
            probeRegion(r, res, sink);
        probe_cost = static_cast<sim::Duration>(
            static_cast<double>(res.pages_scanned) * cfg_.per_pte_ns);
        kernel.charge(guestos::OverheadKind::HotScan, probe_cost);
    }

    // Adaptation pass: split/merge bookkeeping over the descriptors.
    sim::Duration adjust_cost = 0;
    {
        HOS_PROF_SPAN(adjust_span, prof::SpanKind::RegionAdjust,
                      kernel.events(), vm_id);
        adjustRegions(res);
        adjust_cost = static_cast<sim::Duration>(
            static_cast<double>(regions_.size()) *
            cfg_.per_region_adjust_ns);
        kernel.charge(guestos::OverheadKind::HotScan, adjust_cost);
    }

    const sim::Duration emit_cost = emitCandidates(res, sink);

    // Probes clear access bits, so the same forced-invalidation cost
    // the per-PTE scan pays applies — just over far fewer pages.
    sim::Duration flush_cost = 0;
    {
        HOS_PROF_SPAN(tlb_span, prof::SpanKind::TlbShootdown,
                      kernel.events(), vm_id);
        flush_cost = kernel.tlb().scanFlushCost(res.pages_scanned,
                                                res.accessed);
        kernel.charge(guestos::OverheadKind::HotScan, flush_cost);
    }

    res.cost = probe_cost + adjust_cost + emit_cost + flush_cost;
    res.regions = regions_.size();
    finishScan(res);
    return res;
}

} // namespace hos::vmm
