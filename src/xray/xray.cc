#include "xray/xray.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"
#include "trace/trace.hh"
#include "xray/report.hh"

namespace hos::xray {

const char *
levelName()
{
    switch (compiledLevel) {
      case 0:
        return "off";
      case 1:
        return "sampled";
      default:
        return "full";
    }
}

const char *
tierName(std::uint8_t tier)
{
    switch (tier) {
      case fastTier:
        return "fast";
      case slowTier:
        return "slow";
      case mediumTier:
        return "medium";
      default:
        return "-";
    }
}

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::Alloc:
        return "alloc";
      case EventKind::Free:
        return "free";
      case EventKind::HotCross:
        return "hot_cross";
      case EventKind::Cooled:
        return "cooled";
      case EventKind::Promote:
        return "promote";
      case EventKind::Demote:
        return "demote";
      case EventKind::SkipUnmapped:
        return "skip_unmapped";
      case EventKind::SkipUnderIo:
        return "skip_under_io";
      case EventKind::SkipDirtyIo:
        return "skip_dirty_io";
      case EventKind::SkipPinned:
        return "skip_pinned";
      case EventKind::SkipNoMemory:
        return "skip_no_memory";
      case EventKind::SkipNoFrames:
        return "skip_no_frames";
      case EventKind::SkipVictimHot:
        return "skip_victim_hot";
      case EventKind::SkipBudget:
        return "skip_budget";
      case EventKind::DrfReclaim:
        return "drf_reclaim";
      case EventKind::Throttle:
        return "throttle";
      case EventKind::Writeback:
        return "writeback";
      case EventKind::SwapOut:
        return "swap_out";
      case EventKind::BalloonOut:
        return "balloon_out";
    }
    return "?";
}

Recorder::Recorder() = default;

void
Recorder::enable(XrayConfig cfg)
{
    cfg_ = cfg;
    enabled_ = true;
}

void
Recorder::clear()
{
    vms_.clear();
    has_staged_rank_ = false;
    staged_rank_ = 0;
}

Recorder::VmState &
Recorder::vmState(std::uint16_t vm)
{
    if (vm >= vms_.size())
        vms_.resize(vm + 1);
    return vms_[vm];
}

const Recorder::VmState *
Recorder::findVm(std::uint16_t vm) const
{
    if (vm >= vms_.size())
        return nullptr;
    return &vms_[vm];
}

Recorder::PageShadow &
Recorder::shadow(VmState &s, std::uint64_t gpfn)
{
    if (gpfn >= s.pages.size())
        s.pages.resize(gpfn + 1);
    return s.pages[gpfn];
}

void
Recorder::sizeShadow(std::uint16_t vm, std::uint64_t num_pages)
{
    VmState &s = vmState(vm);
    if (num_pages > s.pages.size())
        s.pages.resize(num_pages);
}

Recorder::PageClock *
Recorder::PageClocks::find(std::uint64_t gpfn)
{
    const std::uint64_t chunk = gpfn / chunkPages;
    if (chunk >= chunks_.size() || !chunks_[chunk])
        return nullptr;
    return &chunks_[chunk][gpfn % chunkPages];
}

Recorder::PageClock &
Recorder::PageClocks::at(std::uint64_t gpfn)
{
    const std::uint64_t chunk = gpfn / chunkPages;
    if (chunk >= chunks_.size())
        chunks_.resize(chunk + 1);
    if (!chunks_[chunk])
        chunks_[chunk] = std::make_unique<PageClock[]>(chunkPages);
    return chunks_[chunk][gpfn % chunkPages];
}

void
Recorder::PageClocks::reset(std::uint64_t gpfn)
{
    if (PageClock *c = find(gpfn))
        *c = PageClock{};
}

bool
Recorder::ringEligible(std::uint64_t gpfn) const
{
    if (cfg_.full_provenance)
        return true;
    // Deterministic gpfn sample: Fibonacci hash, keep the top slice.
    const std::uint64_t h = gpfn * 0x9E3779B97F4A7C15ull;
    return (h >> (64 - cfg_.sample_shift)) == 0;
}

void
Recorder::ringAppend(Ring &ring, std::uint32_t depth, const Event &e)
{
    if (depth == 0)
        return;
    if (ring.events.size() < depth)
        ring.events.push_back(e);
    else
        ring.events[ring.total % depth] = e;
    ++ring.total;
    if (e.kind == EventKind::Promote || e.kind == EventKind::Demote)
        ++ring.moves;
    if (e.kind == EventKind::Promote)
        ++ring.promotes;
}

void
Recorder::pageRecord(VmState &s, std::uint64_t gpfn, const Event &e)
{
    if (!ringEligible(gpfn))
        return;
    ringAppend(s.rings[gpfn], cfg_.ring_depth, e);
}

void
Recorder::applyHeat(VmState &s, PageShadow &p, std::uint16_t heat)
{
    const std::uint8_t t = p.tier;
    s.tier_heat_mass[t] += heat;
    s.tier_heat_mass[t] -= p.heat;
    const bool now_hot = heat >= s.threshold;
    if (p.hot && now_hot) {
        s.tier_hot_heat_mass[t] += heat;
        s.tier_hot_heat_mass[t] -= p.heat;
    } else if (!p.hot && now_hot) {
        ++s.tier_hot[t];
        s.tier_hot_heat_mass[t] += heat;
    } else if (p.hot && !now_hot) {
        --s.tier_hot[t];
        s.tier_hot_heat_mass[t] -= p.heat;
    }
    p.heat = heat;
    p.hot = now_hot;
}

void
Recorder::moveTier(VmState &s, PageShadow &p, std::uint8_t to)
{
    const std::uint8_t from = p.tier;
    --s.tier_pages[from];
    ++s.tier_pages[to];
    s.tier_heat_mass[from] -= p.heat;
    s.tier_heat_mass[to] += p.heat;
    if (p.hot) {
        --s.tier_hot[from];
        ++s.tier_hot[to];
        s.tier_hot_heat_mass[from] -= p.heat;
        s.tier_hot_heat_mass[to] += p.heat;
    }
    p.tier = to;
}

namespace {

std::size_t
lagBucket(std::uint64_t lag_ns)
{
    const std::size_t b =
        lag_ns == 0 ? 0 : static_cast<std::size_t>(
                              std::bit_width(lag_ns) - 1);
    return std::min(b, numLagBuckets - 1);
}

} // namespace

void
Recorder::recordMove(VmState &s, std::uint16_t vm, std::uint64_t gpfn,
                     bool hot, PageClock &c, std::uint8_t from,
                     std::uint8_t to, std::uint16_t heat,
                     std::uint32_t rank, sim::Tick now)
{
    const bool promote = tierRank(to) < tierRank(from);
    const EventKind kind =
        promote ? EventKind::Promote : EventKind::Demote;
    ++s.kind_counts[static_cast<std::size_t>(kind)];

    std::uint64_t lag = 0;
    if (promote) {
        if (c.hot_since != 0) {
            lag = now - c.hot_since;
            ++s.promote_lag[lagBucket(lag)];
            c.hot_since = 0;
        }
    } else {
        if (c.cold_since != 0) {
            lag = now - c.cold_since;
            ++s.demote_lag[lagBucket(lag)];
            c.cold_since = 0;
        }
        // A hot page forced down a tier restarts its promotion clock:
        // it is misplaced again from this instant.
        if (hot)
            c.hot_since = now;
    }

    const std::int8_t dir = promote ? 1 : -1;
    if (c.last_dir == -dir && c.last_move != 0 &&
        now - c.last_move <= cfg_.pingpong_window) {
        ++s.pingpong_events;
        if (++c.bounces == 1)
            ++s.pingpong_pages;
        trace::emit(trace::EventType::XrayPingPong, now, gpfn,
                    c.bounces, now - c.last_move, 0, vm);
    }
    c.last_dir = dir;
    c.last_move = now;

    Event e;
    e.tick = now;
    e.kind = kind;
    e.tier_from = from;
    e.tier_to = to;
    e.heat = heat;
    e.threshold = s.threshold;
    e.rank = rank;
    e.a0 = lag;
    e.a1 = c.bounces;
    pageRecord(s, gpfn, e);
    trace::emit(trace::EventType::XrayMove, now,
                static_cast<std::uint64_t>(kind), gpfn, heat, 0, vm);
}

void
Recorder::onAlloc(std::uint16_t vm, std::uint64_t gpfn,
                  std::uint8_t tier, sim::Tick now)
{
    if (tier >= numTiers)
        return;
    VmState &s = vmState(vm);
    PageShadow &p = shadow(s, gpfn);
    if (p.tier != noTier)
        return; // double alloc: audit will flag the real bug
    p.heat = 0; // a fresh frame never carries its old life's heat
    p.hot = false;
    p.tier = tier;
    if (PageClock *c = s.clocks.find(gpfn)) {
        c->hot_since = 0;
        c->cold_since = 0;
    }
    ++s.tier_pages[tier];
    ++s.kind_counts[static_cast<std::size_t>(EventKind::Alloc)];

    Event e;
    e.tick = now;
    e.kind = EventKind::Alloc;
    e.tier_to = tier;
    e.threshold = s.threshold;
    pageRecord(s, gpfn, e);
}

void
Recorder::onFree(std::uint16_t vm, std::uint64_t gpfn, sim::Tick now)
{
    VmState *s = vm < vms_.size() ? &vms_[vm] : nullptr;
    if (s == nullptr || gpfn >= s->pages.size())
        return;
    PageShadow &p = s->pages[gpfn];
    if (p.tier == noTier)
        return;
    const std::uint8_t t = p.tier;
    --s->tier_pages[t];
    s->tier_heat_mass[t] -= p.heat;
    if (p.hot) {
        --s->tier_hot[t];
        s->tier_hot_heat_mass[t] -= p.heat;
    }
    ++s->kind_counts[static_cast<std::size_t>(EventKind::Free)];

    Event e;
    e.tick = now;
    e.kind = EventKind::Free;
    e.tier_from = t;
    e.heat = p.heat;
    e.threshold = s->threshold;
    pageRecord(*s, gpfn, e);

    p = PageShadow{}; // tier = noTier
    s->clocks.reset(gpfn); // bounce identity dies with the frame
}

void
Recorder::onHeat(std::uint16_t vm, std::uint64_t gpfn,
                 std::uint16_t heat, std::uint16_t threshold,
                 sim::Tick now)
{
    VmState &s = vmState(vm);
    s.threshold = threshold;
    if (gpfn >= s.pages.size())
        return; // never allocated under xray: audit catches real holes
    PageShadow &p = s.pages[gpfn];
    if (p.tier == noTier)
        return;
    const bool was_hot = p.hot;
    applyHeat(s, p, heat);
    if (!was_hot && p.hot) {
        ++s.kind_counts[static_cast<std::size_t>(EventKind::HotCross)];
        // Promotion-lag clock: starts when a page first needs to be
        // in the fast tier but is not.
        if (p.tier != fastTier) {
            PageClock &c = s.clocks.at(gpfn);
            if (c.hot_since == 0)
                c.hot_since = now;
        } else if (PageClock *c = s.clocks.find(gpfn)) {
            c->cold_since = 0;
        }
        Event e;
        e.tick = now;
        e.kind = EventKind::HotCross;
        e.tier_from = p.tier;
        e.tier_to = p.tier;
        e.heat = heat;
        e.threshold = threshold;
        pageRecord(s, gpfn, e);
        trace::emit(trace::EventType::XrayHotCross, now, gpfn, heat,
                    threshold, 0, vm);
    } else if (was_hot && !p.hot) {
        ++s.kind_counts[static_cast<std::size_t>(EventKind::Cooled)];
        // Demotion-lag clock: a fast page that went cold is now the
        // one the LRU should be pushing down.
        if (p.tier == fastTier) {
            PageClock &c = s.clocks.at(gpfn);
            c.hot_since = 0; // the promotion need expired
            if (c.cold_since == 0)
                c.cold_since = now;
        } else if (PageClock *c = s.clocks.find(gpfn)) {
            c->hot_since = 0;
        }
        Event e;
        e.tick = now;
        e.kind = EventKind::Cooled;
        e.tier_from = p.tier;
        e.tier_to = p.tier;
        e.heat = heat;
        e.threshold = threshold;
        pageRecord(s, gpfn, e);
    }
}

void
Recorder::onTierChange(std::uint16_t vm, std::uint64_t gpfn,
                       std::uint8_t tier, sim::Tick now)
{
    const std::uint32_t rank =
        has_staged_rank_ ? staged_rank_ : 0;
    has_staged_rank_ = false;
    if (tier >= numTiers || vm >= vms_.size())
        return;
    VmState &s = vms_[vm];
    if (gpfn >= s.pages.size())
        return;
    PageShadow &p = s.pages[gpfn];
    if (p.tier == noTier || p.tier == tier)
        return; // populate/unpopulate of free frames, or no-op retarget
    const std::uint8_t from = p.tier;
    moveTier(s, p, tier);
    recordMove(s, vm, gpfn, p.hot, s.clocks.at(gpfn), from, tier, p.heat,
               rank, now);
}

void
Recorder::onGuestMove(std::uint16_t vm, std::uint64_t old_gpfn,
                      std::uint64_t new_gpfn, std::uint8_t to_tier,
                      std::uint16_t heat, std::uint32_t rank,
                      sim::Tick now)
{
    if (to_tier >= numTiers || vm >= vms_.size())
        return;
    VmState &s = vms_[vm];
    if (old_gpfn >= s.pages.size())
        return;
    const std::uint8_t from = s.pages[old_gpfn].tier;
    if (from == noTier)
        return;
    const PageShadow &new_p = shadow(s, new_gpfn);
    if (new_p.tier == noTier)
        return; // onAlloc for the new frame must have fired already
    if (from == to_tier)
        return;
    // The logical page keeps its lag clocks and bounce identity even
    // though the backing frame changed; the old frame's shadow is
    // cleared by the onFree that follows the migration.
    PageClock &new_c = s.clocks.at(new_gpfn);
    if (PageClock *old_c = s.clocks.find(old_gpfn)) {
        new_c = *old_c;
        *old_c = PageClock{};
    } else {
        new_c = PageClock{};
    }
    recordMove(s, vm, new_gpfn, new_p.hot, new_c, from, to_tier, heat,
               rank, now);
}

void
Recorder::stageRank(std::uint32_t rank)
{
    staged_rank_ = rank;
    has_staged_rank_ = true;
}

void
Recorder::onSkip(std::uint16_t vm, std::uint64_t gpfn, EventKind kind,
                 std::uint16_t heat, std::uint32_t rank, sim::Tick now)
{
    VmState &s = vmState(vm);
    ++s.kind_counts[static_cast<std::size_t>(kind)];
    Event e;
    e.tick = now;
    e.kind = kind;
    e.heat = heat;
    e.threshold = s.threshold;
    e.rank = rank;
    if (gpfn < s.pages.size() && s.pages[gpfn].tier != noTier)
        e.tier_from = s.pages[gpfn].tier;
    pageRecord(s, gpfn, e);
}

void
Recorder::onTransition(std::uint16_t vm, std::uint64_t gpfn,
                       EventKind kind, sim::Tick now)
{
    VmState &s = vmState(vm);
    ++s.kind_counts[static_cast<std::size_t>(kind)];
    Event e;
    e.tick = now;
    e.kind = kind;
    e.threshold = s.threshold;
    if (gpfn < s.pages.size() && s.pages[gpfn].tier != noTier) {
        e.tier_from = s.pages[gpfn].tier;
        e.heat = s.pages[gpfn].heat;
    }
    pageRecord(s, gpfn, e);
}

void
Recorder::onVmEvent(std::uint16_t vm, EventKind kind,
                    std::uint32_t rank, std::uint64_t a0,
                    std::uint64_t a1, sim::Tick now)
{
    VmState &s = vmState(vm);
    ++s.kind_counts[static_cast<std::size_t>(kind)];
    Event e;
    e.tick = now;
    e.kind = kind;
    e.threshold = s.threshold;
    e.rank = rank;
    e.a0 = a0;
    e.a1 = a1;
    ringAppend(s.vm_events, cfg_.vm_ring_depth, e);
    trace::emit(trace::EventType::XrayDecision, now,
                static_cast<std::uint64_t>(kind), a0, a1, 0, vm);
}

// --- Queries ----------------------------------------------------------

bool
Recorder::live(std::uint16_t vm, std::uint64_t gpfn) const
{
    const VmState *s = findVm(vm);
    return s != nullptr && gpfn < s->pages.size() &&
           s->pages[gpfn].tier != noTier;
}

std::uint16_t
Recorder::shadowHeat(std::uint16_t vm, std::uint64_t gpfn) const
{
    const VmState *s = findVm(vm);
    if (s == nullptr || gpfn >= s->pages.size())
        return 0;
    return s->pages[gpfn].heat;
}

std::uint8_t
Recorder::shadowTier(std::uint16_t vm, std::uint64_t gpfn) const
{
    const VmState *s = findVm(vm);
    if (s == nullptr || gpfn >= s->pages.size())
        return noTier;
    return s->pages[gpfn].tier;
}

std::uint16_t
Recorder::thresholdOf(std::uint16_t vm) const
{
    const VmState *s = findVm(vm);
    return s != nullptr ? s->threshold : 96;
}

std::uint64_t
Recorder::pagesIn(std::uint16_t vm, std::uint8_t tier) const
{
    const VmState *s = findVm(vm);
    return s != nullptr && tier < numTiers ? s->tier_pages[tier] : 0;
}

std::uint64_t
Recorder::hotIn(std::uint16_t vm, std::uint8_t tier) const
{
    const VmState *s = findVm(vm);
    return s != nullptr && tier < numTiers ? s->tier_hot[tier] : 0;
}

std::uint64_t
Recorder::heatMassIn(std::uint16_t vm, std::uint8_t tier) const
{
    const VmState *s = findVm(vm);
    return s != nullptr && tier < numTiers ? s->tier_heat_mass[tier]
                                           : 0;
}

std::uint64_t
Recorder::hotHeatMassIn(std::uint16_t vm, std::uint8_t tier) const
{
    const VmState *s = findVm(vm);
    return s != nullptr && tier < numTiers
               ? s->tier_hot_heat_mass[tier]
               : 0;
}

std::uint64_t
Recorder::kindCount(std::uint16_t vm, EventKind k) const
{
    const VmState *s = findVm(vm);
    return s != nullptr ? s->kind_counts[static_cast<std::size_t>(k)]
                        : 0;
}

std::uint64_t
Recorder::pingpongEvents(std::uint16_t vm) const
{
    const VmState *s = findVm(vm);
    return s != nullptr ? s->pingpong_events : 0;
}

std::uint64_t
Recorder::hotTotal(std::uint16_t vm) const
{
    const VmState *s = findVm(vm);
    if (s == nullptr)
        return 0;
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < numTiers; ++t)
        n += s->tier_hot[t];
    return n;
}

std::uint64_t
Recorder::hotMisplaced(std::uint16_t vm) const
{
    const VmState *s = findVm(vm);
    if (s == nullptr)
        return 0;
    return hotTotal(vm) - s->tier_hot[fastTier];
}

std::uint64_t
Recorder::misplacedHeatMass(std::uint16_t vm) const
{
    const VmState *s = findVm(vm);
    if (s == nullptr)
        return 0;
    std::uint64_t mass = 0;
    for (std::size_t t = 0; t < numTiers; ++t) {
        if (t != fastTier)
            mass += s->tier_hot_heat_mass[t];
    }
    return mass;
}

void
Recorder::syncStats()
{
    std::uint64_t live_pages = 0;
    std::uint64_t hot_total = 0;
    std::uint64_t hot_misplaced = 0;
    std::uint64_t cold_in_fast = 0;
    std::uint64_t heat_mass = 0;
    std::uint64_t misplaced_mass = 0;
    std::uint64_t pingpong = 0;
    std::uint64_t promotes = 0;
    std::uint64_t demotes = 0;
    for (std::uint16_t vm = 0; vm < vms_.size(); ++vm) {
        const VmState &s = vms_[vm];
        for (std::size_t t = 0; t < numTiers; ++t) {
            live_pages += s.tier_pages[t];
            hot_total += s.tier_hot[t];
            heat_mass += s.tier_heat_mass[t];
        }
        hot_misplaced += hotMisplaced(vm);
        cold_in_fast +=
            s.tier_pages[fastTier] - s.tier_hot[fastTier];
        misplaced_mass += misplacedHeatMass(vm);
        pingpong += s.pingpong_events;
        promotes +=
            s.kind_counts[static_cast<std::size_t>(EventKind::Promote)];
        demotes +=
            s.kind_counts[static_cast<std::size_t>(EventKind::Demote)];
    }
    stats_.gauge("live_pages").set(static_cast<std::int64_t>(live_pages));
    stats_.gauge("hot_total").set(static_cast<std::int64_t>(hot_total));
    stats_.gauge("hot_misplaced")
        .set(static_cast<std::int64_t>(hot_misplaced));
    stats_.gauge("cold_in_fast")
        .set(static_cast<std::int64_t>(cold_in_fast));
    stats_.gauge("heat_mass").set(static_cast<std::int64_t>(heat_mass));
    stats_.gauge("misplaced_heat_mass")
        .set(static_cast<std::int64_t>(misplaced_mass));
    stats_.gauge("pingpong_events")
        .set(static_cast<std::int64_t>(pingpong));
    stats_.gauge("promotes").set(static_cast<std::int64_t>(promotes));
    stats_.gauge("demotes").set(static_cast<std::int64_t>(demotes));
}

XrayReport
Recorder::report() const
{
    XrayReport rep;
    rep.pingpong_window_ns = cfg_.pingpong_window;
    rep.ring_depth = cfg_.ring_depth;
    for (std::uint16_t vm = 0; vm < vms_.size(); ++vm) {
        const VmState &s = vms_[vm];
        bool any = false;
        for (std::size_t t = 0; t < numTiers; ++t)
            any = any || s.tier_pages[t] != 0;
        for (std::size_t k = 0; k < numEventKinds; ++k)
            any = any || s.kind_counts[k] != 0;
        if (!any)
            continue; // index gap (no such VM), not a real guest

        XrayVm v;
        v.vm = vm;
        v.threshold = s.threshold;
        for (std::size_t t = 0; t < numTiers; ++t) {
            v.tiers[t].pages = s.tier_pages[t];
            v.tiers[t].hot_pages = s.tier_hot[t];
            v.tiers[t].heat_mass = s.tier_heat_mass[t];
            v.tiers[t].hot_heat_mass = s.tier_hot_heat_mass[t];
        }
        for (std::size_t k = 0; k < numEventKinds; ++k)
            v.kind_counts[k] = s.kind_counts[k];
        v.pingpong_events = s.pingpong_events;
        v.pingpong_pages = s.pingpong_pages;
        for (std::size_t b = 0; b < numLagBuckets; ++b) {
            if (s.promote_lag[b] != 0) {
                v.promote_lag.emplace_back(std::uint64_t(1) << b,
                                           s.promote_lag[b]);
            }
            if (s.demote_lag[b] != 0) {
                v.demote_lag.emplace_back(std::uint64_t(1) << b,
                                          s.demote_lag[b]);
            }
        }

        // Top-N misplaced pages by heat: hot pages outside the fast
        // tier, heaviest first, gpfn as the deterministic tie-break.
        std::vector<XrayTopPage> top;
        for (std::uint64_t g = 0; g < s.pages.size(); ++g) {
            const PageShadow &p = s.pages[g];
            if (p.tier == noTier || p.tier == fastTier || !p.hot)
                continue;
            top.push_back(XrayTopPage{g, p.heat, p.tier});
        }
        std::sort(top.begin(), top.end(),
                  [](const XrayTopPage &a, const XrayTopPage &b) {
                      if (a.heat != b.heat)
                          return a.heat > b.heat;
                      return a.gpfn < b.gpfn;
                  });
        if (top.size() > cfg_.top_misplaced)
            top.resize(cfg_.top_misplaced);
        v.top_misplaced = std::move(top);

        // Exported rings: pages with actual moves first (they are
        // what hos-explain is for), then the busiest rings; gpfn
        // breaks ties so the cut is deterministic. Runs are often
        // lopsided (thousands of demotions, a few hundred
        // promotions), so half the budget is reserved for
        // promotion-bearing rings — otherwise `hos-explain
        // --promoted` on a full-provenance run could come back empty
        // while promotions were in fact recorded.
        std::vector<const std::pair<const std::uint64_t, Ring> *> order;
        order.reserve(s.rings.size());
        for (const auto &kv : s.rings)
            order.push_back(&kv);
        std::sort(order.begin(), order.end(),
                  [](const auto *a, const auto *b) {
                      if (a->second.moves != b->second.moves)
                          return a->second.moves > b->second.moves;
                      if (a->second.total != b->second.total)
                          return a->second.total > b->second.total;
                      return a->first < b->first;
                  });
        if (order.size() > cfg_.export_pages) {
            const std::size_t keep = cfg_.export_pages;
            std::size_t have = 0;
            for (std::size_t i = 0; i < keep; ++i)
                have += order[i]->second.promotes > 0 ? 1 : 0;
            const std::size_t want = keep / 2;
            if (have < want) {
                std::vector<
                    const std::pair<const std::uint64_t, Ring> *>
                    extra;
                for (std::size_t i = keep;
                     i < order.size() && have + extra.size() < want;
                     ++i) {
                    if (order[i]->second.promotes > 0)
                        extra.push_back(order[i]);
                }
                // Displace the lowest-ranked promotion-free keepers.
                std::size_t w = keep;
                for (const auto *kv : extra) {
                    while (w > 0 && order[w - 1]->second.promotes > 0)
                        --w;
                    if (w == 0)
                        break;
                    order[--w] = kv;
                }
            }
            order.resize(keep);
        }
        std::sort(order.begin(), order.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        for (const auto *kv : order) {
            XrayPage pg;
            pg.gpfn = kv->first;
            pg.total_events = kv->second.total;
            const Ring &ring = kv->second;
            const std::size_t n = ring.events.size();
            // Unroll the circular buffer oldest-first.
            const std::size_t start =
                ring.total > n ? ring.total % n : 0;
            for (std::size_t i = 0; i < n; ++i)
                pg.events.push_back(ring.events[(start + i) % n]);
            v.pages.push_back(std::move(pg));
        }
        v.pages_ringed = s.rings.size();

        const Ring &ve = s.vm_events;
        const std::size_t n = ve.events.size();
        const std::size_t start = ve.total > n ? ve.total % n : 0;
        for (std::size_t i = 0; i < n; ++i)
            v.vm_events.push_back(ve.events[(start + i) % n]);
        v.vm_events_total = ve.total;

        rep.vms.push_back(std::move(v));
    }
    return rep;
}

} // namespace hos::xray
