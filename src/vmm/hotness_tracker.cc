#include "vmm/hotness_tracker.hh"

#include <algorithm>

#include "sim/log.hh"
#include "trace/trace.hh"
#include "vmm/hotness_pte.hh"
#include "vmm/hotness_region.hh"
#include "xray/xray.hh"

namespace hos::vmm {

const char *
hotnessBackendKey(HotnessBackend b)
{
    switch (b) {
      case HotnessBackend::PteScan:
        return "pte_scan";
      case HotnessBackend::Region:
        return "region";
    }
    return "?";
}

std::optional<HotnessBackend>
parseHotnessBackend(const std::string &key)
{
    if (key == "pte_scan")
        return HotnessBackend::PteScan;
    if (key == "region")
        return HotnessBackend::Region;
    return std::nullopt;
}

HotnessTracker::HotnessTracker(VmContext &vm, HotnessConfig cfg)
    : vm_(vm), cfg_(cfg), interval_(cfg.interval)
{
}

HotnessTracker::HeatSink
HotnessTracker::heatSink() const
{
    return HeatSink{xray::active(), vm_.kernel().events().now()};
}

std::uint16_t
HotnessTracker::probeHeat(guestos::PageRef &p, bool accessed,
                          const HeatSink &sink)
{
    const std::uint16_t heat = nextHeat(p.heat(), accessed);
    p.setHeat(heat);
    reportHeat(sink, p.pfn(), heat);
    return heat;
}

void
HotnessTracker::raiseHeat(guestos::PageRef &p, std::uint16_t floor,
                          const HeatSink &sink)
{
    if (p.heat() >= floor)
        return;
    p.setHeat(floor);
    reportHeat(sink, p.pfn(), floor);
}

void
HotnessTracker::finishScan(ScanResult &res)
{
    scans_.inc();
    scanned_.inc(res.pages_scanned);
    last_hot_ = res.hot.size();
    total_cost_ += res.cost;
    trace::emit(trace::EventType::HotnessScan,
                vm_.kernel().events().now(), res.pages_scanned,
                res.accessed, res.hot.size(), res.cost,
                static_cast<std::uint16_t>(vm_.id()));
}

void
HotnessTracker::adaptInterval()
{
    if (!cfg_.adaptive)
        return;
    // The VMM exports cumulative LLC misses; Equation 1 works on the
    // misses observed *within* each epoch.
    const std::uint64_t cum = vm_.llcMisses();
    const std::uint64_t epoch_misses =
        cum >= last_llc_misses_ ? cum - last_llc_misses_ : 0;
    last_llc_misses_ = cum;
    if (last_epoch_misses_ == 0) {
        last_epoch_misses_ = epoch_misses;
        return;
    }

    // Equation 1: Interval -= dLLC * Interval, with dLLC the relative
    // change in per-epoch misses. A rising miss rate shrinks the
    // interval (track hotter, migrate sooner); a falling one
    // lengthens it (save the scanning cost).
    const double d_llc =
        (static_cast<double>(epoch_misses) -
         static_cast<double>(last_epoch_misses_)) /
        static_cast<double>(last_epoch_misses_);
    last_epoch_misses_ = epoch_misses;
    double next = static_cast<double>(interval_) *
                  (1.0 - std::clamp(d_llc, -1.0, 1.0));
    next = std::clamp(next, static_cast<double>(cfg_.min_interval),
                      static_cast<double>(cfg_.max_interval));
    interval_ = static_cast<sim::Duration>(next);
}

std::unique_ptr<HotnessTracker>
makeHotnessTracker(VmContext &vm, const HotnessConfig &cfg)
{
    switch (cfg.backend) {
      case HotnessBackend::PteScan:
        return std::make_unique<PteScanTracker>(vm, cfg);
      case HotnessBackend::Region:
        return std::make_unique<RegionTracker>(vm, cfg);
    }
    sim::panic("unknown hotness backend");
}

} // namespace hos::vmm
