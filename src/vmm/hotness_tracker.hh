/**
 * @file
 * VMM page-hotness tracking (Sections 2.3 and 4.1) — the pluggable
 * backend interface.
 *
 * Software hotness tracking answers one question — which guest pages
 * are hot enough to justify FastMem — but the *mechanism* that
 * answers it is a policy choice with very different cost curves:
 *
 *  - PteScanTracker (hotness_pte.hh): the paper's per-PTE access-bit
 *    scan. Faithful to Figure 8, including the full-VM and OS-guided
 *    scanning scopes, but cost grows linearly with the scanned
 *    address space (Observation 4's scaling limit).
 *  - RegionTracker (hotness_region.hh): DAMON-style adaptive region
 *    monitoring. A bounded set of regions is probed with a fixed
 *    sampling budget per interval — flat cost regardless of guest
 *    footprint — and regions split/merge as their access patterns
 *    diverge/agree.
 *
 * Both backends implement this interface: scanOnce() produces hot
 * candidates and charges the scan cost to the VM, adaptInterval()
 * applies the Equation 1 LLC-miss feedback, and guideWith() attaches
 * the guest's OS-guided tracking directives (coordinated mode).
 * Policies, the migration-candidate path, hos::prof attribution, and
 * hos::xray provenance all work against the interface; the backend is
 * selected by HotnessConfig::backend (surfaced as the Scenario
 * "hotness" spec — see core/scenario.hh).
 */

#ifndef HOS_VMM_HOTNESS_TRACKER_HH
#define HOS_VMM_HOTNESS_TRACKER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/time.hh"
#include "vmm/shared_ring.hh"
#include "vmm/vmm.hh"

namespace hos::vmm {

/** The available hotness-tracking backends. */
enum class HotnessBackend : std::uint8_t {
    PteScan, ///< paper-faithful per-PTE access-bit scan
    Region,  ///< DAMON-style adaptive region sampling
};

/** Stable key ("pte_scan"/"region"), used by scenario JSON. */
const char *hotnessBackendKey(HotnessBackend b);
std::optional<HotnessBackend> parseHotnessBackend(const std::string &key);

/** Hotness-tracking configuration. */
struct HotnessConfig
{
    /** Which backend implementation to instantiate. */
    HotnessBackend backend = HotnessBackend::PteScan;

    /** Scan interval (HeteroVisor default: 100 ms per 32K pages). */
    sim::Duration interval = sim::milliseconds(100);
    std::uint64_t pages_per_scan = 32768;
    /** EWMA heat threshold above which a page counts as hot. */
    std::uint16_t hot_threshold = 96;
    /**
     * Per-PTE scan cost charged to the VM, covering the table walk,
     * access-bit reset, and the amortized TLB-refill penalty the
     * forced invalidation causes (calibrated against Figure 8).
     */
    double per_pte_ns = 700.0;
    /**
     * Migration rate limit in pages/second: hot candidates beyond
     * interval * rate are deferred to the next round. Real systems
     * throttle migration batches; without a limit the Table 6
     * per-page costs would stall the VM.
     */
    double promote_rate_pps = 1800.0;

    /** Hot-page budget for one round at the given effective interval. */
    std::uint64_t
    promoteBudget(sim::Duration effective_interval) const
    {
        return static_cast<std::uint64_t>(
            promote_rate_pps * sim::toSeconds(effective_interval));
    }
    /** Equation 1 adaptive interval. */
    bool adaptive = false;
    sim::Duration min_interval = sim::milliseconds(50);
    sim::Duration max_interval = sim::seconds(1);

    // --- Region backend (DAMON-style) ------------------------------
    //
    // The sampling budget per scan is region_max * region_probes
    // probes, independent of guest footprint; the bookkeeping budget
    // is one pass over at most region_max region descriptors. Both
    // bound the scan cost by configuration alone.

    /** Region-count bounds: split/merge keeps the count in range. */
    std::uint32_t region_min = 16;
    std::uint32_t region_max = 256;
    /** Probe pages sampled per region per scan. */
    std::uint32_t region_probes = 8;
    /** Never split a region below this many pages. */
    std::uint64_t region_min_pages = 64;
    /**
     * Split a region when its halves' probe hit-rates differ by more
     * than this fraction (accumulated evidence, not one scan).
     */
    double region_split_threshold = 0.25;
    /** Merge adjacent regions whose heats differ by at most this. */
    std::uint16_t region_merge_heat_delta = 8;
    /** Split/merge bookkeeping cost per region descriptor examined. */
    double per_region_adjust_ns = 120.0;
};

/** Result of one scan pass. */
struct ScanResult
{
    std::uint64_t pages_scanned = 0;
    std::uint64_t accessed = 0;
    std::vector<Gpfn> hot; ///< pages over the heat threshold
    sim::Duration cost = 0;
    // Region-backend extras (zero under pte_scan).
    std::uint64_t regions = 0; ///< live regions after this scan
    std::uint64_t splits = 0;
    std::uint64_t merges = 0;
};

/**
 * Tracks page hotness for one VM — the backend interface.
 *
 * The base class owns everything backend-independent: the config, the
 * (possibly adaptive) interval, the Equation 1 feedback loop, the
 * per-page heat EWMA, and the scan statistics. Backends implement
 * scanOnce() and the guided-mode attachment.
 */
class HotnessTracker
{
  public:
    virtual ~HotnessTracker() = default;

    HotnessTracker(const HotnessTracker &) = delete;
    HotnessTracker &operator=(const HotnessTracker &) = delete;

    /** The backend's stable key ("pte_scan"/"region"). */
    virtual const char *backendName() const = 0;

    const HotnessConfig &config() const { return cfg_; }
    sim::Duration interval() const { return interval_; }

    /**
     * Attach OS-guided directives (coordinated mode). Passing nullptr
     * reverts to full-VM scanning.
     */
    virtual void guideWith(const SharedRing *ring) { ring_ = ring; }

    /**
     * Perform one scan pass: harvest access information, update heat,
     * collect hot candidates, and charge the scan cost to the VM.
     */
    virtual ScanResult scanOnce() = 0;

    /**
     * Equation 1: adjust the interval from the LLC-miss delta the VMM
     * observed for this VM since the previous call.
     */
    virtual void adaptInterval();

    std::uint64_t totalScanned() const { return scanned_.value(); }
    std::uint64_t totalScans() const { return scans_.value(); }
    sim::Duration totalCost() const { return total_cost_; }

  protected:
    HotnessTracker(VmContext &vm, HotnessConfig cfg);

    /**
     * Update one page's heat from its harvested access bit, counting
     * it hot when over threshold (the per-PTE path's inner loop).
     */
    void heatPage(guestos::PageRef &p, bool accessed, ScanResult &res);

    /**
     * EWMA-update one page's heat without hot-candidate collection
     * (the region backend's probe path). Keeps the xray heat shadow
     * exact. Returns the new heat.
     */
    std::uint16_t probeHeat(guestos::PageRef &p, bool accessed);

    /**
     * Raise one page's heat to at least `floor` (region-level heat
     * applied to an emitted candidate), keeping the xray shadow exact.
     */
    void raiseHeat(guestos::PageRef &p, std::uint16_t floor);

    /**
     * Close out a scan: record counters, accumulate cost, and emit
     * the HotnessScan trace event. `res.cost` must already be set.
     */
    void finishScan(ScanResult &res);

    VmContext &vm_;
    HotnessConfig cfg_;
    sim::Duration interval_;
    const SharedRing *ring_ = nullptr;
    std::uint64_t last_hot_ = 0; ///< ScanResult::hot reservation

  private:
    std::uint64_t last_llc_misses_ = 0;
    std::uint64_t last_epoch_misses_ = 0;
    sim::Counter scanned_;
    sim::Counter scans_;
    sim::Duration total_cost_ = 0;
};

/** Instantiate the backend `cfg.backend` selects. */
std::unique_ptr<HotnessTracker> makeHotnessTracker(VmContext &vm,
                                                   const HotnessConfig &cfg);

} // namespace hos::vmm

#endif // HOS_VMM_HOTNESS_TRACKER_HH
