/**
 * @file
 * DAMON-style adaptive region hotness tracking.
 *
 * The per-PTE scanner's cost grows linearly with the scanned address
 * space (Observation 4). This backend instead maintains a bounded set
 * of contiguous regions per VM and samples a fixed number of probe
 * pages per region per interval, so the scan cost is
 *
 *     regions (<= region_max) * region_probes * per_pte_ns  + flush
 *
 * — flat regardless of guest footprint. The exchange rate is spatial
 * resolution: a region's heat is the EWMA of its probe hit-rate, and
 * every page in a hot region is treated as hot. Resolution adapts to
 * the workload exactly as in DAMON (Park et al.): probes alternate
 * between a region's two halves, and when the halves' accumulated
 * hit-rates disagree the region splits; adjacent regions whose heats
 * agree merge back, keeping the region count within
 * [region_min, region_max].
 *
 * Scopes mirror the per-PTE backend:
 *  - Full-VM: regions tile the whole gpfn space.
 *  - OS-guided (coordinated): regions tile the tracking-list VMA
 *    ranges (page-number units of each process's VA space), probes
 *    resolve through the owning page table, and exception-listed
 *    pages contribute no heat. Re-published identical directives keep
 *    the learned regions; changed directives re-tile, carrying heat
 *    over from overlapping old regions.
 *
 * Hot-candidate emission feeds the same migration paths as the
 * per-PTE scan: pages of over-threshold regions are emitted (rotating
 * through a per-region cursor, skipping already-fast pages), capped
 * by the promote budget, with their page heat raised to the region
 * heat so engine eviction ordering and the hos::xray shadow stay
 * meaningful.
 */

#ifndef HOS_VMM_HOTNESS_REGION_HH
#define HOS_VMM_HOTNESS_REGION_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "vmm/hotness_tracker.hh"

namespace hos::vmm {

/** One monitored region, in page-number units. */
struct HotRegion
{
    /** Owning process for guided (VA) regions; noProcess = gpfn space. */
    guestos::ProcessId pid = guestos::noProcess;
    std::uint64_t lo = 0; ///< first page number
    std::uint64_t hi = 0; ///< one past the last page number
    /** EWMA heat on the same scale as per-page heat (converges 127). */
    std::uint16_t heat = 0;
    /** Accumulated (decayed) split evidence per half. */
    std::uint32_t half_probes[2] = {0, 0};
    std::uint32_t half_hits[2] = {0, 0};
    /** Candidate-emission resume offset within the region. */
    std::uint64_t emit_cursor = 0;

    std::uint64_t pages() const { return hi - lo; }
};

/** Adaptive region-sampling backend. */
class RegionTracker final : public HotnessTracker
{
  public:
    RegionTracker(VmContext &vm, HotnessConfig cfg);

    const char *backendName() const override { return "region"; }

    ScanResult scanOnce() override;

    /** The live region set (tests assert its tiling invariants). */
    const std::vector<HotRegion> &regions() const { return regions_; }

  private:
    /** (Re)build the region set when the tracked space changed. */
    void syncSpace();
    void tileFullVm();
    void tileGuided(const TrackingDirectives &d);
    /** Heat of the old region covering `page` for `pid`, or 0. */
    std::uint16_t inheritedHeat(guestos::ProcessId pid,
                                std::uint64_t page) const;

    /** Probe one region's pages, updating its heat and evidence. */
    void probeRegion(HotRegion &r, ScanResult &res, const HeatSink &sink);
    /** Split/merge pass plus region-count floor enforcement. */
    void adjustRegions(ScanResult &res);
    /**
     * Emit hot-region pages into res.hot, capped by the promote
     * budget. Returns the charged emission-walk cost.
     */
    sim::Duration emitCandidates(ScanResult &res, const HeatSink &sink);

    std::vector<HotRegion> regions_;
    /** The directive set regions_ currently tiles (guided mode). */
    std::vector<TrackingRange> tracked_ranges_;
    std::uint64_t directives_version_ = 0;
    bool guided_ = false;
    /** Emission fairness: which region starts the next emit pass. */
    std::size_t emit_region_cursor_ = 0;
    sim::Rng rng_;
};

} // namespace hos::vmm

#endif // HOS_VMM_HOTNESS_REGION_HH
