/**
 * @file
 * The paper-faithful per-PTE access-bit scanner (Sections 2.3, 4.1).
 *
 * Periodically scans page-table entries, recording access bits and
 * resetting them — which requires TLB invalidations so the hardware
 * re-sets the bits on the next touch. The scan plus the induced
 * refill walks are the dominant management overhead the paper
 * measures (Figure 8); every scan charges that cost to the VM it
 * tracks.
 *
 * Two scanning scopes:
 *  - Full-VM (HeteroVisor / VMM-exclusive): a cursor sweeps the whole
 *    guest gpfn space, `pages_per_scan` pages per interval.
 *  - OS-guided (HeteroOS-coordinated): only the VMA ranges on the
 *    guest's tracking list are walked, and exception-listed pages
 *    (short-lived I/O, page-table, DMA) are skipped — the guest's
 *    knowledge shrinking the VMM's work.
 *
 * Scan cost grows linearly with the scanned address space — the
 * Observation 4 scaling limit the RegionTracker backend
 * (hotness_region.hh) removes. This implementation is pinned
 * bit-identical to the pre-interface tracker by the golden
 * determinism tests.
 */

#ifndef HOS_VMM_HOTNESS_PTE_HH
#define HOS_VMM_HOTNESS_PTE_HH

#include <cstdint>

#include "vmm/hotness_tracker.hh"

namespace hos::vmm {

/** Per-PTE access-bit scanning backend. */
class PteScanTracker final : public HotnessTracker
{
  public:
    PteScanTracker(VmContext &vm, HotnessConfig cfg);

    const char *backendName() const override { return "pte_scan"; }

    ScanResult scanOnce() override;

    /** Where the next full-VM sweep starts (state pins read it). */
    Gpfn sweepCursor() const { return cursor_; }
    /** The guided scan's resume point: tracking range and vaddr. */
    std::size_t rangeCursor() const { return range_cursor_; }
    std::uint64_t vaCursor() const { return va_cursor_; }

  private:
    Gpfn cursor_ = 0;
    std::size_t range_cursor_ = 0; ///< guided-scan resume point
    std::uint64_t va_cursor_ = 0;
    std::uint64_t directives_version_ = 0;
};

} // namespace hos::vmm

#endif // HOS_VMM_HOTNESS_PTE_HH
