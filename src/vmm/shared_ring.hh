/**
 * @file
 * Guest <-> VMM shared-memory coordination channel (Section 4.1).
 *
 * HeteroOS-coordinated splits responsibilities: the guest publishes
 * *what* to track (a tracking list of VMA address ranges) and *what to
 * skip* (an exception list: short-lived I/O pages, page-table and DMA
 * pages), and the VMM publishes back the hot-page candidates it found,
 * which the guest's migration front-end validates and moves
 * (Figure 5, steps 4-9).
 */

#ifndef HOS_VMM_SHARED_RING_HH
#define HOS_VMM_SHARED_RING_HH

#include <cstdint>
#include <vector>

#include "guestos/page.hh"

namespace hos::vmm {

/** One contiguous virtual address range the VMM should track. */
struct TrackingRange
{
    guestos::ProcessId pid = guestos::noProcess;
    std::uint64_t va_lo = 0;
    std::uint64_t va_hi = 0;
};

/** The guest's tracking directives. */
struct TrackingDirectives
{
    std::vector<TrackingRange> ranges;
    /**
     * Exception list: the page types not to track. The coordinated
     * policy publishes the short-lived I/O types and the unmigratable
     * page-table/DMA types; empty tracks every type.
     */
    guestos::PageTypeMask exception = 0;
    std::uint64_t version = 0;
};

/** The split front-end/back-end message channel. */
class SharedRing
{
  public:
    SharedRing() = default;

    /** Guest side: publish (replace) the tracking directives. */
    void publishDirectives(TrackingDirectives d);

    /** VMM side: the current directives. */
    const TrackingDirectives &directives() const { return directives_; }
    bool hasDirectives() const { return directives_.version > 0; }

    /** VMM side: append hot-page candidates for the guest. */
    void pushHotPages(const std::vector<guestos::Gpfn> &pfns);

    /** Guest side: take all pending hot-page candidates. */
    std::vector<guestos::Gpfn> drainHotPages();

    std::uint64_t pendingHotPages() const { return hot_.size(); }

  private:
    TrackingDirectives directives_;
    std::vector<guestos::Gpfn> hot_;
};

} // namespace hos::vmm

#endif // HOS_VMM_SHARED_RING_HH
