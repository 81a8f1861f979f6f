/**
 * @file
 * On-demand allocation (balloon) driver, guest front-end.
 *
 * HeteroOS extends classic ballooning with multi-dimensional,
 * memory-type-specific state (Section 3.1 / 4.2): the guest boots
 * with a per-type minimum reservation, and this driver grows a type's
 * population on demand (Figure 5 steps 1-2) or surrenders pages when
 * the VMM reclaims (inflate). Surrender prefers free pages, then
 * HeteroOS-LRU-demotable pages, then swap as the last resort.
 */

#ifndef HOS_GUESTOS_BALLOON_FRONTEND_HH
#define HOS_GUESTOS_BALLOON_FRONTEND_HH

#include <cstdint>
#include <vector>

#include "guestos/hypercalls.hh"
#include "guestos/page.hh"
#include "mem/mem_spec.hh"
#include "sim/stats.hh"

namespace hos::guestos {

class GuestKernel;

/** Per-memory-type balloon state and operations. */
class BalloonFrontend
{
  public:
    explicit BalloonFrontend(GuestKernel &kernel);

    /** Connect to the VMM back-end (done at VM registration). */
    void attachBackend(BalloonBackendIf *backend) { backend_ = backend; }
    bool attached() const { return backend_ != nullptr; }

    /**
     * Populate the initial reservation of a node (boot path).
     * Returns pages actually granted.
     */
    std::uint64_t bootPopulate(unsigned node_id, std::uint64_t pages);

    /**
     * Grow a memory type's population by up to `pages` (steps 1-2 of
     * Figure 5). Granted pages join the node's buddy allocator.
     * Returns pages granted.
     */
    std::uint64_t requestPages(mem::MemType type, std::uint64_t pages);

    /**
     * Give `pages` of a type back to the VMM (balloon inflate).
     * Returns pages surrendered (may be fewer if the guest cannot
     * free enough even after reclaim and swap).
     */
    std::uint64_t surrenderPages(mem::MemType type, std::uint64_t pages);

    /** Currently populated pages of a node. */
    std::uint64_t populated(unsigned node_id) const;

    std::uint64_t totalRequested() const { return requested_.value(); }
    std::uint64_t totalGranted() const { return granted_.value(); }
    std::uint64_t totalSurrendered() const { return surrendered_.value(); }

  private:
    GuestKernel &kernel_;
    BalloonBackendIf *backend_ = nullptr;
    std::vector<std::uint64_t> populated_; ///< per node
    sim::Counter requested_;
    sim::Counter granted_;
    sim::Counter surrendered_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_BALLOON_FRONTEND_HH
