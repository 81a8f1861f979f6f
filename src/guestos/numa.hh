/**
 * @file
 * Guest NUMA topology with heterogeneous-memory awareness.
 *
 * HeteroOS exposes each memory type to the guest as a NUMA node (the
 * fake-NUMA mechanism, Section 3.1) and tags the node structure with
 * the memory type — the paper's special node flag. FastMem nodes get
 * one unified zone; SlowMem nodes get DMA + Normal zones. Automatic
 * NUMA balancing is disabled for FastMem nodes (the paper disables the
 * CPU-affinity placement policies that would fight the type-aware
 * allocator).
 */

#ifndef HOS_GUESTOS_NUMA_HH
#define HOS_GUESTOS_NUMA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "guestos/page.hh"
#include "guestos/zone.hh"
#include "mem/mem_spec.hh"

namespace hos::guestos {

/** One guest NUMA node: a memory type's gpfn range and its zones. */
class NumaNode
{
  public:
    /**
     * @param id         node id as seen by the guest
     * @param type       memory type flag (the HeteroOS node extension)
     * @param pages      the guest's page array
     * @param base       first gpfn of this node
     * @param span_pages node size in pages (maximum reservation)
     */
    NumaNode(unsigned id, mem::MemType type, PageArray &pages, Gpfn base,
             std::uint64_t span_pages);

    unsigned id() const { return id_; }
    mem::MemType memType() const { return type_; }
    Gpfn base() const { return base_; }
    std::uint64_t spanPages() const { return span_pages_; }

    std::size_t numZones() const { return zones_.size(); }
    Zone &zone(std::size_t i) { return *zones_[i]; }
    const Zone &zone(std::size_t i) const { return *zones_[i]; }

    /** Zone containing a gpfn; panics if outside the node. */
    Zone &zoneOf(Gpfn pfn)
    {
        // At most two zones per node (DMA + Normal/Unified), checked
        // newest-first: user allocations live in the last zone.
        for (auto it = zones_.rbegin(); it != zones_.rend(); ++it) {
            if ((*it)->containsGpfn(pfn))
                return **it;
        }
        zoneOfMiss(pfn);
    }

    /** The zone user allocations come from (Unified or Normal). */
    Zone &primaryZone();
    const Zone &primaryZone() const;

    bool containsGpfn(Gpfn pfn) const
    {
        return pfn >= base_ && pfn < base_ + span_pages_;
    }

    std::uint64_t freePages() const;
    std::uint64_t managedPages() const;

    /**
     * Allocate up to `n` order-0 pages into `out`, primary zone
     * first and DMA only once it is empty (Linux's lowmem protection,
     * simplified). Returns the pages allocated.
     */
    std::uint64_t allocBatch(std::uint64_t n, Gpfn *out);

    /** Free order-0 pages, in order, into the zones that own them. */
    void freeBatch(const Gpfn *pfns, std::uint64_t n);

  private:
    [[noreturn]] void zoneOfMiss(Gpfn pfn) const;
    unsigned id_;
    mem::MemType type_;
    Gpfn base_;
    std::uint64_t span_pages_;
    std::vector<std::unique_ptr<Zone>> zones_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_NUMA_HH
