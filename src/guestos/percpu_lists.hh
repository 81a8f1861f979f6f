/**
 * @file
 * Per-CPU free page lists, multi-dimensional by memory type.
 *
 * Linux keeps a per-CPU list of order-0 pages so hot allocations skip
 * the buddy allocator. Those lists assume a single memory type;
 * HeteroOS redesigns them as arrays of lists indexed by (cpu, node)
 * so that a FastMem allocation never has to drain a SlowMem cache or
 * vice versa (Section 3.1, "Extending page allocators and per-CPU
 * free list"). bench_ablation_percpu measures the fast-path win.
 */

#ifndef HOS_GUESTOS_PERCPU_LISTS_HH
#define HOS_GUESTOS_PERCPU_LISTS_HH

#include <cstdint>
#include <vector>

#include "guestos/numa.hh"
#include "guestos/page.hh"
#include "sim/stats.hh"

namespace hos::guestos {

/** Per-(cpu, node) caches of order-0 pages. */
class PerCpuPageLists
{
  public:
    /**
     * @param batch pages pulled from the buddy per refill
     * @param high  watermark above which frees drain back to the buddy
     */
    PerCpuPageLists(PageArray &pages, unsigned cpus, unsigned nodes,
                    unsigned batch = 32, unsigned high = 96);

    unsigned cpus() const { return cpus_; }
    unsigned nodes() const { return nodes_; }

    /**
     * Fast-path allocation from cpu's cache for `node`; refills one
     * batch from the node's buddy when empty. invalidGpfn when the
     * buddy is also empty.
     */
    Gpfn alloc(unsigned cpu, NumaNode &node);

    /**
     * Fast-path free into cpu's cache; drains half the cache back to
     * the buddy above the high watermark.
     */
    void free(unsigned cpu, NumaNode &node, Gpfn pfn)
    {
        freePages(cpu, node, &pfn, 1);
    }

    /**
     * free() of each page of `node` in order. Nothing reads the buddy
     * while the cache fills, so the pages the drains send back reach
     * the buddy in batches, in drain order.
     */
    void freePages(unsigned cpu, NumaNode &node, const Gpfn *pfns,
                   std::uint64_t n);

    /** Return every cached page of `node` to its buddy. */
    void drainNode(NumaNode &node);

    std::uint64_t cached(unsigned cpu, unsigned node) const;
    std::uint64_t totalCached() const;

    /**
     * Pages cached for one node across all CPUs. O(1): watermark
     * checks consult this on every allocation, so the per-node total
     * is maintained incrementally rather than summed over CPUs.
     */
    std::uint64_t cachedOnNode(unsigned node) const
    {
        hos_assert(node < nodes_, "bad node id");
        return cached_per_node_[node];
    }

    std::uint64_t fastPathHits() const { return hits_.value(); }
    /**
     * Times alloc() found the cache empty and asked the buddy for a
     * batch, including asks the buddy could not serve. Demotions
     * check GuestKernel::canAllocOnNode() first and make no doomed
     * ask, so this counts real refill attempts. Host-side only: no
     * simulated result or report reads it.
     */
    std::uint64_t refills() const { return refills_.value(); }

    /** Read-only view of one (cpu, node) cache (audit walkers). */
    const PageList &cacheList(unsigned cpu, unsigned node) const
    {
        return listFor(cpu, node);
    }

  private:
    PageList &listFor(unsigned cpu, unsigned node);
    const PageList &listFor(unsigned cpu, unsigned node) const;

    PageArray &pages_;
    unsigned cpus_;
    unsigned nodes_;
    unsigned batch_;
    unsigned high_;
    std::vector<PageList> lists_;
    std::vector<std::uint64_t> cached_per_node_;
    std::vector<Gpfn> refill_;  ///< alloc() buffer: one batch
    std::vector<Gpfn> drained_; ///< freePages() buffer: buddy-bound
    sim::Counter hits_;
    sim::Counter refills_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_PERCPU_LISTS_HH
