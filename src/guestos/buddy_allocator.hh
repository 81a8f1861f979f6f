/**
 * @file
 * Binary buddy page allocator (Linux-style).
 *
 * Each zone owns one BuddyAllocator managing a contiguous gpfn range.
 * Free blocks of order o (2^o pages) live on per-order free lists; the
 * block head page carries in_buddy/buddy_order. Allocation splits the
 * smallest sufficient block; freeing coalesces with the buddy block
 * while possible.
 *
 * Pages can be added to (and permanently removed from) the managed
 * range at runtime — that is how the balloon front-end grows and
 * shrinks a memory type's reservation (paper Figure 5, steps 1-3).
 */

#ifndef HOS_GUESTOS_BUDDY_ALLOCATOR_HH
#define HOS_GUESTOS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "guestos/page.hh"
#include "sim/stats.hh"

namespace hos::guestos {

/** Binary buddy allocator over a contiguous gpfn range. */
class BuddyAllocator
{
  public:
    /** Orders 0 .. maxOrder-1 (4 KiB .. 4 MiB blocks), as in Linux. */
    static constexpr unsigned maxOrder = 11;

    /**
     * Create an allocator covering [base, base+span_pages). The range
     * starts empty; addFreeRange() donates pages to it.
     */
    BuddyAllocator(PageArray &pages, Gpfn base, std::uint64_t span_pages);

    Gpfn base() const { return base_; }
    std::uint64_t spanPages() const { return span_pages_; }
    std::uint64_t freePages() const { return free_pages_; }
    std::uint64_t managedPages() const { return managed_pages_; }

    /**
     * Donate [pfn, pfn+count) to the allocator as free memory,
     * coalescing into maximal aligned blocks. The pages must be in
     * the state free() leaves behind (never used, or surrendered from
     * a free block); HOS_CHECK=full asserts it.
     */
    void addFreeRange(Gpfn pfn, std::uint64_t count);

    /**
     * Allocate a 2^order block; returns the head gpfn or invalidGpfn.
     * All pages of the block are marked allocated.
     */
    Gpfn alloc(unsigned order);

    /** Free a block previously returned by alloc() with this order. */
    void free(Gpfn pfn, unsigned order);

    /**
     * Allocate up to `n` order-0 pages into `out`: the pfns, their
     * order, and the free lists left behind are those of `n` calls
     * of alloc(0) that stop at the first failure. The halves split
     * off inside the batch and taken again before it ends never touch
     * a free list. Returns the pages allocated.
     */
    std::uint64_t allocBatch(std::uint64_t n, Gpfn *out);

    /**
     * Free order-0 pages in the given order. The free lists come out
     * as free(pfns[i], 0) for each i leaves them, down to the tail
     * position of every final block; blocks built and merged away
     * again inside the batch never touch a free list.
     */
    void freeBatch(const Gpfn *pfns, std::uint64_t n);

    /**
     * Permanently remove one free page from management (ballooning).
     * Returns invalidGpfn when no free page is available. Prefers
     * small blocks to avoid fragmenting large ones.
     */
    Gpfn removeFreePage();

    /** Free pages currently available at exactly this order. */
    std::uint64_t freeBlocks(unsigned order) const;

    /** Read-only view of one order's free list (audit walkers). */
    const PageList &freeList(unsigned order) const
    {
        hos_assert(order < free_area_.size(), "order out of range");
        return free_area_[order];
    }

    /** Verify internal invariants (test support); panics on violation. */
    void checkInvariants() const;

  private:
    Gpfn buddyOf(Gpfn pfn, unsigned order) const;
    bool blockInRange(Gpfn pfn, unsigned order) const;
    void insertBlock(Gpfn pfn, unsigned order);
    void removeBlock(Gpfn pfn, unsigned order);
    /** Assert [pfn, pfn+count) is in the freed state (full checks). */
    void checkFreedState(Gpfn pfn, std::uint64_t count) const;
    /** Check and reset the pages of an allocated block being freed. */
    void resetFreedPages(Gpfn pfn, unsigned order);
    /**
     * Merge a block being freed with its free buddies; returns the
     * merged head and leaves its order in `order`. A buddy built by
     * the running freeBatch() is off every list and is merged
     * by clearing its head flag.
     */
    Gpfn coalesce(Gpfn pfn, unsigned &order);

    PageArray &pages_;
    Gpfn base_;
    std::uint64_t span_pages_;
    std::uint64_t free_pages_ = 0;
    std::uint64_t managed_pages_ = 0;
    std::vector<PageList> free_area_;
    /** freeBatch() buffer: blocks built, in insertion order. */
    std::vector<std::pair<Gpfn, unsigned>> built_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_BUDDY_ALLOCATOR_HH
