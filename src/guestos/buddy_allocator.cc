#include "guestos/buddy_allocator.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "check/check.hh"

namespace hos::guestos {

BuddyAllocator::BuddyAllocator(PageArray &pages, Gpfn base,
                               std::uint64_t span_pages)
    : pages_(pages), base_(base), span_pages_(span_pages)
{
    free_area_.reserve(maxOrder);
    for (unsigned o = 0; o < maxOrder; ++o)
        free_area_.emplace_back(pages_, listBuddy);
}

Gpfn
BuddyAllocator::buddyOf(Gpfn pfn, unsigned order) const
{
    const std::uint64_t off = pfn - base_;
    return base_ + (off ^ (1ull << order));
}

bool
BuddyAllocator::blockInRange(Gpfn pfn, unsigned order) const
{
    return pfn >= base_ && pfn + (1ull << order) <= base_ + span_pages_;
}

void
BuddyAllocator::insertBlock(Gpfn pfn, unsigned order)
{
    PageRef head = pages_.page(pfn);
    head.setInBuddy(true);
    head.setBuddyOrder(static_cast<std::uint8_t>(order));
    // FIFO free lists: allocation proceeds from the lowest addresses
    // donated first (boot memory is handed out bottom-up, as real
    // kernels do), which matters when the VMM backs a guest's frames
    // tier-by-tier in address order.
    free_area_[order].pushBack(pfn);
    free_pages_ += 1ull << order;
}

void
BuddyAllocator::removeBlock(Gpfn pfn, unsigned order)
{
    PageRef head = pages_.page(pfn);
    hos_assert(head.in_buddy() && head.buddy_order() == order,
               "block %llu not free at order %u",
               static_cast<unsigned long long>(pfn), order);
    free_area_[order].remove(pfn);
    head.setInBuddy(false);
    free_pages_ -= 1ull << order;
}

void
BuddyAllocator::addFreeRange(Gpfn pfn, std::uint64_t count)
{
    hos_assert(pfn >= base_ && pfn + count <= base_ + span_pages_,
               "range outside allocator span");
    HOS_CHECK_FULL(checkFreedState(pfn, count));
    managed_pages_ += count;
    // Carve into maximal blocks that are both aligned (relative to
    // base) and fit in the remaining count, and free them one by one
    // so coalescing with already-free neighbours happens naturally.
    // The pages are already in the state free() would leave them in.
    while (count > 0) {
        const std::uint64_t off = pfn - base_;
        const unsigned size_order =
            static_cast<unsigned>(std::bit_width(count)) - 1;
        const unsigned align_order =
            off == 0 ? maxOrder - 1
                     : static_cast<unsigned>(std::countr_zero(off));
        unsigned order = std::min({maxOrder - 1, size_order, align_order});
        const std::uint64_t block = 1ull << order;
        const Gpfn head = coalesce(pfn, order);
        insertBlock(head, order);
        pfn += block;
        count -= block;
    }
}

void
BuddyAllocator::checkFreedState(Gpfn pfn, std::uint64_t count) const
{
    for (Gpfn g = pfn; g < pfn + count; ++g) {
        const PageRef p = pages_.page(g);
        hos_assert(!p.allocated() && !p.in_buddy() &&
                       p.list_id() == noListId &&
                       p.type() == PageType::Free && !p.dirty() &&
                       !p.referenced() && !p.pte_accessed() &&
                       p.heat() == 0 && p.owner_process() == noProcess,
                   "donating page %llu, which is not in the freed state",
                   static_cast<unsigned long long>(g));
    }
}

Gpfn
BuddyAllocator::alloc(unsigned order)
{
    hos_assert(order < maxOrder, "order %u too large", order);
    unsigned o = order;
    while (o < maxOrder && free_area_[o].empty())
        ++o;
    if (o == maxOrder)
        return invalidGpfn;

    const Gpfn pfn = free_area_[o].head();
    removeBlock(pfn, o);

    // Split down, returning upper halves to the free lists.
    while (o > order) {
        --o;
        insertBlock(pfn + (1ull << o), o);
    }

    for (std::uint64_t i = 0; i < (1ull << order); ++i) {
        PageRef p = pages_.page(pfn + i);
        hos_assert(!p.allocated(), "allocating an allocated page");
        pages_.setAllocated(p, true);
        p.setInBuddy(false);
    }
    return pfn;
}

void
BuddyAllocator::resetFreedPages(Gpfn pfn, unsigned order)
{
    hos_assert(order < maxOrder, "order %u too large", order);
    hos_assert(blockInRange(pfn, order), "freeing block outside range");
    hos_assert((pfn - base_) % (1ull << order) == 0,
               "freeing misaligned block");

    for (std::uint64_t i = 0; i < (1ull << order); ++i) {
        PageRef p = pages_.page(pfn + i);
        hos_assert(p.allocated(), "double free of page %llu",
                   static_cast<unsigned long long>(pfn + i));
        hos_assert(!p.in_buddy(), "freeing a page still in buddy");
        pages_.setAllocated(p, false);
        p.setType(PageType::Free);
        p.setDirty(false);
        p.setReferenced(false);
        p.setPteAccessed(false);
        p.setHeat(0); // a recycled frame is not the hot page it backed
        p.setOwnerProcess(noProcess);
    }
}

Gpfn
BuddyAllocator::coalesce(Gpfn pfn, unsigned &order)
{
    // Coalesce upward while the buddy block is free at the same order.
    while (order + 1 < maxOrder) {
        const Gpfn buddy = buddyOf(pfn, order);
        if (!blockInRange(buddy, order))
            break;
        PageRef bp = pages_.page(buddy);
        if (!bp.in_buddy() || bp.buddy_order() != order)
            break;
        if (bp.list_id() == noListId)
            bp.setInBuddy(false); // built by the running freeBatch()
        else
            removeBlock(buddy, order);
        pfn = std::min(pfn, buddy);
        ++order;
    }
    return pfn;
}

void
BuddyAllocator::free(Gpfn pfn, unsigned order)
{
    resetFreedPages(pfn, order);
    const Gpfn head = coalesce(pfn, order);
    insertBlock(head, order);
}

void
BuddyAllocator::freeBatch(const Gpfn *pfns, std::uint64_t n)
{
    // Each merged block is marked free in the page columns at once,
    // so later coalescing probes in the batch see it, but joins its
    // free list only at the end of a chunk. free() would have pushed
    // it to the list tail when it was built, so the survivors go to
    // the tails in build order. Flushing after any page leaves the
    // lists per-page frees would have made by then, so chunking only
    // bounds the buffer.
    constexpr std::uint64_t chunk = 1024;
    for (std::uint64_t base = 0; base < n; base += chunk) {
        built_.clear();
        for (std::uint64_t i = base; i < std::min(n, base + chunk); ++i) {
            unsigned order = 0;
            resetFreedPages(pfns[i], order);
            const Gpfn head = coalesce(pfns[i], order);
            PageRef hp = pages_.page(head);
            hp.setInBuddy(true);
            hp.setBuddyOrder(static_cast<std::uint8_t>(order));
            built_.emplace_back(head, order);
        }
        for (const auto &[head, order] : built_) {
            const PageRef hp = pages_.page(head);
            if (!hp.in_buddy() || hp.buddy_order() != order ||
                hp.list_id() != noListId) {
                continue; // merged into a larger block later on
            }
            free_area_[order].pushBack(head);
            free_pages_ += 1ull << order;
        }
    }
}

std::uint64_t
BuddyAllocator::allocBatch(std::uint64_t n, Gpfn *out)
{
    // split[o] is an order-o half split off inside this batch and not
    // yet taken again; alloc(0) would have pushed it to the tail of
    // free_area_[o]. A split only happens once every lower order is
    // empty, and no list gains a member mid-batch, so each order holds
    // at most one such half and then its list is otherwise empty.
    std::array<Gpfn, maxOrder> split;
    split.fill(invalidGpfn);
    std::uint64_t got = 0;
    for (; got < n; ++got) {
        unsigned o = 0;
        while (o < maxOrder && split[o] == invalidGpfn &&
               free_area_[o].empty()) {
            ++o;
        }
        if (o == maxOrder)
            break;
        Gpfn pfn = split[o];
        if (pfn != invalidGpfn) {
            split[o] = invalidGpfn;
        } else {
            pfn = free_area_[o].head();
            removeBlock(pfn, o);
        }
        while (o > 0) {
            --o;
            const Gpfn half = pfn + (1ull << o);
            pages_.page(half).setBuddyOrder(static_cast<std::uint8_t>(o));
            split[o] = half;
        }
        PageRef p = pages_.page(pfn);
        hos_assert(!p.allocated(), "allocating an allocated page");
        pages_.setAllocated(p, true);
        p.setInBuddy(false);
        out[got] = pfn;
    }
    for (unsigned o = 0; o < maxOrder; ++o) {
        if (split[o] != invalidGpfn)
            insertBlock(split[o], o);
    }
    return got;
}

Gpfn
BuddyAllocator::removeFreePage()
{
    for (unsigned o = 0; o < maxOrder; ++o) {
        if (free_area_[o].empty())
            continue;
        const Gpfn pfn = free_area_[o].head();
        removeBlock(pfn, o);
        // Return all but the first page to the free lists.
        for (unsigned s = 0; s < o; ++s)
            insertBlock(pfn + (1ull << s), s);
        PageRef p = pages_.page(pfn);
        pages_.setAllocated(p, false);
        p.setInBuddy(false);
        hos_assert(managed_pages_ > 0, "removing from empty allocator");
        --managed_pages_;
        return pfn;
    }
    return invalidGpfn;
}

std::uint64_t
BuddyAllocator::freeBlocks(unsigned order) const
{
    hos_assert(order < maxOrder, "order %u too large", order);
    return free_area_[order].size();
}

void
BuddyAllocator::checkInvariants() const
{
    std::uint64_t counted = 0;
    for (unsigned o = 0; o < maxOrder; ++o) {
        Gpfn pfn = free_area_[o].head();
        while (pfn != invalidGpfn) {
            const PageRef p = pages_.page(pfn);
            hos_assert(p.in_buddy() && p.buddy_order() == o,
                       "free-list page with wrong order");
            hos_assert((pfn - base_) % (1ull << o) == 0,
                       "misaligned free block");
            for (std::uint64_t i = 0; i < (1ull << o); ++i) {
                hos_assert(!pages_.page(pfn + i).allocated(),
                           "allocated page inside a free block");
            }
            counted += 1ull << o;
            pfn = p.link_next();
        }
    }
    hos_assert(counted == free_pages_, "free page accounting drift");
}

} // namespace hos::guestos
