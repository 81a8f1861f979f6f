#include "guestos/percpu_lists.hh"

#include <algorithm>

#include "check/page_state.hh"

namespace hos::guestos {

namespace {
/**
 * Pages a batch free hands the buddy at a time. Nothing reads the
 * buddy between frees, so any split of the drain sequence is exact.
 */
constexpr std::size_t drainChunk = 1024;
} // namespace

PerCpuPageLists::PerCpuPageLists(PageArray &pages, unsigned cpus,
                                 unsigned nodes, unsigned batch,
                                 unsigned high)
    : pages_(pages), cpus_(cpus), nodes_(nodes), batch_(batch), high_(high),
      cached_per_node_(nodes, 0), refill_(batch)
{
    hos_assert(cpus > 0 && nodes > 0, "need cpus and nodes");
    lists_.reserve(static_cast<std::size_t>(cpus) * nodes);
    for (unsigned i = 0; i < cpus * nodes; ++i)
        lists_.emplace_back(pages_, listPerCpu);
}

PageList &
PerCpuPageLists::listFor(unsigned cpu, unsigned node)
{
    hos_assert(cpu < cpus_ && node < nodes_, "bad cpu/node");
    return lists_[static_cast<std::size_t>(cpu) * nodes_ + node];
}

const PageList &
PerCpuPageLists::listFor(unsigned cpu, unsigned node) const
{
    hos_assert(cpu < cpus_ && node < nodes_, "bad cpu/node");
    return lists_[static_cast<std::size_t>(cpu) * nodes_ + node];
}

Gpfn
PerCpuPageLists::alloc(unsigned cpu, NumaNode &node)
{
    PageList &list = listFor(cpu, node.id());
    if (!list.empty()) {
        hits_.inc();
        const Gpfn pfn = list.popFront();
        --cached_per_node_[node.id()];
        pages_.setAllocated(pages_.page(pfn), true);
        return pfn;
    }
    // Refill a batch from the buddy; hand out the first page.
    refills_.inc();
    const std::uint64_t got = node.allocBatch(batch_, refill_.data());
    if (got == 0)
        return invalidGpfn;
    for (std::uint64_t i = 1; i < got; ++i) {
        const Gpfn pfn = refill_[i];
        pages_.setAllocated(pages_.page(pfn), false); // parked here
        list.pushBack(pfn);
        ++cached_per_node_[node.id()];
    }
    return refill_[0];
}

void
PerCpuPageLists::freePages(unsigned cpu, NumaNode &node, const Gpfn *pfns,
                           std::uint64_t n)
{
    PageList &list = listFor(cpu, node.id());
    std::uint64_t &cached = cached_per_node_[node.id()];
    const std::uint64_t target = high_ / 2;

    // The cache is a FIFO: frees push at the front and every drain
    // pops from the back down to `target`. Replaying only the sizes
    // tells how many of the oldest entries this batch's drains send
    // to the buddy: the list's own entries from the tail first, then
    // the first of `pfns`, which need no push and pop at all.
    std::uint64_t size = list.size();
    std::uint64_t drained = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (++size > high_) {
            drained += size - target;
            size = target;
        }
    }
    const std::uint64_t from_list = std::min(drained, list.size());
    const std::uint64_t direct = drained - from_list;

    drained_.clear();
    for (std::uint64_t i = 0; i < from_list; ++i) {
        const Gpfn cold = list.popBack();
        --cached;
        // The buddy frees allocated pages.
        pages_.setAllocated(pages_.page(cold), true);
        drained_.push_back(cold);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        const Gpfn pfn = pfns[i];
        PageRef p = pages_.page(pfn);
        HOS_CHECK_CHEAP(check::validateFree(p, "percpu.free"));
        hos_assert(p.allocated(), "per-cpu free of non-allocated page");
        // Reset as the buddy would; the page stays out of the buddy
        // while cached here.
        pages_.setAllocated(p, false);
        p.setType(PageType::Free);
        p.setDirty(false);
        p.setReferenced(false);
        p.setPteAccessed(false);
        p.setHeat(0); // a recycled frame is not the hot page it backed
        p.setOwnerProcess(noProcess);
        if (i < direct) {
            pages_.setAllocated(p, true);
            drained_.push_back(pfn);
            if (drained_.size() == drainChunk) { // bounds the buffer
                node.freeBatch(drained_.data(), drained_.size());
                drained_.clear();
            }
        } else {
            list.pushFront(pfn);
            ++cached;
        }
    }
    node.freeBatch(drained_.data(), drained_.size());
}

void
PerCpuPageLists::drainNode(NumaNode &node)
{
    drained_.clear();
    for (unsigned cpu = 0; cpu < cpus_; ++cpu) {
        PageList &list = listFor(cpu, node.id());
        while (!list.empty()) {
            const Gpfn pfn = list.popBack();
            --cached_per_node_[node.id()];
            pages_.setAllocated(pages_.page(pfn), true);
            drained_.push_back(pfn);
        }
    }
    node.freeBatch(drained_.data(), drained_.size());
}

std::uint64_t
PerCpuPageLists::cached(unsigned cpu, unsigned node) const
{
    return listFor(cpu, node).size();
}

std::uint64_t
PerCpuPageLists::totalCached() const
{
    std::uint64_t n = 0;
    for (const auto &l : lists_)
        n += l.size();
    return n;
}

} // namespace hos::guestos
