#include "guestos/numa.hh"

#include "sim/log.hh"

namespace hos::guestos {

namespace {
/** DMA zone size on conventional (SlowMem) nodes: 16 MiB. */
constexpr std::uint64_t dmaZonePages = (16 * mem::mib) / mem::pageSize;
} // namespace

NumaNode::NumaNode(unsigned id, mem::MemType type, PageArray &pages,
                   Gpfn base, std::uint64_t span_pages)
    : id_(id), type_(type), base_(base), span_pages_(span_pages)
{
    hos_assert(span_pages > 0, "empty NUMA node");
    if (type == mem::MemType::FastMem) {
        // HeteroOS: one unified zone to conserve FastMem capacity.
        zones_.push_back(std::make_unique<Zone>(pages, ZoneKind::Unified,
                                                base, span_pages));
    } else if (span_pages > 2 * dmaZonePages) {
        zones_.push_back(std::make_unique<Zone>(pages, ZoneKind::Dma, base,
                                                dmaZonePages));
        zones_.push_back(std::make_unique<Zone>(pages, ZoneKind::Normal,
                                                base + dmaZonePages,
                                                span_pages - dmaZonePages));
    } else {
        zones_.push_back(std::make_unique<Zone>(pages, ZoneKind::Normal,
                                                base, span_pages));
    }
}

void
NumaNode::zoneOfMiss(Gpfn pfn) const
{
    sim::panic("gpfn %llu not in node %u",
               static_cast<unsigned long long>(pfn), id_);
}

Zone &
NumaNode::primaryZone()
{
    // The last zone is Unified (FastMem) or Normal (SlowMem).
    return *zones_.back();
}

const Zone &
NumaNode::primaryZone() const
{
    return *zones_.back();
}

std::uint64_t
NumaNode::freePages() const
{
    std::uint64_t n = 0;
    for (const auto &z : zones_)
        n += z->freePages();
    return n;
}

std::uint64_t
NumaNode::managedPages() const
{
    std::uint64_t n = 0;
    for (const auto &z : zones_)
        n += z->managedPages();
    return n;
}

std::uint64_t
NumaNode::allocBatch(std::uint64_t n, Gpfn *out)
{
    // A zone that fails once stays empty for the rest of the batch,
    // so draining the zones in turn is n single-page allocations. An
    // empty zone is skipped without a walk of its free lists.
    std::uint64_t got = 0;
    for (auto it = zones_.rbegin(); it != zones_.rend() && got < n; ++it) {
        BuddyAllocator &buddy = (*it)->buddy();
        if (buddy.freePages() > 0)
            got += buddy.allocBatch(n - got, out + got);
    }
    return got;
}

void
NumaNode::freeBatch(const Gpfn *pfns, std::uint64_t n)
{
    // Zones are independent, so each run of one zone's pages is one
    // batch.
    std::uint64_t i = 0;
    while (i < n) {
        Zone &z = zoneOf(pfns[i]);
        std::uint64_t j = i + 1;
        while (j < n && z.containsGpfn(pfns[j]))
            ++j;
        z.buddy().freeBatch(pfns + i, j - i);
        i = j;
    }
}

} // namespace hos::guestos
