#include "guestos/balloon_frontend.hh"

#include <algorithm>

#include "guestos/kernel.hh"
#include "prof/prof.hh"
#include "sim/log.hh"
#include "trace/trace.hh"
#include "xray/xray.hh"

namespace hos::guestos {

namespace {
/** Cost of one populate/unpopulate hypercall round trip. */
constexpr double hypercallNs = 2000.0;
/** Per-page cost of P2M update plus buddy insertion. */
constexpr double perPageNs = 350.0;
} // namespace

BalloonFrontend::BalloonFrontend(GuestKernel &kernel) : kernel_(kernel)
{
    populated_.assign(kernel_.numNodes(), 0);
}

std::uint64_t
BalloonFrontend::bootPopulate(unsigned node_id, std::uint64_t pages)
{
    hos_assert(backend_ != nullptr, "balloon back-end not attached");
    if (pages == 0)
        return 0;
    // A node boots with its unpopulated stack still the gpfn range,
    // so the view is one ascending run.
    const UnpopulatedView view =
        kernel_.peekUnpopulatedGpfns(node_id, pages);
    const std::uint64_t granted = backend_->populatePages(node_id, view);
    hos_assert(granted <= view.size(), "back-end over-granted");

    // Donate the granted prefix to the buddy in ascending runs, split
    // at zone boundaries.
    NumaNode &node = kernel_.node(node_id);
    for (std::uint64_t i = 0; i < granted;) {
        const Gpfn first = view[i];
        Zone &z = node.zoneOf(first);
        const Gpfn zone_end = z.base() + z.spanPages();
        const std::uint64_t run =
            view.ascendingRun(i, std::min(granted - i, zone_end - first));
        kernel_.pages().setPopulatedRange(first, run);
        z.buddy().addFreeRange(first, run);
        i += run;
    }
    kernel_.commitUnpopulatedGpfns(node_id, view.size(), granted);
    for (std::size_t zi = 0; zi < node.numZones(); ++zi)
        node.zone(zi).updateWatermarks();
    populated_[node_id] += granted;
    return granted;
}

std::uint64_t
BalloonFrontend::requestPages(mem::MemType type, std::uint64_t pages)
{
    if (!backend_ || pages == 0)
        return 0;
    NumaNode *node = kernel_.nodeFor(type);
    if (!node)
        return 0;

    HOS_PROF_SPAN(balloon_span, prof::SpanKind::BalloonOp,
                  kernel_.events(), 0,
                  static_cast<std::uint8_t>(type));
    requested_.inc(pages);
    // No gpfn vector materializes. The back-end reads straight off
    // the unpopulated stack through a view, and the commit settles
    // take+return in O(1) when nothing (the DRF pressure storm) or a
    // clean prefix was granted.
    const UnpopulatedView view =
        kernel_.peekUnpopulatedGpfns(node->id(), pages);
    if (view.empty())
        return 0; // reservation already at the node ceiling
    const std::uint64_t granted =
        backend_->populatePages(node->id(), view);
    for (std::uint64_t i = 0; i < granted; ++i) {
        const Gpfn pfn = view[i];
        kernel_.pageMeta(pfn).setPopulated(true);
        node->zoneOf(pfn).buddy().addFreeRange(pfn, 1);
    }
    kernel_.commitUnpopulatedGpfns(node->id(), view.size(), granted);
    for (std::size_t zi = 0; zi < node->numZones(); ++zi)
        node->zone(zi).updateWatermarks();
    populated_[node->id()] += granted;
    granted_.inc(granted);

    trace::emit(trace::EventType::BalloonDeflate,
                kernel_.events().now(),
                static_cast<std::uint64_t>(type), pages, granted);
    kernel_.charge(OverheadKind::Balloon,
                   static_cast<sim::Duration>(
                       hypercallNs +
                       perPageNs * static_cast<double>(granted)));
    return granted;
}

std::uint64_t
BalloonFrontend::surrenderPages(mem::MemType type, std::uint64_t pages)
{
    if (!backend_ || pages == 0)
        return 0;
    NumaNode *node = kernel_.nodeFor(type);
    if (!node)
        return 0;

    std::vector<Gpfn> victims;
    victims.reserve(pages);

    auto harvest_free = [&]() {
        while (victims.size() < pages) {
            Gpfn pfn = invalidGpfn;
            for (std::size_t zi = 0; zi < node->numZones(); ++zi) {
                pfn = node->zone(zi).buddy().removeFreePage();
                if (pfn != invalidGpfn)
                    break;
            }
            if (pfn == invalidGpfn)
                break;
            victims.push_back(pfn);
        }
    };

    // 1. Free pages first.
    kernel_.percpu().drainNode(*node);
    harvest_free();

    // 2. HeteroOS-LRU: demote inactive pages of this type's node to
    //    free more (only meaningful for FastMem).
    if (victims.size() < pages && type == mem::MemType::FastMem) {
        kernel_.heteroLru().reclaimFastMem(pages - victims.size());
        harvest_free();
    }

    // 3. Swap anonymous pages out as the last resort.
    if (victims.size() < pages) {
        std::uint64_t need = pages - victims.size();
        for (std::size_t zi = 0;
             zi < node->numZones() && need > 0; ++zi) {
            SplitLru &lru = node->zone(zi).lru();
            std::uint64_t swapped = 0;
            lru.scanInactive(need * 4, [&](PageRef &p) {
                if (p.type() != PageType::Anon || swapped >= need)
                    return false;
                if (p.owner_process() == noProcess ||
                    !kernel_.hasProcess(p.owner_process())) {
                    return false;
                }
                AddressSpace &as = kernel_.process(p.owner_process());
                auto mapped = as.translate(p.vaddr());
                if (!mapped || *mapped != p.pfn())
                    return false;
                as.pageTable().unmap(p.vaddr());
                p.setOwnerProcess(noProcess);
                if (auto *xr = xray::active()) {
                    xr->onTransition(kernel_.vmTag(), p.pfn(),
                                     xray::EventKind::SwapOut,
                                     kernel_.events().now());
                }
                kernel_.freePage(p.pfn());
                ++swapped;
                return true;
            });
            if (swapped > 0) {
                HOS_PROF_SPAN(swap_span, prof::SpanKind::SwapOp,
                              kernel_.events(), 0,
                              static_cast<std::uint8_t>(type));
                kernel_.charge(OverheadKind::Swap,
                               kernel_.swap().swapOut(swapped));
                need -= std::min(need, swapped);
            } else {
                break;
            }
        }
        harvest_free();
    }

    // Hand the harvested frames back.
    for (Gpfn pfn : victims)
        kernel_.pageMeta(pfn).setPopulated(false);
    backend_->unpopulatePages(node->id(), victims);
    kernel_.returnUnpopulatedGpfns(node->id(), victims);
    populated_[node->id()] -= victims.size();
    surrendered_.inc(victims.size());

    for (std::size_t zi = 0; zi < node->numZones(); ++zi)
        node->zone(zi).updateWatermarks();

    trace::emit(trace::EventType::BalloonInflate,
                kernel_.events().now(),
                static_cast<std::uint64_t>(type), pages,
                victims.size());
    if (auto *xr = xray::active()) {
        xr->onVmEvent(kernel_.vmTag(), xray::EventKind::BalloonOut, 0,
                      victims.size(), pages, kernel_.events().now());
    }
    kernel_.charge(OverheadKind::Balloon,
                   static_cast<sim::Duration>(
                       hypercallNs +
                       perPageNs * static_cast<double>(victims.size())));
    return victims.size();
}

std::uint64_t
BalloonFrontend::populated(unsigned node_id) const
{
    hos_assert(node_id < populated_.size(), "bad node id");
    return populated_[node_id];
}

} // namespace hos::guestos
