#include "policy/coordinated.hh"

#include <algorithm>

#include "sim/log.hh"
#include "xray/xray.hh"

namespace hos::policy {

CoordinatedPolicy::CoordinatedPolicy(CoordinatedConfig cfg) : cfg_(cfg)
{
    cfg_.hotness.adaptive = cfg_.adaptive_interval;
}

void
CoordinatedPolicy::configureGuest(guestos::GuestConfig &cfg) const
{
    cfg.alloc = guestos::heapIoSlabOdConfig();
    cfg.alloc.active_reclaim = true;
    cfg.lru.enabled = true;
    cfg.lru.eager_io_eviction = true;
    cfg.lru.eager_unmap_demotion = true;
}

void
CoordinatedPolicy::publishDirectives(guestos::GuestKernel &kernel)
{
    vmm::TrackingDirectives d;
    // Tracking list: every anonymous VMA of every process — the
    // regions whose hotness is worth acting on. File-backed and
    // kernel pages are covered by the exception list instead.
    for (guestos::ProcessId pid = 0; kernel.hasProcess(pid); ++pid) {
        auto &as = kernel.process(pid);
        as.forEachVma([&](const guestos::Vma &vma) {
            if (vma.kind != guestos::VmaKind::Anon)
                return;
            d.ranges.push_back(
                vmm::TrackingRange{pid, vma.start, vma.end()});
        });
    }
    // Exception list: short-lived I/O pages (evicted eagerly by
    // HeteroOS-LRU anyway) and unmigratable page-table/DMA pages.
    for (std::size_t i = 0; i < guestos::numPageTypes; ++i) {
        const auto t = static_cast<guestos::PageType>(i);
        if (guestos::isShortLivedIo(t) ||
            guestos::isMigrationException(t)) {
            d.exception |= guestos::pageTypeBit(t);
        }
    }
    ring_.publishDirectives(std::move(d));
}

void
CoordinatedPolicy::attach(vmm::Vmm &vmm, vmm::VmId id,
                          guestos::GuestKernel &kernel)
{
    auto &vm = vmm.vm(id);
    tracker_ = vmm::makeHotnessTracker(vm, cfg_.hotness);
    if (cfg_.os_guided) {
        tracker_->guideWith(&ring_);
        publishDirectives(kernel);
        kernel.events().schedulePeriodic(
            cfg_.directive_interval,
            [this, &kernel](sim::Duration p) {
                publishDirectives(kernel);
                return p;
            });
    }

    // The coordination loop (Figure 5, steps 4-9): VMM scans under
    // guest guidance; the guest validates and migrates.
    kernel.events().schedulePeriodic(
        tracker_->interval(), [this, &kernel](sim::Duration) {
            tracker_->adaptInterval();
            auto scan = tracker_->scanOnce();

            // Step 6: hot pages into the shared ring — only pages the
            // guest placed in SlowMem are promotion candidates.
            std::vector<guestos::Gpfn> candidates;
            candidates.reserve(scan.hot.size());
            for (guestos::Gpfn pfn : scan.hot) {
                if (kernel.pageMeta(pfn).mem_type() ==
                    mem::MemType::SlowMem) {
                    candidates.push_back(pfn);
                }
            }
            ring_.pushHotPages(candidates);

            // Steps 7-9: the guest drains the ring, makes room via
            // HeteroOS-LRU, and migrates with full page-state checks,
            // under the same rate limit the VMM engine uses.
            auto hot = ring_.drainHotPages();
            const std::uint64_t budget =
                cfg_.hotness.promoteBudget(tracker_->interval());
            if (hot.size() > budget) {
                if (auto *xr = xray::active()) {
                    xr->onVmEvent(kernel.vmTag(),
                                  xray::EventKind::Throttle, 0,
                                  hot.size(), budget,
                                  kernel.events().now());
                }
                hot.resize(budget);
            }
            if (!hot.empty()) {
                auto *fast = kernel.nodeFor(mem::MemType::FastMem);
                if (fast && fast->freePages() < hot.size()) {
                    kernel.heteroLru().reclaimFastMem(hot.size() -
                                                      fast->freePages());
                }
                auto outcome = kernel.migrator().migratePages(
                    hot, mem::MemType::FastMem);
                promoted_ += outcome.migrated;
            }
            return tracker_->interval();
        });
}

} // namespace hos::policy
