#include "guestos/hetero_allocator.hh"

#include <algorithm>

#include "check/page_state.hh"
#include "guestos/kernel.hh"
#include "sim/log.hh"
#include "trace/trace.hh"
#include "xray/xray.hh"

namespace hos::guestos {

const char *
allocModeName(AllocMode m)
{
    switch (m) {
      case AllocMode::SlowOnly:
        return "SlowMem-only";
      case AllocMode::FastOnly:
        return "FastMem-only";
      case AllocMode::Random:
        return "Random";
      case AllocMode::FastPreferred:
        return "NUMA-preferred";
      case AllocMode::OnDemand:
        return "OnDemand";
    }
    return "?";
}

AllocConfig
heapOdConfig()
{
    AllocConfig cfg;
    cfg.mode = AllocMode::OnDemand;
    cfg.makeEligible({PageType::Anon});
    return cfg;
}

AllocConfig
heapIoSlabOdConfig()
{
    AllocConfig cfg;
    cfg.mode = AllocMode::OnDemand;
    cfg.makeEligible({PageType::Anon, PageType::PageCache,
                      PageType::BufferCache, PageType::Slab,
                      PageType::NetBuf});
    return cfg;
}

AllocTelemetry
AllocTelemetry::current()
{
    AllocTelemetry t;
    t.xray = xray::active();
    if (trace::anyEnabled()) { // the common case skips the lookups
        t.trace_alloc = trace::enabled(
            trace::eventTypeInfo(trace::EventType::PageAlloc).category);
        t.trace_free = trace::enabled(
            trace::eventTypeInfo(trace::EventType::PageFree).category);
    }
    return t;
}

HeteroAllocator::HeteroAllocator(GuestKernel &kernel, AllocConfig cfg,
                                 std::uint64_t seed)
    : kernel_(kernel), fast_(kernel.nodeFor(mem::MemType::FastMem)),
      slow_(kernel.nodeFor(mem::MemType::SlowMem)), cfg_(cfg),
      rng_(seed ^ 0xA110Cull)
{
}

bool
HeteroAllocator::deservesFastMem(PageType t) const
{
    // Under contention, a type deserves FastMem when its recent miss
    // ratio is (near) the maximum across types: the most-starved
    // subsystem wins (Section 3.2, demand-based prioritization).
    const double mine = windowMissRatio(t);
    const double top = maxWindowMissRatio();
    if (top <= 0.0)
        return true; // no recorded contention yet: first come, first served
    return mine >= 0.8 * top;
}

unsigned
HeteroAllocator::chooseNode(const AllocRequest &req)
{
    NumaNode *fast = fast_;
    NumaNode *slow = slow_;

    // Single-node guests (SlowMem-only / FastMem-only baselines, or a
    // heterogeneity-blind guest under a VMM-exclusive policy) have no
    // choice to make.
    if (!fast || !slow)
        return kernel_.node(0).id();

    if (cfg_.honor_hints && req.hint != MemHint::None) {
        return req.hint == MemHint::FastMem ? fast->id() : slow->id();
    }

    switch (cfg_.mode) {
      case AllocMode::SlowOnly:
        return slow->id();
      case AllocMode::FastOnly:
        return fast->id();
      case AllocMode::Random:
        // Heterogeneity-oblivious: a coin flip, constrained by
        // whatever happens to be free.
        if (fast->freePages() == 0)
            return slow->id();
        if (slow->freePages() == 0)
            return fast->id();
        return rng_.chance(0.5) ? fast->id() : slow->id();
      case AllocMode::FastPreferred:
        // Linux's preferred-node mempolicy: it covers the *process's*
        // pages (anon), draining FastMem then spilling. Kernel-side
        // allocations (page cache, slab, network buffers) don't go
        // through the task mempolicy at all — they fall to the
        // heterogeneity-oblivious default, landing wherever capacity
        // happens to be (modelled as capacity-proportional).
        if (req.type == PageType::Anon)
            return fast->freePages() > 0 ? fast->id() : slow->id();
        {
            const double fast_share =
                static_cast<double>(fast->managedPages()) /
                static_cast<double>(fast->managedPages() +
                                    slow->managedPages());
            if (rng_.chance(fast_share) && fast->freePages() > 0)
                return fast->id();
            return slow->freePages() > 0 ? slow->id() : fast->id();
        }
      case AllocMode::OnDemand:
        break;
    }

    // --- HeteroOS on-demand placement ---
    if (!cfg_.od_eligible[pageTypeIndex(req.type)])
        return slow->id();

    Zone &fz = fast->primaryZone();
    const std::uint64_t fast_free = kernel_.effectiveFreePages(*fast);
    if (fast_free > fz.watermarkLow())
        return fast->id();

    // FastMem under pressure. Try to grow the reservation first
    // (Figure 5 steps 1-2), then make room via HeteroOS-LRU, and only
    // then fall back to SlowMem.
    if (cfg_.balloon_on_pressure && kernel_.balloon().attached()) {
        const std::uint64_t want =
            std::max<std::uint64_t>(256, fz.watermarkHigh());
        if (kernel_.balloon().requestPages(mem::MemType::FastMem, want) >
            0) {
            if (kernel_.effectiveFreePages(*fast) > fz.watermarkMin())
                return fast->id();
        }
    }

    if (cfg_.active_reclaim && deservesFastMem(req.type)) {
        // Batched, kswapd-style: reclaim a chunk once per burst of
        // pressured allocations rather than on every miss, or the
        // demotion traffic itself would throttle the allocator.
        if (pressure_allocs_++ % 256 == 0) {
            const std::uint64_t free =
                kernel_.effectiveFreePages(*fast);
            const std::uint64_t want =
                fz.watermarkLow() > free
                    ? fz.watermarkLow() - free + 256
                    : 256;
            kernel_.heteroLru().reclaimFastMem(want);
        }
        if (kernel_.effectiveFreePages(*fast) > fz.watermarkMin())
            return fast->id();
    }

    // Even without reclaim, use the last pages above the hard minimum
    // if this type is the most starved one.
    if (kernel_.effectiveFreePages(*fast) > fz.watermarkMin() &&
        deservesFastMem(req.type)) {
        return fast->id();
    }

    return slow->id();
}

Gpfn
HeteroAllocator::allocPage(const AllocRequest &req,
                           const AllocTelemetry &tel)
{
    const std::size_t ti = pageTypeIndex(req.type);
    total_requests_.inc();
    window_[ti].requests += 1;

    unsigned node_id = chooseNode(req);
    Gpfn pfn =
        kernel_.percpu().alloc(req.cpu, kernel_.node(node_id));

    if (pfn == invalidGpfn) {
        // Chosen node exhausted: fall back to any node with memory.
        for (unsigned id = 0; id < kernel_.numNodes(); ++id) {
            if (id == node_id)
                continue;
            pfn = kernel_.percpu().alloc(req.cpu, kernel_.node(id));
            if (pfn != invalidGpfn) {
                node_id = id;
                break;
            }
        }
    }
    if (pfn == invalidGpfn) {
        // Guest genuinely full. First try to grow the SlowMem
        // reservation through the balloon — the on-demand driver's
        // whole point: memory pressure becomes a VMM request gated
        // by the fair-share policy. Then fall back to direct reclaim
        // (drop clean cache, write back dirty), like Linux's slow
        // path. Under *sustained* OOM (nothing reclaimable, balloon
        // refused) the expensive attempts back off: retrying a full
        // scan on every failed allocation would become the workload.
        bool retry = false;
        if (oom_strikes_ == 0 || oom_strikes_ % 256 == 0) {
            if (kernel_.balloon().attached()) {
                retry |= kernel_.balloon().requestPages(
                             mem::MemType::SlowMem, 1024) > 0;
            }
            retry |= kernel_.heteroLru().directReclaim(256) > 0;
        }
        if (retry) {
            for (unsigned id = 0; id < kernel_.numNodes(); ++id) {
                pfn = kernel_.percpu().alloc(req.cpu, kernel_.node(id));
                if (pfn != invalidGpfn) {
                    node_id = id;
                    break;
                }
            }
        }
    }
    if (pfn == invalidGpfn) {
        ++oom_strikes_;
        return invalidGpfn;
    }
    oom_strikes_ = 0;

    PageRef p = kernel_.pageMeta(pfn);
    HOS_CHECK_CHEAP(
        check::validateAlloc(p, req.type, "hetero_allocator.allocPage"));
    p.setType(req.type);
    p.setOwnerProcess(req.process);
    p.setVaddr(req.vaddr);

    total_allocs_[ti].inc();
    if (p.mem_type() == mem::MemType::FastMem) {
        window_[ti].fast_hits += 1;
    } else {
        window_[ti].fast_misses += 1;
        total_fast_misses_.inc();
    }
    if (tel.trace_alloc) {
        trace::emit(trace::EventType::PageAlloc, kernel_.events().now(),
                    ti, pfn, static_cast<std::uint64_t>(p.mem_type()));
    }
    if (tel.xray) {
        tel.xray->onAlloc(kernel_.vmTag(), pfn,
                          static_cast<std::uint8_t>(kernel_.backingOf(pfn)),
                          kernel_.events().now());
    }
    return pfn;
}

void
HeteroAllocator::freePages(const Gpfn *pfns, std::uint64_t n, unsigned cpu,
                           const AllocTelemetry &tel)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const PageRef p = kernel_.pageMeta(pfns[i]);
        HOS_CHECK_CHEAP(
            check::validateFree(p, "hetero_allocator.freePage"));
        hos_assert(p.allocated(), "freeing unallocated page");
        if (tel.trace_free) {
            trace::emit(trace::EventType::PageFree, kernel_.events().now(),
                        pfns[i], static_cast<std::uint64_t>(p.mem_type()));
        }
    }
    // Each node's per-CPU list and buddy are its own, so a run of one
    // node's pages is one batch.
    std::uint64_t i = 0;
    while (i < n) {
        NumaNode &node = kernel_.nodeOf(pfns[i]);
        std::uint64_t j = i + 1;
        while (j < n && node.containsGpfn(pfns[j]))
            ++j;
        kernel_.percpu().freePages(cpu, node, pfns + i, j - i);
        i = j;
    }
}

void
HeteroAllocator::rotateEpoch()
{
    prev_window_ = window_;
    for (auto &w : window_)
        w = DemandWindow{};
}

double
HeteroAllocator::windowMissRatio(PageType t) const
{
    // Blend the closed window with the live one so early-epoch
    // decisions aren't blind.
    const DemandWindow &prev = prev_window_[pageTypeIndex(t)];
    const DemandWindow &cur = window_[pageTypeIndex(t)];
    const std::uint64_t requests = prev.requests + cur.requests;
    if (requests == 0)
        return 0.0;
    return static_cast<double>(prev.fast_misses + cur.fast_misses) /
           static_cast<double>(requests);
}

double
HeteroAllocator::maxWindowMissRatio() const
{
    double top = 0.0;
    for (std::size_t i = 0; i < numPageTypes; ++i) {
        if (!cfg_.od_eligible[i])
            continue;
        top = std::max(top,
                       windowMissRatio(static_cast<PageType>(i)));
    }
    return top;
}

double
HeteroAllocator::overallFastMissRatio() const
{
    if (total_requests_.value() == 0)
        return 0.0;
    return static_cast<double>(total_fast_misses_.value()) /
           static_cast<double>(total_requests_.value());
}

} // namespace hos::guestos
