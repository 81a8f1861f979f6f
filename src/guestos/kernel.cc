#include "guestos/kernel.hh"

#include <algorithm>

#include "check/page_state.hh"
#include "prof/prof.hh"
#include "sim/log.hh"
#include "xray/xray.hh"

namespace hos::guestos {

namespace {

/**
 * The overheadKindName table in index order, handed to hos::prof so
 * profile reports can label charge rows without prof depending on
 * guestos (test_prof.cc pins the two tables against each other).
 */
constexpr const char *kOverheadNamesForProf[numOverheadKinds] = {
    "alloc",     "reclaim",   "migration", "hotscan",
    "balloon",   "writeback", "io",        "swap",
};

} // namespace

const char *
overheadKindName(OverheadKind k)
{
    switch (k) {
      case OverheadKind::Alloc:
        return "alloc";
      case OverheadKind::Reclaim:
        return "reclaim";
      case OverheadKind::Migration:
        return "migration";
      case OverheadKind::HotScan:
        return "hotscan";
      case OverheadKind::Balloon:
        return "balloon";
      case OverheadKind::Writeback:
        return "writeback";
      case OverheadKind::Io:
        return "io";
      case OverheadKind::Swap:
        return "swap";
    }
    return "?";
}

namespace {

std::uint64_t
totalMaxPages(const GuestConfig &cfg)
{
    std::uint64_t n = 0;
    for (const auto &nc : cfg.nodes)
        n += mem::bytesToPages(nc.max_bytes);
    return n;
}

} // namespace

GuestKernel::GuestKernel(GuestConfig cfg)
    : cfg_(std::move(cfg)), stats_(cfg_.name), rng_(cfg_.seed),
      tlb_(cfg_.tlb), disk_(cfg_.disk), pages_(totalMaxPages(cfg_))
{
    hos_assert(!cfg_.nodes.empty(), "guest needs at least one node");

    prof::registerCostKindNames(kOverheadNamesForProf,
                                numOverheadKinds);

    // Lay out nodes back to back in the gpfn space and stamp each
    // page with its node identity.
    Gpfn base = 0;
    for (unsigned id = 0; id < cfg_.nodes.size(); ++id) {
        const auto &nc = cfg_.nodes[id];
        const std::uint64_t span = mem::bytesToPages(nc.max_bytes);
        nodes_.push_back(std::make_unique<NumaNode>(id, nc.type, pages_,
                                                    base, span));
        for (Gpfn pfn = base; pfn < base + span; ++pfn) {
            PageRef p = pages_.page(pfn);
            p.setNumaNode(static_cast<std::uint8_t>(id));
            p.setMemType(nc.type);
        }
        // Every gpfn starts unpopulated; LIFO so low gpfns pop first.
        auto &unpop = unpopulated_.emplace_back();
        unpop.v.reserve(span);
        for (Gpfn pfn = base + span; pfn-- > base;)
            unpop.v.push_back(pfn);
        base += span;
    }

    percpu_ = std::make_unique<PerCpuPageLists>(
        pages_, cfg_.cpus, static_cast<unsigned>(nodes_.size()));
    allocator_ =
        std::make_unique<HeteroAllocator>(*this, cfg_.alloc, cfg_.seed);
    hetero_lru_ = std::make_unique<HeteroLru>(*this, cfg_.lru);
    balloon_ = std::make_unique<BalloonFrontend>(*this);
    migrator_ = std::make_unique<MigrationFrontend>(*this);
    page_cache_ = std::make_unique<PageCache>(pages_, *this, disk_,
                                              cfg_.readahead_pages);
    slab_ = std::make_unique<SlabAllocator>(*this);
    swap_ = std::make_unique<SwapDevice>(
        disk_, mem::bytesToPages(cfg_.swap_bytes));
}

GuestKernel::~GuestKernel() = default;

bool
GuestKernel::hasType(mem::MemType type) const
{
    for (const auto &n : nodes_) {
        if (n->memType() == type)
            return true;
    }
    return false;
}

std::uint64_t
GuestKernel::effectiveFreePages(NumaNode &node)
{
    return node.freePages() + percpu_->cachedOnNode(node.id());
}

AddressSpace &
GuestKernel::createProcess(const std::string &name)
{
    (void)name;
    const auto pid = static_cast<ProcessId>(processes_.size());
    processes_.push_back(std::make_unique<AddressSpace>(pid, *this));
    return *processes_.back();
}

AddressSpace &
GuestKernel::process(ProcessId pid)
{
    hos_assert(pid < processes_.size(), "bad pid");
    return *processes_[pid];
}

bool
GuestKernel::hasProcess(ProcessId pid) const
{
    return pid < processes_.size();
}

Gpfn
GuestKernel::allocPage(const AllocRequest &req)
{
    return allocator_->allocPage(req);
}

void
GuestKernel::freePage(Gpfn pfn, unsigned cpu)
{
    const PageRef p = pages_.page(pfn);
    hos_assert(p.lru() == LruState::None,
               "freeing a page still on the LRU");
    if (auto *xr = xray::active())
        xr->onFree(vm_tag_, pfn, events_.now());
    allocator_->freePage(pfn, cpu);
}

Gpfn
GuestKernel::allocPageOnNode(unsigned node_id, PageType type,
                             unsigned cpu)
{
    NumaNode &n = node(node_id);
    const Gpfn pfn = percpu_->alloc(cpu, n);
    if (pfn == invalidGpfn)
        return invalidGpfn;
    PageRef p = pages_.page(pfn);
    HOS_CHECK_CHEAP(
        check::validateAlloc(p, type, "kernel.allocPageOnNode"));
    p.setType(type);
    if (auto *xr = xray::active()) {
        xr->onAlloc(vm_tag_, pfn,
                    static_cast<std::uint8_t>(backingOf(pfn)),
                    events_.now());
    }
    return pfn;
}

std::vector<Gpfn>
GuestKernel::takeUnpopulatedGpfns(unsigned node_id, std::uint64_t n)
{
    hos_assert(node_id < unpopulated_.size(), "bad node id");
    auto &stack = unpopulated_[node_id];
    stack.materialize();
    std::vector<Gpfn> out;
    const std::uint64_t take = std::min<std::uint64_t>(n, stack.size());
    out.reserve(take);
    for (std::uint64_t i = 0; i < take; ++i) {
        out.push_back(stack.v.back());
        stack.v.pop_back();
    }
    return out;
}

void
GuestKernel::returnUnpopulatedGpfns(unsigned node_id,
                                    const std::vector<Gpfn> &gpfns)
{
    hos_assert(node_id < unpopulated_.size(), "bad node id");
    auto &stack = unpopulated_[node_id];
    stack.materialize();
    for (Gpfn pfn : gpfns) {
        hos_assert(!pages_.page(pfn).populated(),
                   "returning a populated gpfn");
        stack.v.push_back(pfn);
    }
}

UnpopulatedView
GuestKernel::peekUnpopulatedGpfns(unsigned node_id,
                                  std::uint64_t n) const
{
    hos_assert(node_id < unpopulated_.size(), "bad node id");
    const auto &stack = unpopulated_[node_id];
    return {stack.v.data(), stack.size(), stack.rev,
            std::min<std::uint64_t>(n, stack.size())};
}

void
GuestKernel::commitUnpopulatedGpfns(unsigned node_id,
                                    std::uint64_t peeked,
                                    std::uint64_t granted)
{
    hos_assert(node_id < unpopulated_.size(), "bad node id");
    auto &stack = unpopulated_[node_id];
    hos_assert(peeked <= stack.size() && granted <= peeked,
               "balloon commit out of range");
    if (stack.rev == peeked) {
        // The peeked window is exactly the reversed one: its granted
        // prefix sits at the window's physical start, and dropping it
        // leaves the remainder already in post-return order.
        const auto base = static_cast<std::ptrdiff_t>(
            stack.size() - peeked);
        stack.v.erase(stack.v.begin() + base,
                      stack.v.begin() + base +
                          static_cast<std::ptrdiff_t>(granted));
        stack.rev = 0;
        return;
    }
    stack.materialize();
    // Physical top-of-stack order: the granted prefix of the peek is
    // the physical tail; the ungranted remainder comes back reversed.
    stack.v.resize(stack.size() - granted);
    stack.rev = peeked - granted;
    if (stack.rev <= 1)
        stack.rev = 0; // a 1-entry reversal is the identity
}

void
GuestKernel::lruAdd(Gpfn pfn)
{
    zoneOf(pfn).lru().addPage(pfn);
}

void
GuestKernel::lruAddActive(Gpfn pfn)
{
    zoneOf(pfn).lru().addPageActive(pfn);
}

void
GuestKernel::lruRemove(Gpfn pfn)
{
    zoneOf(pfn).lru().removePage(pfn);
}

void
GuestKernel::lruTouch(Gpfn pfn)
{
    zoneOf(pfn).lru().touch(pfn);
}

void
GuestKernel::charge(OverheadKind kind, sim::Duration d)
{
    overhead_total_[static_cast<std::size_t>(kind)] += d;
    pending_overhead_ += d;
    // Attribute to the innermost open profiler span (no-op when
    // profiling is off or compiled out). Observation only: the
    // counters above are the simulation's source of truth.
    prof::onCharge(static_cast<std::uint8_t>(kind), d);
}

sim::Duration
GuestKernel::drainPendingOverhead()
{
    const sim::Duration d = pending_overhead_;
    pending_overhead_ = 0;
    return d;
}

sim::Duration
GuestKernel::overheadTotal(OverheadKind kind) const
{
    return overhead_total_[static_cast<std::size_t>(kind)];
}

sim::Duration
GuestKernel::overheadGrandTotal() const
{
    sim::Duration d = 0;
    for (auto v : overhead_total_)
        d += v;
    return d;
}

void
GuestKernel::startDaemons()
{
    // Demand-window rotation (the allocator's 100 ms epoch).
    events_.schedulePeriodic(cfg_.alloc.epoch, [this](sim::Duration p) {
        allocator_->rotateEpoch();
        return p;
    });
    // HeteroOS-LRU maintenance tick.
    if (cfg_.lru.enabled) {
        events_.schedulePeriodic(sim::milliseconds(50),
                                 [this](sim::Duration p) {
                                     hetero_lru_->tick();
                                     return p;
                                 });
    }
    // Dirty page flusher (kupdate-style, 500 ms).
    events_.schedulePeriodic(
        sim::milliseconds(500), [this](sim::Duration p) {
            HOS_PROF_SPAN(span, prof::SpanKind::WritebackPass, events_);
            const auto t = page_cache_->writeback(4096);
            charge(OverheadKind::Writeback, t / 4);
            return p;
        });
}

void
GuestKernel::syncStats()
{
    stats_.counter("alloc.requests")
        .set(allocator_->totalRequests());
    stats_.counter("alloc.fast_misses")
        .set(allocator_->totalFastMisses());
    for (std::size_t i = 0; i < numPageTypes; ++i) {
        const auto t = static_cast<PageType>(i);
        stats_.counter(std::string("alloc.") + pageTypeName(t))
            .set(allocator_->allocCount(t));
    }

    for (auto &node : nodes_) {
        const std::string prefix =
            std::string("node.") + mem::memTypeName(node->memType());
        stats_.gauge(prefix + ".free_pages").set(
            static_cast<std::int64_t>(node->freePages()));
        stats_.gauge(prefix + ".managed_pages").set(
            static_cast<std::int64_t>(node->managedPages()));
    }

    stats_.counter("migration.migrated")
        .set(migrator_->totalMigrated());
    stats_.counter("migration.skipped").set(migrator_->totalSkipped());

    stats_.counter("balloon.requested")
        .set(balloon_->totalRequested());
    stats_.counter("balloon.granted").set(balloon_->totalGranted());
    stats_.counter("balloon.surrendered")
        .set(balloon_->totalSurrendered());

    stats_.counter("swap.out").set(swap_->totalSwappedOut());
    stats_.counter("swap.in").set(swap_->totalSwappedIn());
    stats_.gauge("swap.used_pages").set(
        static_cast<std::int64_t>(swap_->usedPages()));

    const HeteroLruStats &lru = hetero_lru_->stats();
    stats_.counter("lru.demoted_anon").set(lru.demoted_anon);
    stats_.counter("lru.demoted_cache").set(lru.demoted_cache);
    stats_.counter("lru.dropped_cache").set(lru.dropped_cache);
    stats_.counter("lru.reclaim_passes").set(lru.reclaim_passes);
    stats_.counter("lru.pages_scanned").set(lru.pages_scanned);

    stats_.counter("cache.hits").set(page_cache_->hits());
    stats_.counter("cache.misses").set(page_cache_->misses());
    stats_.gauge("cache.pages").set(
        static_cast<std::int64_t>(page_cache_->cachedPages()));

    for (std::size_t i = 0; i < numOverheadKinds; ++i) {
        const auto k = static_cast<OverheadKind>(i);
        stats_.counter(std::string("overhead_ns.") +
                       overheadKindName(k))
            .set(overhead_total_[i]);
    }
}

// --- MmBacking -------------------------------------------------------

Gpfn
GuestKernel::allocUserPage(PageType type, MemHint hint, ProcessId process,
                           std::uint64_t vaddr)
{
    AllocRequest req;
    req.type = type;
    req.hint = hint;
    req.process = process;
    req.vaddr = vaddr;
    const Gpfn pfn = allocator_->allocPage(req);
    if (pfn == invalidGpfn)
        return invalidGpfn;
    PageRef p = pages_.page(pfn);
    p.setOwnerProcess(process);
    p.setVaddr(vaddr);
    lruAdd(pfn);
    return pfn;
}

void
GuestKernel::freeUserPage(Gpfn pfn)
{
    const PageRef p = pages_.page(pfn);
    if (p.lru() != LruState::None)
        lruRemove(pfn);
    freePage(pfn);
}

Gpfn
GuestKernel::fileBackedPage(FileId file, std::uint64_t offset,
                            MemHint hint, ProcessId process,
                            std::uint64_t vaddr)
{
    (void)process;
    (void)vaddr;
    HOS_PROF_SPAN(io_span, prof::SpanKind::IoFill, events_);
    sim::Duration io_time = 0;
    const Gpfn pfn = page_cache_->mapPage(file, offset, hint, io_time);
    charge(OverheadKind::Io, io_time);
    return pfn;
}

void
GuestKernel::onUnmapRelease(const std::vector<Gpfn> &anon_released,
                            const std::vector<Gpfn> &file_released)
{
    (void)anon_released; // already freed by the address space
    hetero_lru_->onUnmapRelease(file_released);
}

void
GuestKernel::onPageTablePages(std::int64_t delta)
{
    if (delta > 0) {
        for (std::int64_t i = 0; i < delta; ++i) {
            AllocRequest req;
            req.type = PageType::PageTable;
            const Gpfn pfn = allocator_->allocPage(req);
            if (pfn == invalidGpfn) {
                ++pt_unbacked_;
                continue;
            }
            pages_.page(pfn).setUnevictable(true);
            pt_pages_.push_back(pfn);
        }
    } else {
        for (std::int64_t i = 0; i < -delta; ++i) {
            if (pt_unbacked_ > 0) {
                --pt_unbacked_;
                continue;
            }
            if (pt_pages_.empty())
                break;
            const Gpfn pfn = pt_pages_.back();
            pt_pages_.pop_back();
            pages_.page(pfn).setUnevictable(false);
            freePage(pfn);
        }
    }
}

// --- PageCacheBacking -------------------------------------------------

Gpfn
GuestKernel::allocIoPage(PageType type, MemHint hint)
{
    AllocRequest req;
    req.type = type;
    req.hint = hint;
    const Gpfn pfn = allocator_->allocPage(req);
    if (pfn == invalidGpfn)
        return invalidGpfn;
    lruAdd(pfn);
    return pfn;
}

void
GuestKernel::freeIoPage(Gpfn pfn)
{
    const PageRef p = pages_.page(pfn);
    if (p.lru() != LruState::None)
        lruRemove(pfn);
    freePage(pfn);
}

void
GuestKernel::touchIoPage(Gpfn pfn, bool write)
{
    (void)write; // dirtiness is tracked by the page cache itself
    lruTouch(pfn);
    pages_.page(pfn).setPteAccessed(true); // I/O touches are references
}

void
GuestKernel::onIoComplete(const std::vector<Gpfn> &pages, IoKind kind)
{
    if (kind == IoKind::Writeback) {
        if (auto *xr = xray::active()) {
            for (Gpfn pfn : pages) {
                xr->onTransition(vm_tag_, pfn,
                                 xray::EventKind::Writeback,
                                 events_.now());
            }
        }
    }
    hetero_lru_->onIoComplete(pages, kind == IoKind::Writeback);
}

// --- SlabBacking --------------------------------------------------------

Gpfn
GuestKernel::allocSlabPage(PageType type, MemHint hint)
{
    AllocRequest req;
    req.type = type;
    req.hint = hint;
    const Gpfn pfn = allocator_->allocPage(req);
    if (pfn == invalidGpfn)
        return invalidGpfn;
    // Slab pages hold kernel objects referenced by pointer: pinned,
    // never on the LRU, reclaimed only when the slab page empties.
    pages_.page(pfn).setUnevictable(true);
    return pfn;
}

void
GuestKernel::freeSlabPage(Gpfn pfn)
{
    pages_.page(pfn).setUnevictable(false);
    freePage(pfn);
}

void
GuestKernel::touchSlabPage(Gpfn pfn)
{
    pages_.page(pfn).setPteAccessed(true);
}

} // namespace hos::guestos
