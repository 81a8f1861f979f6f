/**
 * @file
 * google-benchmark microbenchmarks of the hot data structures: the
 * buddy allocator, per-CPU lists, page-table map/scan, LRU churn,
 * the slab allocator, the hotness tracker's full-VM sweep and guided
 * PTE scan, the region path's range fault-in and munmap, and the
 * page cache's fill, eviction and remap. These guard the
 * simulator's own
 * performance (the benches sweep thousands of runs).
 */

#include <benchmark/benchmark.h>

#include "guestos/buddy_allocator.hh"
#include "guestos/kernel.hh"
#include "guestos/lru.hh"
#include "guestos/page.hh"
#include "guestos/page_table.hh"
#include "mem/machine_memory.hh"
#include "mem/migration_cost.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "vmm/hotness_pte.hh"
#include "vmm/vmm.hh"

using namespace hos;
using namespace hos::guestos;

namespace {

void
BM_BuddyAllocFree(benchmark::State &state)
{
    PageArray pages(1 << 18);
    BuddyAllocator buddy(pages, 0, 1 << 18);
    buddy.addFreeRange(0, 1 << 18);
    std::vector<Gpfn> held;
    held.reserve(4096);
    for (auto _ : state) {
        for (int i = 0; i < 4096; ++i)
            held.push_back(buddy.alloc(0));
        for (Gpfn pfn : held)
            buddy.free(pfn, 0);
        held.clear();
    }
    state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BuddyAllocFree);

void
BM_BuddyBulkRefill(benchmark::State &state)
{
    // BM_BuddyAllocFree's traffic in per-CPU refill batches of 32:
    // allocBatch hands out the same pfns as 32 alloc(0) calls without
    // the split halves' insert/remove pairs.
    PageArray pages(1 << 18);
    BuddyAllocator buddy(pages, 0, 1 << 18);
    buddy.addFreeRange(0, 1 << 18);
    std::vector<Gpfn> held(4096);
    for (auto _ : state) {
        for (std::size_t i = 0; i < held.size(); i += 32)
            buddy.allocBatch(32, held.data() + i);
        buddy.freeBatch(held.data(), held.size());
    }
    state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BuddyBulkRefill);

void
BM_BuddyOrderMix(benchmark::State &state)
{
    PageArray pages(1 << 18);
    BuddyAllocator buddy(pages, 0, 1 << 18);
    buddy.addFreeRange(0, 1 << 18);
    for (auto _ : state) {
        std::vector<std::pair<Gpfn, unsigned>> held;
        for (unsigned o = 0; o < 8; ++o)
            held.emplace_back(buddy.alloc(o), o);
        for (auto [pfn, o] : held)
            buddy.free(pfn, o);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BuddyOrderMix);

void
BM_PageTableMapTouch(benchmark::State &state)
{
    PageTable table;
    const std::uint64_t n = 4096;
    for (std::uint64_t i = 0; i < n; ++i)
        table.map(i * mem::pageSize, i, true);
    std::uint64_t va = 0;
    for (auto _ : state) {
        table.touch(va, va & 1);
        va = (va + mem::pageSize) % (n * mem::pageSize);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableMapTouch);

void
BM_PageTableScan(benchmark::State &state)
{
    PageTable table;
    const std::uint64_t n = 65536;
    for (std::uint64_t i = 0; i < n; ++i)
        table.map(i * mem::pageSize, i, true);
    for (auto _ : state) {
        std::uint64_t seen = 0;
        table.scanRange(0, n * mem::pageSize,
                        [&](std::uint64_t, const PteView &) { ++seen; },
                        true);
        benchmark::DoNotOptimize(seen);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PageTableScan);

void
BM_LruTouchChurn(benchmark::State &state)
{
    PageArray pages(1 << 16);
    SplitLru lru(pages);
    for (Gpfn pfn = 0; pfn < (1 << 16); ++pfn)
        lru.addPage(pfn);
    Gpfn pfn = 0;
    for (auto _ : state) {
        lru.touch(pfn);
        pfn = (pfn + 7919) & ((1 << 16) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouchChurn);

void
BM_MigrationCostModel(benchmark::State &state)
{
    std::uint64_t batch = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem::MigrationCostModel::batchCost(batch));
        batch = batch * 2 + 1;
        if (batch > (1 << 20))
            batch = 1;
    }
}
BENCHMARK(BM_MigrationCostModel);

/**
 * A VMM-exclusive guest (256 MiB FastMem, 1 GiB SlowMem) registered
 * with a VMM, and a PteScanTracker with the HeteroVisor budget of
 * 32768 pages per scan.
 */
struct SweepGuest
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;
    std::unique_ptr<GuestKernel> kernel;
    vmm::VmId id = 0;

    SweepGuest()
    {
        machine.addNode(mem::MemType::FastMem, mem::dramSpec(512 * mem::mib));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(2 * mem::gib));
        hypervisor = std::make_unique<vmm::Vmm>(machine);
        GuestConfig cfg;
        cfg.cpus = 2;
        cfg.nodes = {{mem::MemType::FastMem, 256 * mem::mib, 256 * mem::mib},
                     {mem::MemType::SlowMem, mem::gib, mem::gib}};
        kernel = std::make_unique<GuestKernel>(cfg);
        id = hypervisor->registerVm(*kernel, {});
    }

    /** Set the access bit of every third page (paused by callers). */
    void
    touchThird()
    {
        PageArray &pages = kernel->pages();
        for (Gpfn pfn = 0; pfn < pages.size(); pfn += 3)
            pages.page(pfn).setPteAccessed(true);
    }
};

/** Full-VM sweeps over `guest` with the access bits re-set per scan. */
void
runSweeps(benchmark::State &state, SweepGuest &guest)
{
    vmm::PteScanTracker tracker(guest.hypervisor->vm(guest.id), {});
    std::uint64_t scanned = 0;
    for (auto _ : state) {
        state.PauseTiming();
        guest.touchThird();
        state.ResumeTiming();
        scanned += tracker.scanOnce().pages_scanned;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(scanned));
}

void
BM_FullVmSweepDense(benchmark::State &state)
{
    // Every page allocated: each bitmap word is a full visit mask.
    SweepGuest guest;
    PageArray &pages = guest.kernel->pages();
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn)
        pages.setAllocated(pfn, true);
    runSweeps(state, guest);
}
BENCHMARK(BM_FullVmSweepDense);

void
BM_FullVmSweepFragmented(benchmark::State &state)
{
    // Alternating allocated and free runs of 1 to 200 pages: partial
    // masks, free words, and budgets that end mid-word.
    SweepGuest guest;
    PageArray &pages = guest.kernel->pages();
    sim::Rng rng(7);
    Gpfn pfn = 0;
    for (bool alloc = true; pfn < pages.size(); alloc = !alloc) {
        const std::uint64_t run = 1 + rng.uniformInt(200);
        for (std::uint64_t i = 0; i < run && pfn < pages.size(); ++i)
            pages.setAllocated(pfn++, alloc);
    }
    runSweeps(state, guest);
}
BENCHMARK(BM_FullVmSweepFragmented);

void
BM_GuidedScan(benchmark::State &state)
{
    // The OS-guided scan: one 32768-page anon VMA on the tracking
    // list, every third PTE touched again before each scan.
    SweepGuest guest;
    AddressSpace &as = guest.kernel->createProcess("bench");
    constexpr std::uint64_t n = 32768;
    const std::uint64_t va = as.mmap(n * mem::pageSize, VmaKind::Anon);
    std::vector<Gpfn> out(n);
    as.touchRange(va, n, true, out.data());
    vmm::SharedRing ring;
    vmm::TrackingDirectives d;
    d.ranges.push_back({as.pid(), va, va + n * mem::pageSize});
    d.exception = pageTypeBit(PageType::PageCache) |
                  pageTypeBit(PageType::PageTable);
    ring.publishDirectives(std::move(d));
    vmm::PteScanTracker tracker(guest.hypervisor->vm(guest.id), {});
    tracker.guideWith(&ring);
    std::uint64_t scanned = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (std::uint64_t i = 0; i < n; i += 3)
            as.pageTable().touch(va + i * mem::pageSize, false);
        state.ResumeTiming();
        scanned += tracker.scanOnce().pages_scanned;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(scanned));
}
BENCHMARK(BM_GuidedScan);

void
BM_PageRefFieldAccess(benchmark::State &state)
{
    // Field reads through the PageRef facade over the SoA columns —
    // the inner loop of every scan and audit after the migration
    // from the 80-byte struct Page.
    constexpr std::uint64_t n = 1 << 16;
    PageArray pages(n);
    for (Gpfn pfn = 0; pfn < n; ++pfn) {
        pages.setAllocated(pfn, true);
        PageRef p = pages.page(pfn);
        p.setType(PageType::Anon);
        p.setHeat(static_cast<std::uint16_t>(pfn & 0xff));
        p.setPteAccessed((pfn & 3) == 0);
    }
    for (auto _ : state) {
        std::uint64_t hot = 0, accessed = 0;
        for (Gpfn pfn = 0; pfn < n; ++pfn) {
            const PageRef p = pages.page(pfn);
            if (!p.allocated() || p.lru() != LruState::None)
                continue;
            if (p.pte_accessed())
                ++accessed;
            if (p.heat() >= 96)
                ++hot;
        }
        benchmark::DoNotOptimize(hot + accessed);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PageRefFieldAccess);

void
BM_TimerWheelScheduleDispatch(benchmark::State &state)
{
    // The event queue's steady state: a few periodic daemons
    // rescheduling themselves while the clock advances in chunks.
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t fired = 0;
        for (sim::Duration period : {250, 1000, 4096, 50000})
            q.schedulePeriodic(period, [&fired](sim::Duration p) {
                ++fired;
                return p;
            });
        for (sim::Tick t = 100000; t <= 2000000; t += 100000)
            q.runUntil(t);
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelScheduleDispatch);

/**
 * A HeteroOS-coordinated guest at hos-bench's scale (1229 MiB FastMem,
 * 2458 MiB SlowMem) with its nodes populated directly, and the
 * 12288-page region `coordinated` churns every phase.
 */
struct RegionGuest
{
    static constexpr std::uint64_t regionPages = 12288;
    std::unique_ptr<GuestKernel> kernel;
    AddressSpace *as = nullptr;
    std::vector<Gpfn> out = std::vector<Gpfn>(regionPages);

    RegionGuest()
    {
        GuestConfig cfg;
        cfg.cpus = 2;
        cfg.alloc = heapIoSlabOdConfig();
        cfg.alloc.active_reclaim = true;
        cfg.alloc.balloon_on_pressure = false;
        cfg.nodes = {{mem::MemType::FastMem, 1229 * mem::mib, 1229 * mem::mib},
                     {mem::MemType::SlowMem, 2458 * mem::mib,
                      2458 * mem::mib}};
        kernel = std::make_unique<GuestKernel>(cfg);
        for (unsigned nid = 0; nid < kernel->numNodes(); ++nid) {
            NumaNode &node = kernel->node(nid);
            for (Gpfn pfn : kernel->takeUnpopulatedGpfns(
                     nid, node.spanPages())) {
                kernel->pageMeta(pfn).setPopulated(true);
                node.zoneOf(pfn).buddy().addFreeRange(pfn, 1);
            }
            for (std::size_t zi = 0; zi < node.numZones(); ++zi)
                node.zone(zi).updateWatermarks();
        }
        as = &kernel->createProcess("bench");
    }

    std::uint64_t
    fault()
    {
        const std::uint64_t va =
            as->mmap(regionPages * mem::pageSize, VmaKind::Anon);
        as->touchRange(va, regionPages, true, out.data());
        return va;
    }
};

void
BM_TouchRange(benchmark::State &state)
{
    RegionGuest g;
    for (auto _ : state) {
        const std::uint64_t va = g.fault();
        state.PauseTiming();
        g.as->munmap(va);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * RegionGuest::regionPages);
}
// Every iteration maps fresh addresses (mmap never reuses them), so
// the page table grows with the count: keep it fixed.
BENCHMARK(BM_TouchRange)->Iterations(200);

void
BM_MunmapRange(benchmark::State &state)
{
    RegionGuest g;
    for (auto _ : state) {
        state.PauseTiming();
        const std::uint64_t va = g.fault();
        state.ResumeTiming();
        g.as->munmap(va);
    }
    state.SetItemsProcessed(state.iterations() * RegionGuest::regionPages);
}
BENCHMARK(BM_MunmapRange)->Iterations(200);

/** `coordinated`'s shard: a file of 3379 pages, read cold. */
constexpr std::uint64_t shardPages = 3379;

/** Evict every cached page of the shard file. */
void
dropFile(PageCache &pc, FileId file)
{
    for (std::uint64_t idx = 0; idx < shardPages; ++idx) {
        const Gpfn pfn = pc.lookup(file, idx);
        if (pfn != invalidGpfn)
            pc.evictPage(pfn);
    }
}

void
BM_PageCacheColdFill(benchmark::State &state)
{
    RegionGuest g;
    PageCache &pc = g.kernel->pageCache();
    const FileId file = pc.createFile(shardPages * mem::pageSize);
    for (auto _ : state) {
        // Offset 0 never follows the previous read: no read-ahead.
        benchmark::DoNotOptimize(
            pc.read(file, 0, shardPages * mem::pageSize));
        state.PauseTiming();
        dropFile(pc, file);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * shardPages);
}
BENCHMARK(BM_PageCacheColdFill);

void
BM_PageCacheEvictRemap(benchmark::State &state)
{
    RegionGuest g;
    PageCache &pc = g.kernel->pageCache();
    HeteroLru &lru = g.kernel->heteroLru();
    const FileId file = pc.createFile(shardPages * mem::pageSize);
    for (auto _ : state) {
        state.PauseTiming();
        const std::vector<Gpfn> filled =
            pc.read(file, 0, shardPages * mem::pageSize).pages;
        state.ResumeTiming();
        // Demote every other page (a remap to a SlowMem frame), then
        // evict the whole file.
        for (std::size_t i = 0; i < filled.size(); i += 2)
            lru.demotePage(filled[i]);
        dropFile(pc, file);
    }
    state.SetItemsProcessed(state.iterations() * shardPages * 3 / 2);
}
BENCHMARK(BM_PageCacheEvictRemap);

} // namespace
