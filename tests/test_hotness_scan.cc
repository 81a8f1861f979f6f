/**
 * @file
 * PteScanTracker scan state. Two pins run the full-VM sweep and the
 * guided PTE scan over many scans and hash the heat column, the access
 * bits, the cursors, every scan's result and the x-ray heat sequence.
 * A per-page reference model of both scans, kept in this file only,
 * checks the edge cases of the word-at-a-time sweep: budgets around a
 * word, a budget past the allocated pages, an all-free guest, a lone
 * page at the end of the span, and exception-listed cache pages on
 * the guided path.
 */

#include <gtest/gtest.h>

#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "sim/rng.hh"
#include "test_helpers.hh"
#include "trace/session.hh"
#include "trace/trace.hh"
#include "vmm/hotness_pte.hh"
#include "vmm/vmm.hh"
#include "xray/xray.hh"

namespace {

using namespace hos;
using guestos::Gpfn;
using guestos::PageType;
using test::Fnv;

/** A guest registered with a VMM; node sizes need not fill a word. */
struct ScanRig
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;
    std::unique_ptr<guestos::GuestKernel> guest;
    vmm::VmId id = 0;

    ScanRig(std::uint64_t fast_bytes, std::uint64_t slow_bytes)
    {
        machine.addNode(mem::MemType::FastMem,
                        mem::dramSpec(2 * fast_bytes));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(2 * slow_bytes));
        hypervisor = std::make_unique<vmm::Vmm>(machine);

        guestos::GuestConfig cfg;
        cfg.name = "guest";
        cfg.cpus = 2;
        cfg.nodes = {{mem::MemType::FastMem, fast_bytes, fast_bytes},
                     {mem::MemType::SlowMem, slow_bytes, slow_bytes}};
        guest = std::make_unique<guestos::GuestKernel>(cfg);
        id = hypervisor->registerVm(*guest, {});
    }

    vmm::VmContext &vm() { return hypervisor->vm(id); }
    guestos::PageArray &pages() { return guest->pages(); }
    std::uint16_t tag() const { return static_cast<std::uint16_t>(id); }

    void
    advance(sim::Duration d)
    {
        guest->events().runUntil(guest->events().now() + d);
    }

    /** Flip a page's allocated bit, keeping the x-ray shadow in step. */
    void
    setAllocated(Gpfn pfn, bool v)
    {
        guestos::PageArray &pa = pages();
        if (pa.page(pfn).allocated() == v)
            return;
        pa.setAllocated(pfn, v);
        if (auto *xr = xray::active()) {
            if (v) {
                xr->onAlloc(tag(), pfn,
                            static_cast<std::uint8_t>(
                                pa.page(pfn).mem_type()),
                            guest->events().now());
            } else {
                xr->onFree(tag(), pfn, guest->events().now());
            }
        }
    }
};

/**
 * An x-ray recorder and a tracer of its hot crossings and of the scan
 * records, installed on this thread for the watch's lifetime.
 */
struct HeatWatch
{
    xray::Recorder rec;
    trace::Tracer tracer;
    obs::Scope scope{{.tracer = &tracer, .recorder = &rec}};

    HeatWatch()
    {
        xray::XrayConfig cfg;
        cfg.full_provenance = true;
        rec.enable(cfg);
        tracer.enable(static_cast<std::uint32_t>(trace::Category::Xray) |
                      static_cast<std::uint32_t>(trace::Category::Scan));
    }

    /** The hot crossings recorded since the last clear, in order. */
    std::vector<std::pair<Gpfn, std::uint64_t>>
    crossings() const
    {
        std::vector<std::pair<Gpfn, std::uint64_t>> out;
        tracer.forEach([&](const trace::Record &r) {
            if (r.type == trace::EventType::XrayHotCross)
                out.emplace_back(r.a0, r.a1);
        });
        return out;
    }
};

void
hashResult(Fnv &f, const vmm::ScanResult &r)
{
    f.add(r.pages_scanned);
    f.add(r.accessed);
    f.add(r.cost);
    f.add(r.hot.size());
    for (Gpfn pfn : r.hot)
        f.add(pfn);
}

void
hashColumns(Fnv &f, guestos::PageArray &pages)
{
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        const guestos::PageRef p = pages.page(pfn);
        f.add(static_cast<std::uint64_t>(p.heat()) |
              static_cast<std::uint64_t>(p.pte_accessed()) << 16 |
              static_cast<std::uint64_t>(p.allocated()) << 17);
    }
}

void
hashShadow(Fnv &f, const xray::Recorder &rec, std::uint16_t vm,
           std::uint64_t n)
{
    for (Gpfn pfn = 0; pfn < n; ++pfn) {
        f.add(static_cast<std::uint64_t>(rec.shadowHeat(vm, pfn)) |
              static_cast<std::uint64_t>(rec.live(vm, pfn)) << 16);
    }
    f.add(rec.kindCount(vm, xray::EventKind::HotCross));
    f.add(rec.kindCount(vm, xray::EventKind::Cooled));
    f.add(rec.hotTotal(vm));
}

void
hashTrace(Fnv &f, const trace::Tracer &t)
{
    f.add(t.recorded());
    t.forEach([&](const trace::Record &r) {
        f.add(r.ts);
        f.add(static_cast<std::uint64_t>(r.type));
        f.add(r.a0);
        f.add(r.a1);
        f.add(r.a2);
        f.add(r.dur);
        f.add(r.vm);
    });
}

/** Every present PTE of a process: address, frame and A/D bits. */
void
hashPtes(Fnv &f, guestos::PageTable &pt)
{
    pt.scanRange(
        0, guestos::PageTable::vaSpan,
        [&](std::uint64_t va, const guestos::PteView &v) {
            f.add(va);
            f.add(v.pfn);
            f.add(static_cast<std::uint64_t>(v.accessed) |
                  static_cast<std::uint64_t>(v.dirty) << 1);
        },
        /*clear_accessed=*/false);
}

/**
 * Paint the allocated bitmap as alternating runs of random length:
 * free runs from 1 to 150 pages (so many cross word edges and some
 * swallow whole words), with the last page of the span allocated.
 */
void
paintRuns(ScanRig &rig, sim::Rng &rng)
{
    const std::uint64_t n = rig.pages().size();
    Gpfn pfn = 0;
    bool alloc = true;
    while (pfn < n) {
        const std::uint64_t run = 1 + rng.uniformInt(alloc ? 90 : 150);
        for (std::uint64_t i = 0; i < run && pfn < n; ++i, ++pfn)
            rig.setAllocated(pfn, alloc);
        alloc = !alloc;
    }
    rig.setAllocated(n - 1, true);
}

/** Set the access bit of each page (free ones too) with chance p. */
void
sprinkleAccessed(guestos::PageArray &pages, sim::Rng &rng, double p)
{
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        if (rng.chance(p))
            pages.page(pfn).setPteAccessed(true);
    }
}

/**
 * The coordinated policy's exception list: short-lived I/O and the
 * unmigratable page-table and DMA pages.
 */
guestos::PageTypeMask
exceptionList()
{
    guestos::PageTypeMask m = 0;
    for (std::size_t i = 0; i < guestos::numPageTypes; ++i) {
        const auto t = static_cast<PageType>(i);
        if (guestos::isShortLivedIo(t) || guestos::isMigrationException(t))
            m |= guestos::pageTypeBit(t);
    }
    return m;
}

/** The two nodes of the pinned guests: 1573 pages, 37 past a word. */
constexpr std::uint64_t rigFast = 2 * mem::mib;
constexpr std::uint64_t rigSlow = 4 * mem::mib + 37 * mem::pageSize;

TEST(HotnessScanState, FullVmSweepMatchesPinnedFingerprint)
{
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    ScanRig rig(rigFast, rigSlow);
    ASSERT_NE(rig.pages().size() % 64, 0u);
    HeatWatch watch;
    watch.rec.sizeShadow(rig.tag(), rig.pages().size());
    sim::Rng rng(20);
    paintRuns(rig, rng);

    // Two trackers share the guest: budgets end mid-word, and each
    // wraps past the span every two or three scans.
    vmm::HotnessConfig a_cfg;
    a_cfg.pages_per_scan = 333;
    vmm::HotnessConfig b_cfg;
    b_cfg.pages_per_scan = 81;
    b_cfg.hot_threshold = 70;
    vmm::PteScanTracker a(rig.vm(), a_cfg);
    vmm::PteScanTracker b(rig.vm(), b_cfg);

    Fnv f;
    const std::uint64_t n = rig.pages().size();
    for (int round = 0; round < 48; ++round) {
        // Churn: a window of pages flips state, moving free runs.
        const Gpfn at = rng.uniformInt(n);
        for (Gpfn pfn = at; pfn < std::min(n, at + 120); ++pfn) {
            if (rng.chance(0.3))
                rig.setAllocated(pfn, !rig.pages().page(pfn).allocated());
        }
        sprinkleAccessed(rig.pages(), rng, 0.45);
        rig.advance(sim::milliseconds(7));
        vmm::PteScanTracker &t = (round % 3 == 2) ? b : a;
        hashResult(f, t.scanOnce());
        hashColumns(f, rig.pages());
        f.add(a.sweepCursor());
        f.add(b.sweepCursor());
        hashShadow(f, watch.rec, rig.tag(), n);
    }
    ASSERT_EQ(watch.tracer.dropped(), 0u);
    hashTrace(f, watch.tracer);
    EXPECT_EQ(f.h, 0x4e8f91cfb6806c38ull) << std::hex << f.h;
}

TEST(HotnessScanState, GuidedScanMatchesPinnedFingerprint)
{
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    ScanRig rig(rigFast, rigSlow);
    HeatWatch watch;
    guestos::GuestKernel &k = *rig.guest;
    sim::Rng rng(21);

    // Process 0: an anon VMA across a leaf-node edge with holes, a
    // file VMA whose pages are cache pages, and a second anon VMA
    // with a few pages retyped to exception types. Process 1: one
    // anon VMA.
    auto &p0 = k.createProcess("p0");
    const auto anon0 = p0.mmap(700 * mem::pageSize, guestos::VmaKind::Anon,
                               guestos::MemHint::SlowMem);
    for (std::uint64_t i = 0; i < 700; ++i) {
        if (i % 7 != 3 && !(i >= 200 && i < 280))
            p0.touch(anon0 + i * mem::pageSize, i & 1);
    }
    const auto file = k.pageCache().createFile(120 * mem::pageSize);
    const auto filev = p0.mmap(120 * mem::pageSize, guestos::VmaKind::File,
                               guestos::MemHint::None, file, 0);
    for (std::uint64_t i = 0; i < 120; ++i)
        p0.touch(filev + i * mem::pageSize, false);
    const auto anon1 = p0.mmap(260 * mem::pageSize, guestos::VmaKind::Anon,
                               guestos::MemHint::FastMem);
    for (std::uint64_t i = 0; i < 260; ++i) {
        const Gpfn pfn = p0.touch(anon1 + i * mem::pageSize, true);
        if (i % 37 == 5)
            k.pageMeta(pfn).setType(PageType::NetBuf);
        else if (i % 53 == 9)
            k.pageMeta(pfn).setType(PageType::PageTable);
    }
    auto &p1 = k.createProcess("p1");
    const auto anon2 = p1.mmap(150 * mem::pageSize, guestos::VmaKind::Anon);
    for (std::uint64_t i = 0; i < 150; ++i)
        p1.touch(anon2 + i * mem::pageSize, false);

    const auto publish = [&](vmm::SharedRing &ring, bool reordered) {
        vmm::TrackingDirectives d;
        d.ranges = {{0, anon0, anon0 + 700 * mem::pageSize},
                    {0, filev, filev + 120 * mem::pageSize},
                    {9, 0, 64 * mem::pageSize}, // no such process
                    {0, anon1, anon1 + 260 * mem::pageSize},
                    {1, anon2, anon2 + 150 * mem::pageSize}};
        if (reordered)
            std::swap(d.ranges[0], d.ranges[4]);
        d.exception = exceptionList();
        ring.publishDirectives(std::move(d));
    };
    vmm::SharedRing ring;
    publish(ring, false);

    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = 257;
    vmm::PteScanTracker tracker(rig.vm(), cfg);
    tracker.guideWith(&ring);

    const std::uint64_t vas[] = {anon0, filev, anon1};
    Fnv f;
    for (int round = 0; round < 40; ++round) {
        if (round == 17)
            publish(ring, true);
        // Hardware touches through the PTEs, software marks on the
        // pages: either one makes a visited page accessed.
        for (std::uint64_t i = 0; i < 1200; ++i) {
            if (!rng.chance(0.35))
                continue;
            const std::uint64_t base = vas[i % 3];
            p0.pageTable().touch(base + (i / 3) * mem::pageSize, i & 4);
        }
        for (std::uint64_t i = 0; i < 150; ++i) {
            if (rng.chance(0.5))
                p1.pageTable().touch(anon2 + i * mem::pageSize, false);
        }
        sprinkleAccessed(rig.pages(), rng, 0.2);
        rig.advance(sim::milliseconds(5));
        hashResult(f, tracker.scanOnce());
        hashColumns(f, rig.pages());
        f.add(tracker.rangeCursor());
        f.add(tracker.vaCursor());
        hashPtes(f, p0.pageTable());
        hashPtes(f, p1.pageTable());
        hashShadow(f, watch.rec, rig.tag(), rig.pages().size());
    }
    ASSERT_EQ(watch.tracer.dropped(), 0u);
    hashTrace(f, watch.tracer);
    EXPECT_EQ(f.h, 0x396bac581ba58aebull) << std::hex << f.h;
}

// --- The per-page reference model --------------------------------

/** What one model scan did, in visiting order. */
struct ModelScan
{
    std::uint64_t scanned = 0;
    std::uint64_t accessed = 0;
    std::vector<Gpfn> hot;
    /** (gpfn, new heat) of each page that crossed the threshold. */
    std::vector<std::pair<Gpfn, std::uint64_t>> crossings;
};

/** Copies of the page columns the scans read and write. */
struct Columns
{
    std::vector<bool> allocated;
    std::vector<bool> accessed;
    std::vector<std::uint16_t> heat;

    explicit Columns(guestos::PageArray &pages)
    {
        for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
            const guestos::PageRef p = pages.page(pfn);
            allocated.push_back(p.allocated());
            accessed.push_back(p.pte_accessed());
            heat.push_back(p.heat());
        }
    }

    /** One page's heat update, as HeteroVisor's EWMA defines it. */
    void
    heatPage(Gpfn pfn, bool acc, std::uint16_t threshold, ModelScan &out)
    {
        const std::uint16_t old = heat[pfn];
        heat[pfn] = static_cast<std::uint16_t>(old / 2 + (acc ? 64 : 0));
        if (acc)
            ++out.accessed;
        if (heat[pfn] >= threshold) {
            out.hot.push_back(pfn);
            if (old < threshold)
                out.crossings.emplace_back(pfn, heat[pfn]);
        }
    }
};

/**
 * The full-VM sweep one gpfn at a time: every gpfn takes one step of
 * the one-lap bound, every allocated one a unit of the budget.
 */
struct SweepModel
{
    std::uint64_t budget;
    std::uint16_t threshold;
    Gpfn cursor = 0;

    ModelScan
    scan(Columns &c)
    {
        ModelScan out;
        const std::uint64_t span = c.allocated.size();
        std::uint64_t step = 0;
        while (step < span && out.scanned < budget) {
            const Gpfn pfn = cursor;
            ++step;
            if (++cursor == span)
                cursor = 0;
            if (!c.allocated[pfn])
                continue;
            ++out.scanned;
            const bool acc = c.accessed[pfn];
            c.accessed[pfn] = false;
            c.heatPage(pfn, acc, threshold, out);
        }
        return out;
    }
};

/** Check the tracker's scan against the model's, page for page. */
void
expectSameScan(const ModelScan &want, const vmm::ScanResult &got,
               const Columns &c, guestos::PageArray &pages,
               const HeatWatch &watch, std::uint16_t vm)
{
    EXPECT_EQ(got.pages_scanned, want.scanned);
    EXPECT_EQ(got.accessed, want.accessed);
    EXPECT_EQ(got.hot, want.hot);
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        const guestos::PageRef p = pages.page(pfn);
        ASSERT_EQ(p.heat(), c.heat[pfn]) << "heat of gpfn " << pfn;
        ASSERT_EQ(p.pte_accessed(), c.accessed[pfn])
            << "access bit of gpfn " << pfn;
        if (xray::xrayCompiled && watch.rec.live(vm, pfn)) {
            ASSERT_EQ(watch.rec.shadowHeat(vm, pfn), c.heat[pfn])
                << "x-ray heat of gpfn " << pfn;
        }
    }
    if (xray::xrayCompiled) {
        EXPECT_EQ(watch.crossings(), want.crossings);
    }
}

/** Run `scans` sweeps of tracker and model side by side. */
void
sweepAgainstModel(ScanRig &rig, HeatWatch &watch, std::uint64_t budget,
                  int scans, std::uint64_t seed)
{
    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = budget;
    vmm::PteScanTracker tracker(rig.vm(), cfg);
    SweepModel model{budget, cfg.hot_threshold};
    sim::Rng rng(seed);
    for (int i = 0; i < scans; ++i) {
        SCOPED_TRACE(testing::Message()
                     << "budget " << budget << " scan " << i);
        sprinkleAccessed(rig.pages(), rng, 0.5);
        Columns c(rig.pages());
        const ModelScan want = model.scan(c);
        watch.tracer.clear();
        const vmm::ScanResult got = tracker.scanOnce();
        expectSameScan(want, got, c, rig.pages(), watch, rig.tag());
        EXPECT_EQ(tracker.sweepCursor(), model.cursor);
    }
}

TEST(HotnessScanModel, SweepBudgetsAroundAWord)
{
    for (std::uint64_t budget : {1u, 63u, 64u, 65u}) {
        ScanRig rig(rigFast, rigSlow);
        HeatWatch watch;
        watch.rec.sizeShadow(rig.tag(), rig.pages().size());
        sim::Rng rng(30 + budget);
        paintRuns(rig, rng);
        // Enough scans for 1 and 63 to cross words, and for 64 and
        // 65 to lap the span.
        sweepAgainstModel(rig, watch, budget, budget == 1 ? 70 : 30,
                          40 + budget);
    }
}

TEST(HotnessScanModel, SweepBudgetPastTheAllocatedPagesStopsAtOneLap)
{
    ScanRig rig(rigFast, rigSlow);
    HeatWatch watch;
    watch.rec.sizeShadow(rig.tag(), rig.pages().size());
    sim::Rng rng(50);
    paintRuns(rig, rng);
    // Each scan is one lap: free pages count toward the span bound,
    // so the cursor ends where it began.
    sweepAgainstModel(rig, watch, 1'000'000, 4, 51);
}

TEST(HotnessScanModel, SweepOfAnAllFreeGuestVisitsNothing)
{
    ScanRig rig(rigFast, rigSlow);
    HeatWatch watch;
    for (Gpfn pfn = 0; pfn < rig.pages().size(); ++pfn)
        rig.setAllocated(pfn, false);
    sweepAgainstModel(rig, watch, 65, 3, 52);
    vmm::PteScanTracker tracker(rig.vm(), {});
    EXPECT_EQ(tracker.scanOnce().pages_scanned, 0u);
    EXPECT_EQ(tracker.sweepCursor(), 0u) << "a full lap ends where it began";
}

TEST(HotnessScanModel, SweepOfALonePageAtTheSpanEnd)
{
    ScanRig rig(rigFast, rigSlow);
    HeatWatch watch;
    watch.rec.sizeShadow(rig.tag(), rig.pages().size());
    const std::uint64_t n = rig.pages().size();
    for (Gpfn pfn = 0; pfn < n; ++pfn)
        rig.setAllocated(pfn, pfn == n - 1);
    for (std::uint64_t budget : {1u, 64u})
        sweepAgainstModel(rig, watch, budget, 5, 53 + budget);
}

/**
 * The guided scan one PTE at a time: tracking ranges in order from
 * the resume point, every present PTE a unit of the budget and its
 * access bit cleared, exception-typed pages skipped after that.
 */
struct GuidedModel
{
    std::uint64_t budget;
    std::uint16_t threshold;
    std::size_t range_cursor = 0;
    std::uint64_t va_cursor = 0;
    std::uint64_t version = 0;

    static bool
    excepted(PageType t)
    {
        return guestos::isShortLivedIo(t) ||
               guestos::isMigrationException(t);
    }

    /** Visited (pid, va) pairs go to `ptes` in order. */
    ModelScan
    scan(guestos::GuestKernel &k, const vmm::TrackingDirectives &d,
         Columns &c,
         std::vector<std::pair<guestos::ProcessId, std::uint64_t>> &ptes)
    {
        ModelScan out;
        if (d.version != version) {
            version = d.version;
            range_cursor = 0;
            va_cursor = 0;
        }
        std::size_t stepped = 0;
        while (!d.ranges.empty() && out.scanned < budget &&
               stepped < d.ranges.size()) {
            if (range_cursor >= d.ranges.size()) {
                range_cursor = 0;
                va_cursor = 0;
            }
            const vmm::TrackingRange &r = d.ranges[range_cursor];
            if (!k.hasProcess(r.pid)) {
                ++range_cursor;
                va_cursor = 0;
                ++stepped;
                continue;
            }
            const std::uint64_t lo =
                (va_cursor > r.va_lo && va_cursor < r.va_hi) ? va_cursor
                                                             : r.va_lo;
            const guestos::PageTable &pt = k.process(r.pid).pageTable();
            const std::uint64_t left = budget - out.scanned;
            std::uint64_t visited = 0;
            std::uint64_t last = lo;
            for (std::uint64_t va = lo; va < r.va_hi && visited < left;
                 va += mem::pageSize) {
                const auto pte = pt.lookup(va);
                if (!pte)
                    continue;
                ++visited;
                last = va;
                ptes.emplace_back(r.pid, va);
                if (excepted(k.pageMeta(pte->pfn).type()))
                    continue;
                const bool acc = pte->accessed || c.accessed[pte->pfn];
                c.accessed[pte->pfn] = false;
                c.heatPage(pte->pfn, acc, threshold, out);
            }
            out.scanned += visited;
            if (visited < left) {
                ++range_cursor;
                va_cursor = 0;
                ++stepped;
            } else {
                va_cursor = last + mem::pageSize;
            }
        }
        return out;
    }
};

TEST(HotnessScanModel, GuidedScanSkipsExceptionCachePages)
{
    for (std::uint64_t budget : {1u, 64u, 65u, 100000u}) {
        SCOPED_TRACE(testing::Message() << "budget " << budget);
        ScanRig rig(rigFast, rigSlow);
        HeatWatch watch;
        guestos::GuestKernel &k = *rig.guest;
        auto &as = k.createProcess("p");
        const auto anon = as.mmap(90 * mem::pageSize,
                                  guestos::VmaKind::Anon);
        for (std::uint64_t i = 0; i < 90; ++i) {
            if (i % 11 != 4)
                as.touch(anon + i * mem::pageSize, true);
        }
        const auto file = k.pageCache().createFile(40 * mem::pageSize);
        const auto filev = as.mmap(40 * mem::pageSize,
                                   guestos::VmaKind::File,
                                   guestos::MemHint::None, file, 0);
        std::uint64_t cached = 0;
        for (std::uint64_t i = 0; i < 40; ++i) {
            const Gpfn pfn = as.touch(filev + i * mem::pageSize, false);
            cached += k.pageMeta(pfn).type() == PageType::PageCache;
        }
        ASSERT_EQ(cached, 40u) << "file VMA pages are cache pages";

        vmm::SharedRing ring;
        vmm::TrackingDirectives d;
        d.ranges = {{0, anon, anon + 90 * mem::pageSize},
                    {0, filev, filev + 40 * mem::pageSize}};
        d.exception = exceptionList();
        ring.publishDirectives(std::move(d));

        vmm::HotnessConfig cfg;
        cfg.pages_per_scan = budget;
        vmm::PteScanTracker tracker(rig.vm(), cfg);
        tracker.guideWith(&ring);
        GuidedModel model{budget, cfg.hot_threshold};
        sim::Rng rng(60 + budget);
        for (int i = 0; i < 12; ++i) {
            SCOPED_TRACE(testing::Message() << "scan " << i);
            for (std::uint64_t j = 0; j < 130; ++j) {
                const std::uint64_t va = j < 90
                    ? anon + j * mem::pageSize
                    : filev + (j - 90) * mem::pageSize;
                if (rng.chance(0.4))
                    as.pageTable().touch(va, false);
            }
            sprinkleAccessed(rig.pages(), rng, 0.3);

            // The PTE access bits before the scan, by address.
            std::vector<std::pair<std::uint64_t, bool>> before;
            as.pageTable().scanRange(
                0, guestos::PageTable::vaSpan,
                [&](std::uint64_t va, const guestos::PteView &v) {
                    before.emplace_back(va, v.accessed);
                },
                /*clear_accessed=*/false);

            Columns c(rig.pages());
            std::vector<std::pair<guestos::ProcessId, std::uint64_t>> ptes;
            const ModelScan want =
                model.scan(k, ring.directives(), c, ptes);
            watch.tracer.clear();
            const vmm::ScanResult got = tracker.scanOnce();
            expectSameScan(want, got, c, rig.pages(), watch, rig.tag());
            EXPECT_EQ(tracker.rangeCursor(), model.range_cursor);
            EXPECT_EQ(tracker.vaCursor(), model.va_cursor);

            // Visited PTEs, exception ones included, lose their access
            // bit; every other PTE keeps it.
            for (const auto &[va, was] : before) {
                bool visited = false;
                for (const auto &pv : ptes)
                    visited = visited || pv.second == va;
                ASSERT_EQ(as.pageTable().lookup(va)->accessed,
                          was && !visited)
                    << "PTE access bit at va " << std::hex << va;
            }
        }
    }
}

} // namespace
