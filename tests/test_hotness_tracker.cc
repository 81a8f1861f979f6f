/**
 * @file
 * PteScanTracker: full-VM sweeps, heat EWMA, hot thresholding,
 * OS-guided scanning with exception lists, cost charging, and the
 * Equation 1 adaptive interval (base-class behavior shared by every
 * HotnessTracker backend).
 */

#include <gtest/gtest.h>

#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "vmm/hotness_pte.hh"
#include "vmm/vmm.hh"

namespace {

using namespace hos;

struct TrackerFixture : ::testing::Test
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;
    std::unique_ptr<guestos::GuestKernel> guest;
    vmm::VmId id = 0;

    void
    SetUp() override
    {
        machine.addNode(mem::MemType::FastMem, mem::dramSpec(8 * mem::mib));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(32 * mem::mib));
        hypervisor = std::make_unique<vmm::Vmm>(machine);

        guestos::GuestConfig cfg;
        cfg.name = "guest";
        cfg.cpus = 2;
        cfg.nodes = {{mem::MemType::FastMem, 8 * mem::mib, 8 * mem::mib},
                     {mem::MemType::SlowMem, 32 * mem::mib,
                      32 * mem::mib}};
        guest = std::make_unique<guestos::GuestKernel>(cfg);
        id = hypervisor->registerVm(*guest, {});
    }

    /** Allocate n anon pages and return their gpfns. */
    std::vector<guestos::Gpfn>
    allocPages(std::uint64_t n, guestos::MemHint hint)
    {
        auto &as = guest->createProcess("p");
        const auto va =
            as.mmap(n * mem::pageSize, guestos::VmaKind::Anon, hint);
        std::vector<guestos::Gpfn> out;
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(as.touch(va + i * mem::pageSize, true));
        return out;
    }
};

TEST_F(TrackerFixture, HeatRisesOnRepeatedAccess)
{
    auto pages = allocPages(64, guestos::MemHint::SlowMem);
    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = 100000;
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);

    for (int round = 0; round < 3; ++round) {
        for (auto pfn : pages)
            guest->pageMeta(pfn).setPteAccessed(true);
        auto res = tracker.scanOnce();
        EXPECT_GE(res.accessed, 64u);
        if (round >= 1) {
            EXPECT_GE(res.hot.size(), 64u)
                << "two consecutive hits make a page hot";
        }
    }
}

TEST_F(TrackerFixture, ColdPagesNeverGetHot)
{
    allocPages(64, guestos::MemHint::SlowMem);
    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = 100000;
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);
    for (int round = 0; round < 4; ++round) {
        auto res = tracker.scanOnce();
        EXPECT_EQ(res.hot.size(), 0u);
    }
}

TEST_F(TrackerFixture, ScanChargesCostToTheVm)
{
    allocPages(256, guestos::MemHint::SlowMem);
    vmm::PteScanTracker tracker(hypervisor->vm(id), {});
    const auto before =
        guest->overheadTotal(guestos::OverheadKind::HotScan);
    auto res = tracker.scanOnce();
    EXPECT_GT(res.cost, 0u);
    EXPECT_EQ(guest->overheadTotal(guestos::OverheadKind::HotScan),
              before + res.cost);
}

TEST_F(TrackerFixture, BatchLimitSweepsWithCursor)
{
    allocPages(300, guestos::MemHint::SlowMem);
    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = 100;
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);
    auto r1 = tracker.scanOnce();
    EXPECT_EQ(r1.pages_scanned, 100u);
    tracker.scanOnce();
    tracker.scanOnce();
    EXPECT_GE(tracker.totalScanned(), 300u);
}

TEST_F(TrackerFixture, GuidedScanHonorsRangesAndExceptions)
{
    auto pages = allocPages(64, guestos::MemHint::SlowMem);
    // Also read file data so exception-listed cache pages exist.
    const auto f = guest->pageCache().createFile(mem::mib);
    guest->pageCache().read(f, 0, 64 * mem::kib);

    vmm::SharedRing ring;
    vmm::TrackingDirectives d;
    guest->process(0).forEachVma([&](const guestos::Vma &vma) {
        d.ranges.push_back({0, vma.start, vma.end()});
    });
    d.exception = guestos::pageTypeBit(guestos::PageType::PageCache) |
                  guestos::pageTypeBit(guestos::PageType::BufferCache) |
                  guestos::pageTypeBit(guestos::PageType::NetBuf);
    ring.publishDirectives(std::move(d));

    vmm::HotnessConfig cfg;
    cfg.pages_per_scan = 100000;
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);
    tracker.guideWith(&ring);

    for (auto pfn : pages)
        guest->pageMeta(pfn).setPteAccessed(true);
    auto res = tracker.scanOnce();
    // Only the anon VMA's 64 pages are visited; cache pages are not.
    EXPECT_EQ(res.pages_scanned, 64u);
    EXPECT_GE(res.accessed, 64u);
}

TEST_F(TrackerFixture, AdaptiveIntervalFollowsEquationOne)
{
    vmm::HotnessConfig cfg;
    cfg.adaptive = true;
    cfg.interval = sim::milliseconds(100);
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);
    auto &vm = hypervisor->vm(id);

    // Warm up the epoch-miss baseline.
    vm.reportLlcMisses(1'000'000);
    tracker.adaptInterval();
    vm.reportLlcMisses(2'000'000); // epoch misses: 1M
    tracker.adaptInterval();

    // Rising miss rate: next epoch has 2M misses (+100%).
    vm.reportLlcMisses(4'000'000);
    tracker.adaptInterval();
    EXPECT_LT(tracker.interval(), sim::milliseconds(100))
        << "rising misses shrink the interval";

    const auto shrunk = tracker.interval();
    // Falling miss rate: next epoch has 0.2M misses.
    vm.reportLlcMisses(4'200'000);
    tracker.adaptInterval();
    EXPECT_GT(tracker.interval(), shrunk)
        << "falling misses lengthen the interval";
}

TEST_F(TrackerFixture, AdaptiveIntervalClamps)
{
    vmm::HotnessConfig cfg;
    cfg.adaptive = true;
    cfg.interval = sim::milliseconds(100);
    cfg.min_interval = sim::milliseconds(50);
    vmm::PteScanTracker tracker(hypervisor->vm(id), cfg);
    auto &vm = hypervisor->vm(id);
    std::uint64_t cum = 1000;
    vm.reportLlcMisses(cum);
    tracker.adaptInterval();
    for (int i = 0; i < 10; ++i) {
        cum += 1000ull << i; // exploding miss rate
        vm.reportLlcMisses(cum);
        tracker.adaptInterval();
    }
    EXPECT_GE(tracker.interval(), cfg.min_interval);
}

} // namespace
