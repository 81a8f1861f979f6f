/**
 * @file
 * Guest allocator state pin for the workload region path: a scripted
 * grow / mark / munmap / regrow churn on a guest small enough to hit
 * the FastMem watermark, balloon, reclaim and fallback mid-range and
 * to end in an OOM trim. The fingerprint hashes every list the
 * allocator keeps (buddy free lists, per-CPU caches, LRUs) in list
 * order, the page columns, the page tables, the region page vectors
 * and the next draws of the placement and workload RNGs.
 */

#include <gtest/gtest.h>

#include "core/hetero_system.hh"
#include "policy/coordinated.hh"
#include "test_helpers.hh"
#include "workload/workload.hh"

namespace {

using namespace hos;
using namespace hos::guestos;
using namespace hos::workload;
using test::Fnv;
using test::kernelFingerprint;

/** Drives the protected region helpers through a fixed script. */
class ChurnProbe final : public Workload
{
  public:
    explicit ChurnProbe(VmEnv env) : Workload(std::move(env), "churn") {}

    Region heap;
    Region arena[3];
    Region huge;
    std::uint64_t huge_requested = 0;

    using Workload::rng;

  protected:
    void
    setup() override
    {
        heap = makeAnonRegion("heap", 6 * mem::mib, 4 * mem::mib, 0.3,
                              4.0, 0.4);
        heap.ref_chance = 0.6;
        growRegion(heap, 4 * mem::mib);
        file_ = makeFile(8 * mem::mib);
    }

    bool
    phase(std::uint64_t idx) override
    {
        ioRead(file_, (idx % 4) * mem::mib, mem::mib);
        switch (idx) {
          case 0:
            arena[0] = newArena("arena0", 10 * mem::mib);
            break;
          case 1:
            arena[1] = newArena("arena1", 8 * mem::mib);
            growRegion(heap, 2 * mem::mib);
            break;
          case 2:
            releaseRegion(arena[0]);
            arena[2] = newArena("arena2", 9 * mem::mib);
            break;
          case 3: {
            // A stretch of random placement draws the allocator's RNG.
            AllocConfig cfg = kernel().allocator().config();
            const AllocConfig saved = cfg;
            cfg.mode = AllocMode::Random;
            kernel().allocator().setConfig(cfg);
            releaseRegion(arena[1]);
            arena[0] = newArena("arena0b", 6 * mem::mib);
            kernel().allocator().setConfig(saved);
            break;
          }
          case 4:
            releaseRegion(arena[2]);
            arena[1] = newArena("arena1b", 7 * mem::mib);
            break;
          case 5:
            huge_requested = 64 * mem::mib;
            huge = newArena("huge", huge_requested);
            break;
          default:
            break;
        }
        accessRegion(heap, 200000);
        for (auto &a : arena)
            accessRegion(a, 100000);
        accessRegion(huge, 100000);
        chargeCpu(sim::milliseconds(60));
        return idx + 1 < 7;
    }

  private:
    Region
    newArena(const char *name, std::uint64_t bytes)
    {
        Region r = makeAnonRegion(name, bytes, bytes / 2, 0.25, 8.0, 0.35);
        r.ref_chance = 0.7;
        growRegion(r, bytes);
        return r;
    }

    guestos::FileId file_ = guestos::noFile;
};

TEST(GuestKernelState, RegionChurnMatchesPinnedFingerprint)
{
    core::HostConfig host;
    host.fast = mem::dramSpec(8 * mem::mib);
    host.slow = mem::defaultSlowMemSpec(24 * mem::mib);
    core::GuestSizing sizing;
    sizing.fast_max = 8 * mem::mib;
    sizing.fast_initial = 4 * mem::mib;
    sizing.slow_max = 24 * mem::mib;
    sizing.cpus = 2;
    sizing.seed = 5;
    core::HeteroSystem sys(host);
    auto &slot = sys.addVm(std::make_unique<policy::CoordinatedPolicy>(),
                           sizing);
    ChurnProbe wl(sys.envFor(slot));
    wl.start();
    while (wl.step()) {
    }
    GuestKernel &k = *slot.kernel;

    // The script must reach every branch it exists to pin.
    EXPECT_TRUE(wl.huge.oom_warned);
    EXPECT_LT(wl.huge.pages.size() * mem::pageSize, wl.huge_requested);
    EXPECT_GT(k.heteroLru().stats().reclaim_passes, 0u);
    EXPECT_GT(k.balloon().totalGranted(), 0u);
    EXPECT_GT(k.allocator().totalFastMisses(), 0u);

    Fnv f;
    f.add(kernelFingerprint(k));
    for (const Region *r : {&wl.heap, &wl.arena[0], &wl.arena[1],
                            &wl.arena[2], &wl.huge}) {
        f.add(r->pages.size());
        for (Gpfn pfn : r->pages)
            f.add(pfn);
        f.add(r->window_start);
        f.add(r->mark_cursor);
    }
    f.add(wl.rng().next());
    f.add(static_cast<std::uint64_t>(wl.elapsed()));
    // Captured on the per-page region path before the range forms.
    EXPECT_EQ(f.h, 0x2f604ece0da1677eull) << std::hex << f.h;
}

/**
 * A standalone guest whose FastMem runs dry part way through a range:
 * reclaim demotes pages faulted earlier in the same range (so they
 * must already be mapped), the rest falls back to SlowMem, and the
 * range ends out of memory.
 */
std::unique_ptr<GuestKernel>
rangeGuest()
{
    AllocConfig alloc = heapIoSlabOdConfig();
    alloc.active_reclaim = true;
    auto k = test::standaloneGuest(2 * mem::mib, 8 * mem::mib, alloc);
    k->events().runUntil(sim::milliseconds(1)); // reclaim needs now > 0
    return k;
}

TEST(GuestKernelState, TouchRangeMatchesPageByPage)
{
    auto whole = rangeGuest();
    auto single = rangeGuest();
    constexpr std::uint64_t n = 3000; // more than the guest holds
    std::vector<Gpfn> a(n, invalidGpfn), b(n, invalidGpfn);

    auto &as_a = whole->createProcess("a");
    auto &as_b = single->createProcess("b");
    const std::uint64_t va = as_a.mmap(n * mem::pageSize, VmaKind::Anon);
    ASSERT_EQ(va, as_b.mmap(n * mem::pageSize, VmaKind::Anon));
    // One page already mapped mid-range: touched, not faulted.
    const std::uint64_t mid = va + 700 * mem::pageSize;
    ASSERT_EQ(as_a.touch(mid, false), as_b.touch(mid, false));

    const std::uint64_t got = as_a.touchRange(va, n, true, a.data());
    std::uint64_t i = 0;
    for (; i < n; ++i) {
        if (as_b.touchRange(va + i * mem::pageSize, 1, true, &b[i]) == 0)
            break;
    }
    EXPECT_EQ(got, i);
    EXPECT_LT(got, n) << "the range must end out of memory";
    EXPECT_GT(whole->heteroLru().stats().reclaim_passes, 0u);
    EXPECT_GT(whole->allocator().totalFastMisses(), 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(kernelFingerprint(*whole), kernelFingerprint(*single));
}

} // namespace
