/**
 * @file
 * hos::check — seeded-corruption coverage.
 *
 * Each test plants one deliberate corruption (double free, mid-
 * residence retype, zone counter desync, broken LRU link, P2M drift,
 * stale gauges, page-cache index drift) and asserts the *intended*
 * validator catches it with the right CheckFailure kind. Clean-state audits run first as
 * positive controls so a trigger can't hide behind a validator that
 * fires on everything.
 */

#include <gtest/gtest.h>

#include "check/audit_daemon.hh"
#include "check/auditors.hh"
#include "check/check.hh"
#include "check/page_state.hh"
#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "prof/prof.hh"
#include "vmm/vmm.hh"

#include "test_helpers.hh"

namespace {

using namespace hos;
using check::AuditResult;
using check::CheckError;
using check::CheckKind;
using guestos::Gpfn;
using guestos::PageType;

std::size_t
countKind(const AuditResult &r, CheckKind k)
{
    std::size_t n = 0;
    for (const auto &f : r.failures)
        if (f.kind == k)
            ++n;
    return n;
}

/** Expect `fn` to trip a validator of exactly kind `want`. */
template <typename Fn>
void
expectCheckFailure(CheckKind want, Fn &&fn)
{
    check::ScopedThrowMode throw_mode;
    try {
        fn();
        FAIL() << "no validator fired (expected "
               << check::checkKindName(want) << ")";
    } catch (const CheckError &e) {
        EXPECT_EQ(e.kind(), want) << e.what();
    }
}

// --- Page-state machine (direct validator calls; always compiled) ----

TEST(PageStateMachine, TypeTransitionsOnlyThroughFree)
{
    using check::legalTypeTransition;
    static_assert(legalTypeTransition(PageType::Free, PageType::Anon));
    static_assert(legalTypeTransition(PageType::Slab, PageType::Free));
    static_assert(legalTypeTransition(PageType::Anon, PageType::Anon));
    static_assert(!legalTypeTransition(PageType::Anon, PageType::Slab));
    static_assert(
        !legalTypeTransition(PageType::PageCache, PageType::NetBuf));

    using check::lruManagedType;
    static_assert(lruManagedType(PageType::Anon));
    static_assert(lruManagedType(PageType::PageCache));
    static_assert(!lruManagedType(PageType::Slab));
    static_assert(!lruManagedType(PageType::PageTable));
    SUCCEED();
}

TEST(PageStateMachine, DoubleFreeIsPageState)
{
    guestos::PageArray pa(8);
    const guestos::PageRef p = pa.page(7); // allocated bit clear
    expectCheckFailure(CheckKind::PageState,
                       [&] { check::validateFree(p, "test"); });
}

TEST(PageStateMachine, DoubleAllocationIsPageState)
{
    guestos::PageArray pa(8);
    guestos::PageRef p = pa.page(7);
    pa.setAllocated(p, true);
    p.setType(PageType::Anon); // still live
    expectCheckFailure(CheckKind::PageState, [&] {
        check::validateAlloc(p, PageType::Slab, "test");
    });
}

TEST(PageStateMachine, LiveRetypeIsPageState)
{
    guestos::PageArray pa(8);
    guestos::PageRef p = pa.page(7);
    pa.setAllocated(p, true);
    p.setType(PageType::Anon);
    expectCheckFailure(CheckKind::PageState, [&] {
        check::validateTypeChange(p, PageType::Slab, "test");
    });
}

TEST(PageStateMachine, MigratingExceptionTypeIsPlacement)
{
    guestos::PageArray pa(8);
    guestos::PageRef p = pa.page(7);
    pa.setAllocated(p, true);
    p.setType(PageType::PageTable); // §4.1 migration exception
    expectCheckFailure(CheckKind::Placement, [&] {
        check::validateMigration(p, mem::MemType::SlowMem, "test");
    });
}

TEST(PageStateMachine, PinnedIoPageInFastMemIsPlacement)
{
    guestos::PageArray pa(8);
    guestos::PageRef p = pa.page(7);
    pa.setAllocated(p, true);
    p.setType(PageType::PageCache);
    p.setUnevictable(true);
    p.setMemType(mem::MemType::FastMem);
    expectCheckFailure(CheckKind::Placement,
                       [&] { check::validatePlacement(p, "test"); });
}

TEST(PageStateMachine, NonManagedTypeOnLruIsLru)
{
    guestos::PageArray pa(8);
    guestos::PageRef p = pa.page(7);
    pa.setAllocated(p, true);
    p.setType(PageType::Slab);
    expectCheckFailure(CheckKind::Lru,
                       [&] { check::validateLruInsert(p, "test"); });
}

// --- End-to-end through the kernel's guarded call sites --------------

TEST(KernelTransitions, DoubleFreeCaughtInFreePath)
{
    if (!check::cheapChecksEnabled)
        GTEST_SKIP() << "call-site validators compiled out "
                        "(HOS_CHECK=off)";
    auto kernel = test::standaloneGuest();
    const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
    ASSERT_NE(pfn, guestos::invalidGpfn);
    kernel->freePage(pfn);
    expectCheckFailure(CheckKind::PageState,
                       [&] { kernel->freePage(pfn); });
}

TEST(KernelTransitions, LruInsertOfSlabPageCaught)
{
    if (!check::cheapChecksEnabled)
        GTEST_SKIP() << "call-site validators compiled out "
                        "(HOS_CHECK=off)";
    auto kernel = test::standaloneGuest();
    const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Slab);
    ASSERT_NE(pfn, guestos::invalidGpfn);
    expectCheckFailure(CheckKind::Lru, [&] { kernel->lruAdd(pfn); });
}

TEST(KernelTransitions, MigrationFrontendSkipsPinnedPages)
{
    // The frontend's own state checks sit in front of the validator
    // (Section 4.1: the guest skips what it must not move), so a
    // pinned page is skipped, never failed.
    auto kernel = test::standaloneGuest();
    const Gpfn pfn = kernel->allocPageOnNode(
        kernel->nodeFor(mem::MemType::SlowMem)->id(), PageType::Anon);
    ASSERT_NE(pfn, guestos::invalidGpfn);
    kernel->pageMeta(pfn).setUnevictable(true);
    const auto out =
        kernel->migrator().migratePages({pfn}, mem::MemType::FastMem);
    EXPECT_EQ(out.migrated, 0u);
    EXPECT_EQ(out.skipped_pinned, 1u);
}

// --- Cross-layer auditors --------------------------------------------

struct AuditFixture : ::testing::Test
{
    std::unique_ptr<guestos::GuestKernel> kernel =
        test::standaloneGuest();
};

TEST_F(AuditFixture, CleanKernelAuditsClean)
{
    // Positive control, including live allocations and LRU residents.
    std::vector<Gpfn> held;
    for (int i = 0; i < 16; ++i) {
        const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
        ASSERT_NE(pfn, guestos::invalidGpfn);
        kernel->lruAdd(pfn);
        held.push_back(pfn);
    }
    const AuditResult r = check::auditKernel(*kernel);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures.front().describe());
    EXPECT_GT(r.checks, 0u);
}

TEST_F(AuditFixture, RetypeMidLruResidenceIsPageState)
{
    const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
    ASSERT_NE(pfn, guestos::invalidGpfn);
    kernel->lruAdd(pfn);

    // The corruption: a live LRU-resident page silently becomes Slab.
    kernel->pageMeta(pfn).setType(PageType::Slab);

    const AuditResult r = check::auditKernel(*kernel);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::PageState), 1u);
    bool flagged = false;
    for (const auto &f : r.failures)
        if (f.kind == CheckKind::PageState && f.subject == pfn)
            flagged = true;
    EXPECT_TRUE(flagged) << "retyped page not the failure subject";
}

TEST_F(AuditFixture, BrokenLruLinkIsListIntegrity)
{
    std::vector<Gpfn> held;
    for (int i = 0; i < 3; ++i) {
        const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
        ASSERT_NE(pfn, guestos::invalidGpfn);
        kernel->lruAdd(pfn);
        held.push_back(pfn);
    }
    // The corruption: the middle element forgets its list ownership,
    // as if a racing remove() half-completed.
    kernel->pageMeta(held[1]).setListId(guestos::noListId);

    const AuditResult r = check::auditKernel(*kernel);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::ListIntegrity), 1u);
}

TEST_F(AuditFixture, AllocatedPageInFreeBlockIsZoneAccounting)
{
    guestos::Zone &zone = kernel->node(0).zone(0);
    Gpfn victim = guestos::invalidGpfn;
    for (unsigned o = 0; o < guestos::BuddyAllocator::maxOrder; ++o) {
        if (!zone.buddy().freeList(o).empty()) {
            victim = zone.buddy().freeList(o).head();
            break;
        }
    }
    ASSERT_NE(victim, guestos::invalidGpfn);

    // The corruption: a page sitting on a buddy free list claims to
    // be allocated (lost free / use-after-free shape).
    kernel->pages().setAllocated(victim, true);

    const AuditResult r = check::auditKernel(*kernel);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::ZoneAccounting), 1u);
    for (const auto &f : r.failures)
        EXPECT_EQ(f.kind, CheckKind::ZoneAccounting) << f.describe();
}

TEST_F(AuditFixture, ConservationIdentityBreakIsZoneAccounting)
{
    const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
    ASSERT_NE(pfn, guestos::invalidGpfn);

    // The corruption: the allocated bit vanishes while the buddy and
    // per-CPU counters still believe the page is out — the node-level
    // managed = free + cached + allocated identity no longer holds.
    kernel->pages().setAllocated(pfn, false);

    const AuditResult r = check::auditKernel(*kernel);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::ZoneAccounting), 1u);
}

/** A few cached pages: clean reads, dirty writes, one remapped. */
struct CacheAuditFixture : AuditFixture
{
    guestos::PageCache &pc = kernel->pageCache();
    guestos::FileId file = pc.createFile(mem::mib);
    std::vector<Gpfn> read = pc.read(file, 0, 8 * mem::pageSize).pages;
    std::vector<Gpfn> written =
        pc.write(file, 64 * mem::pageSize, 4 * mem::pageSize).pages;

    void
    SetUp() override
    {
        auto *slow = kernel->nodeFor(mem::MemType::SlowMem);
        const Gpfn dst =
            kernel->allocPageOnNode(slow->id(), PageType::PageCache);
        ASSERT_NE(dst, guestos::invalidGpfn);
        pc.remapPage(read[0], dst);
        kernel->lruRemove(read[0]);
        kernel->freePage(read[0]);
        kernel->lruAdd(dst);
        read[0] = dst;
        ASSERT_TRUE(pc.evictPage(read[7]));
        read.pop_back();
    }
};

TEST_F(CacheAuditFixture, CleanCacheAuditsClean)
{
    const AuditResult r = check::auditPageCache(*kernel);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures.front().describe());
    EXPECT_GT(r.checks, 11u);
    EXPECT_TRUE(check::auditKernel(*kernel).ok());
}

TEST_F(CacheAuditFixture, StrayFileOnAnonPageIsPageCache)
{
    const Gpfn pfn = kernel->allocPageOnNode(0, PageType::Anon);
    ASSERT_NE(pfn, guestos::invalidGpfn);

    // The corruption: an anon page claims to cache a file page.
    kernel->pageMeta(pfn).setCacheFile(file, 300);

    const AuditResult r = check::auditKernel(*kernel);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures.front().kind, CheckKind::PageCache);
    EXPECT_EQ(r.failures.front().subject, pfn);
}

TEST_F(CacheAuditFixture, IndexedPageForgettingItsFileIsPageCache)
{
    // The corruption: a cached page loses its reverse map while the
    // index still names it.
    kernel->pageMeta(read[2]).setCacheFile(guestos::noFile, 0);

    const AuditResult r = check::auditPageCache(*kernel);
    ASSERT_FALSE(r.ok());
    for (const auto &f : r.failures) {
        EXPECT_EQ(f.kind, CheckKind::PageCache) << f.describe();
        EXPECT_EQ(f.subject, read[2]) << f.describe();
    }
}

TEST_F(CacheAuditFixture, IndexPointingAtWrongSlotIsPageCache)
{
    // The corruption: the page points back at a neighbour's slot.
    kernel->pageMeta(read[3]).setCacheFile(file, 4);

    const AuditResult r = check::auditPageCache(*kernel);
    ASSERT_EQ(r.failures.size(), 2u) << "both directions disagree";
    for (const auto &f : r.failures)
        EXPECT_EQ(f.kind, CheckKind::PageCache) << f.describe();
}

TEST_F(CacheAuditFixture, DirtyCountDriftIsPageCache)
{
    // The corruption: a cached page turns dirty behind the cache's
    // back, so dirtyPages() no longer matches a recount.
    kernel->pageMeta(read[1]).setDirty(true);

    const AuditResult r = check::auditPageCache(*kernel);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures.front().kind, CheckKind::PageCache);
    EXPECT_EQ(r.failures.front().subject, check::invalidSubject);
}

TEST_F(CacheAuditFixture, FreeOfIndexedPageCaught)
{
    if (!check::cheapChecksEnabled)
        GTEST_SKIP() << "call-site validators compiled out "
                        "(HOS_CHECK=off)";
    // Freeing a page the cache still indexes, bypassing evictPage.
    kernel->lruRemove(read[4]);
    expectCheckFailure(CheckKind::PageState,
                       [&] { kernel->freePage(read[4]); });
}

TEST_F(AuditFixture, StaleGaugesAreStatDrift)
{
    sim::StatRegistry registry;
    // Register WITHOUT a refresh hook — the dead-wiring bug this
    // auditor exists to catch.
    registry.add(&kernel->stats());
    kernel->syncStats(); // gauges correct at this instant

    // Clean control while gauges still match.
    EXPECT_TRUE(check::auditStats(*kernel, registry).ok());

    // Live state moves on; nothing refreshes the gauges.
    ASSERT_NE(kernel->allocPageOnNode(0, PageType::Anon),
              guestos::invalidGpfn);

    const AuditResult r = check::auditStats(*kernel, registry);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(countKind(r, CheckKind::StatDrift), r.failures.size());

    // With the hook wired the same drift heals on refresh.
    sim::StatRegistry wired;
    guestos::GuestKernel *k = kernel.get();
    wired.add(&kernel->stats(), [k] { k->syncStats(); });
    EXPECT_TRUE(check::auditStats(*kernel, wired).ok());
}

// --- P2M vs machine ownership ----------------------------------------

struct P2mAuditFixture : ::testing::Test
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;
    std::unique_ptr<guestos::GuestKernel> guest;
    vmm::VmContext *vm = nullptr;

    void
    SetUp() override
    {
        machine.addNode(mem::MemType::FastMem,
                        mem::dramSpec(16 * mem::mib));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(64 * mem::mib));
        hypervisor = std::make_unique<vmm::Vmm>(machine);

        guestos::GuestConfig cfg;
        cfg.name = "vm";
        cfg.cpus = 2;
        cfg.nodes = {
            {mem::MemType::FastMem, 16 * mem::mib, 4 * mem::mib},
            {mem::MemType::SlowMem, 64 * mem::mib, 16 * mem::mib}};
        guest = std::make_unique<guestos::GuestKernel>(cfg);
        vm = &hypervisor->vm(hypervisor->registerVm(*guest, {}));
    }
};

TEST_F(P2mAuditFixture, CleanVmAuditsClean)
{
    const AuditResult r = check::auditVmm(*hypervisor);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures.front().describe());
}

TEST_F(P2mAuditFixture, DroppedMappingIsP2m)
{
    const Gpfn gpfn = guest->node(0).base();
    ASSERT_TRUE(vm->p2m().populated(gpfn));

    // The corruption: the P2M entry vanishes while the guest still
    // believes the gpfn populated (and the machine frame stays owned).
    vm->p2m().clear(gpfn);

    const AuditResult r = check::auditP2m(*vm, machine);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::P2m), 1u);
    for (const auto &f : r.failures)
        EXPECT_EQ(f.kind, CheckKind::P2m) << f.describe();
}

TEST_F(P2mAuditFixture, DoubleMappedFrameIsP2m)
{
    const Gpfn g1 = guest->node(0).base();
    const Gpfn g2 = g1 + 1;
    ASSERT_TRUE(vm->p2m().populated(g1));
    ASSERT_TRUE(vm->p2m().populated(g2));

    // The corruption: two gpfns claim the same machine frame.
    vm->p2m().set(g2, vm->p2m().mfnOf(g1), vm->p2m().tierOf(g1));

    const AuditResult r = check::auditP2m(*vm, machine);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::P2m), 1u);
}

// --- Profiler span-stack auditor -------------------------------------

TEST(ProfAudit, BalancedSpansAuditClean)
{
    // Positive control: every opened span closed by end-of-run.
    prof::Profiler profiler;
    profiler.beginSpan(prof::SpanKind::MigrationEpoch, 0, 0,
                       prof::noTier);
    profiler.beginSpan(prof::SpanKind::BatchCopy, 10, 0, prof::noTier);
    profiler.endSpan(20);
    profiler.endSpan(30);
    const AuditResult r = check::auditProf(profiler);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures.front().describe());
    EXPECT_GT(r.checks, 0u);
}

TEST(ProfAudit, LeakedSpanIsProf)
{
    // The corruption: a span opened by hand and never closed — the
    // shape a thrown exception skipping a non-RAII end would leave.
    prof::Profiler profiler;
    profiler.beginSpan(prof::SpanKind::ScanPass, 0, 0, prof::noTier);

    const AuditResult r = check::auditProf(profiler);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(countKind(r, CheckKind::Prof), 1u);
    expectCheckFailure(CheckKind::Prof,
                       [&] { check::enforce(check::auditProf(profiler)); });
}

// --- enforce() and the audit daemon ----------------------------------

TEST(Enforce, CleanResultIsNoop)
{
    check::AuditResult r;
    r.checks = 10;
    check::enforce(r); // must not throw or abort
    SUCCEED();
}

TEST(Enforce, ReportsAllAndThrowsFirst)
{
    check::AuditResult r;
    r.addFailure(CheckKind::Lru, 1, "test", "first");
    r.addFailure(CheckKind::P2m, 2, "test", "second");

    const std::uint64_t before = check::failuresReported();
    check::ScopedThrowMode throw_mode;
    try {
        check::enforce(r);
        FAIL() << "enforce() on a dirty result did not fail";
    } catch (const CheckError &e) {
        EXPECT_EQ(e.kind(), CheckKind::Lru);
        EXPECT_EQ(e.failure().subject, 1u);
    }
    // Both failures went through report(), not just the thrown one.
    EXPECT_EQ(check::failuresReported(), before + 2);
}

TEST_F(P2mAuditFixture, DaemonAuditsPeriodically)
{
    check::AuditDaemon daemon(*hypervisor, guest->events(),
                              sim::milliseconds(1));
    daemon.start();
    guest->events().runUntil(sim::milliseconds(5));
    EXPECT_GE(daemon.auditsRun(), 4u);
    EXPECT_GT(daemon.checksRun(), 0u);
    EXPECT_EQ(daemon.failuresFound(), 0u);
}

TEST_F(P2mAuditFixture, DaemonSurfacesSeededCorruption)
{
    check::AuditDaemon daemon(*hypervisor, guest->events(),
                              sim::milliseconds(1));
    daemon.setEnforce(false); // collect, don't terminate
    daemon.start();

    vm->p2m().clear(guest->node(0).base());
    guest->events().runUntil(sim::milliseconds(2));
    EXPECT_GT(daemon.failuresFound(), 0u);
}

} // namespace
