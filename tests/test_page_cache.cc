/**
 * @file
 * PageCache: hit/miss behavior, read-ahead, write dirtying,
 * write-back, eviction, and tier remapping, plus a pinned fingerprint
 * of the cache and allocator state after a scripted churn under
 * FastMem pressure.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "sim/rng.hh"
#include "test_helpers.hh"

namespace {

using namespace hos;
using namespace hos::guestos;
using test::Fnv;

struct CacheFixture : ::testing::Test
{
    std::unique_ptr<GuestKernel> kernel = test::standaloneGuest();
    PageCache *pc = nullptr;

    void
    SetUp() override
    {
        pc = &kernel->pageCache();
    }
};

TEST_F(CacheFixture, ColdReadMissesWarmReadHits)
{
    const FileId f = pc->createFile(16 * mem::mib);
    auto r1 = pc->read(f, 0, 64 * mem::kib);
    EXPECT_GT(r1.pages_missed, 0u);
    EXPECT_GT(r1.disk_time, 0u);

    auto r2 = pc->read(f, 0, 64 * mem::kib);
    EXPECT_EQ(r2.pages_missed, 0u);
    EXPECT_EQ(r2.disk_time, 0u);
    EXPECT_EQ(r2.pages.size(), 16u);
}

TEST_F(CacheFixture, SequentialReadsTriggerReadAhead)
{
    const FileId f = pc->createFile(16 * mem::mib);
    auto r1 = pc->read(f, 0, 4 * mem::kib);
    // First read is not sequential; second, contiguous one is and
    // pulls the read-ahead window.
    auto r2 = pc->read(f, 4 * mem::kib, 4 * mem::kib);
    EXPECT_GT(r2.pages.size(), 1u) << "read-ahead extended the fetch";
    // The requested page now hits; read-ahead may prefetch further.
    auto r3 = pc->read(f, 8 * mem::kib, 4 * mem::kib);
    EXPECT_FALSE(r3.pages.empty());
    EXPECT_LE(r3.pages_missed, r3.pages.size() - 1);
}

TEST_F(CacheFixture, WriteDirtiesAndWritebackCleans)
{
    const FileId f = pc->createFile(mem::mib);
    pc->write(f, 0, 32 * mem::kib);
    EXPECT_EQ(pc->dirtyPages(), 8u);

    const auto t = pc->writeback(1000);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(pc->dirtyPages(), 0u);
    EXPECT_EQ(pc->writeback(1000), 0u) << "nothing left to write";
}

TEST_F(CacheFixture, WriteExtendsFile)
{
    const FileId f = pc->createFile(0);
    pc->write(f, 0, 10 * mem::kib);
    EXPECT_EQ(pc->fileSize(f), 10 * mem::kib);
}

TEST_F(CacheFixture, EvictRefusesDirtyAcceptsClean)
{
    const FileId f = pc->createFile(mem::mib);
    auto w = pc->write(f, 0, 4 * mem::kib);
    ASSERT_EQ(w.pages.size(), 1u);
    const Gpfn pfn = w.pages[0];
    EXPECT_FALSE(pc->evictPage(pfn)) << "dirty pages stay";
    pc->writeback(10);
    EXPECT_TRUE(pc->evictPage(pfn));
    EXPECT_FALSE(pc->owns(pfn));
    EXPECT_FALSE(kernel->pageMeta(pfn).allocated());
}

TEST_F(CacheFixture, MapPageSharesWithBufferedPath)
{
    const FileId f = pc->createFile(mem::mib);
    sim::Duration io = 0;
    const Gpfn a = pc->mapPage(f, 0, MemHint::None, io);
    EXPECT_GT(io, 0u);
    auto r = pc->read(f, 0, 4 * mem::kib);
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], a);
}

TEST_F(CacheFixture, RemapPageMovesMapping)
{
    const FileId f = pc->createFile(mem::mib);
    auto r = pc->read(f, 0, 4 * mem::kib);
    const Gpfn old_pfn = r.pages[0];

    auto *slow = kernel->nodeFor(mem::MemType::SlowMem);
    const Gpfn new_pfn =
        kernel->allocPageOnNode(slow->id(), PageType::PageCache);
    pc->remapPage(old_pfn, new_pfn);
    EXPECT_FALSE(pc->owns(old_pfn));
    EXPECT_TRUE(pc->owns(new_pfn));

    auto again = pc->read(f, 0, 4 * mem::kib);
    EXPECT_EQ(again.pages_missed, 0u);
    EXPECT_EQ(again.pages[0], new_pfn);
}

TEST_F(CacheFixture, RemapCarriesDirtyState)
{
    const FileId f = pc->createFile(mem::mib);
    auto w = pc->write(f, 0, 4 * mem::kib);
    const Gpfn old_pfn = w.pages[0];
    auto *slow = kernel->nodeFor(mem::MemType::SlowMem);
    const Gpfn new_pfn =
        kernel->allocPageOnNode(slow->id(), PageType::PageCache);
    pc->remapPage(old_pfn, new_pfn);
    EXPECT_TRUE(kernel->pageMeta(new_pfn).dirty());
    EXPECT_EQ(pc->dirtyPages(), 1u);
    pc->writeback(10);
    EXPECT_FALSE(kernel->pageMeta(new_pfn).dirty());
}

TEST_F(CacheFixture, StatsTrackHitsAndMisses)
{
    const FileId f = pc->createFile(mem::mib);
    pc->read(f, 0, 8 * mem::kib);
    const auto misses = pc->misses();
    pc->read(f, 0, 8 * mem::kib);
    EXPECT_EQ(pc->misses(), misses);
    EXPECT_GT(pc->hits(), 0u);
}

/** A small guest whose 1 MiB of FastMem runs dry under cache churn. */
std::unique_ptr<GuestKernel>
pressureGuest()
{
    AllocConfig alloc = heapIoSlabOdConfig();
    alloc.active_reclaim = true;
    auto k = test::standaloneGuest(1 * mem::mib, 6 * mem::mib, alloc);
    k->events().runUntil(sim::milliseconds(1)); // reclaim needs now > 0
    return k;
}

void
addResult(Fnv &f, const IoResult &r)
{
    f.add(r.disk_time);
    f.add(r.pages_touched);
    f.add(r.pages_missed);
    f.add(r.pages.size());
    for (Gpfn pfn : r.pages)
        f.add(pfn);
}

/**
 * The page cache's state: each file's index in page order, every
 * page's (file, index, dirty, under-I/O), the dirty FIFO, the counts,
 * the LRU, buddy and per-CPU lists in list order, and the
 * allocator's next RNG draw.
 */
std::uint64_t
cacheFingerprint(GuestKernel &k, FileId num_files)
{
    Fnv f;
    PageCache &pc = k.pageCache();
    PageArray &pages = k.pages();
    std::map<Gpfn, std::pair<FileId, std::uint64_t>> owner;
    for (FileId file = 0; file < num_files; ++file) {
        f.add(file);
        pc.forEachCached(file, [&](std::uint64_t idx, Gpfn pfn) {
            f.add(idx);
            f.add(pfn);
            owner[pfn] = {file, idx};
        });
    }
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        const PageRef p = pages.page(pfn);
        const auto it = owner.find(pfn);
        f.add(it == owner.end() ? noFile : it->second.first);
        f.add(it == owner.end() ? 0 : it->second.second);
        f.add(static_cast<std::uint64_t>(p.dirty()) |
              static_cast<std::uint64_t>(p.under_io()) << 1 |
              static_cast<std::uint64_t>(p.allocated()) << 2 |
              static_cast<std::uint64_t>(p.type()) << 8 |
              static_cast<std::uint64_t>(p.lru()) << 16);
    }
    f.add(pc.dirtyQueue().size());
    for (Gpfn pfn : pc.dirtyQueue())
        f.add(pfn);
    f.add(pc.hits());
    f.add(pc.misses());
    f.add(pc.cachedPages());
    f.add(pc.dirtyPages());
    for (unsigned nid = 0; nid < k.numNodes(); ++nid) {
        NumaNode &node = k.node(nid);
        for (std::size_t zi = 0; zi < node.numZones(); ++zi) {
            Zone &z = node.zone(zi);
            f.add(z.freePages());
            for (unsigned o = 0; o < BuddyAllocator::maxOrder; ++o)
                f.addList(z.buddy().freeList(o), pages);
            f.addList(z.lru().activeList(), pages);
            f.addList(z.lru().inactiveList(), pages);
        }
        for (unsigned cpu = 0; cpu < k.percpu().cpus(); ++cpu)
            f.addList(k.percpu().cacheList(cpu, nid), pages);
    }
    sim::Rng placement = k.allocator().rng();
    f.add(placement.next());
    f.add(k.allocator().totalRequests());
    f.add(k.allocator().totalFastMisses());
    return f.h;
}

TEST(PageCacheState, ChurnMatchesPinnedFingerprint)
{
    auto k = pressureGuest();
    PageCache &pc = k->pageCache();
    sim::Rng rng(7);
    Fnv f;

    const FileId seq = pc.createFile(3 * mem::mib);
    const FileId rnd = pc.createFile(2 * mem::mib);
    const FileId wr = pc.createFile(mem::mib);
    const FileId mm = pc.createFile(mem::mib);

    std::uint64_t seq_off = 0;
    std::uint64_t read_ahead = 0;
    std::uint64_t evicted = 0;
    std::uint64_t migrated = 0;
    sim::Duration written = 0;
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 4; ++i) { // sequential: read-ahead
            const IoResult r = pc.read(seq, seq_off, 32 * mem::kib);
            read_ahead += r.pages_touched > 8;
            addResult(f, r);
            seq_off = (seq_off + 32 * mem::kib) % (3 * mem::mib);
        }
        for (int i = 0; i < 4; ++i) { // random
            addResult(f, pc.read(rnd, rng.uniformInt(512) * mem::pageSize,
                                 8 * mem::kib));
        }
        addResult(f, pc.write(wr, rng.uniformInt(240) * mem::pageSize,
                              16 * mem::kib));
        for (int i = 0; i < 4; ++i) {
            sim::Duration io = 0;
            f.add(pc.mapPage(mm, rng.uniformInt(256) * mem::pageSize,
                             MemHint::None, io));
            f.add(io);
        }
        if (round % 3 == 2) {
            const sim::Duration t = pc.writeback(24);
            written += t;
            f.add(t);
        }
        if (round % 4 == 1) // demotions remap cache pages
            f.add(k->heteroLru().reclaimFastMem(64));
        if (round % 4 == 3) { // evictions
            const std::uint64_t freed = k->heteroLru().directReclaim(96);
            evicted += freed;
            f.add(freed);
        }
        if (round % 5 == 4) { // promotions remap them back
            std::vector<Gpfn> slow;
            pc.forEachCached(rnd, [&](std::uint64_t, Gpfn pfn) {
                if (k->pageMeta(pfn).mem_type() == mem::MemType::SlowMem)
                    slow.push_back(pfn);
            });
            slow.resize(std::min<std::size_t>(slow.size(), 16));
            const auto out =
                k->migrator().migratePages(slow, mem::MemType::FastMem);
            migrated += out.migrated;
            f.add(out.migrated);
        }
    }

    // Fill the guest with pinned anon pages; the allocator's direct
    // reclaim drains the clean cache on the way.
    std::vector<Gpfn> held;
    AllocRequest anon;
    for (Gpfn pfn; (pfn = k->allocPage(anon)) != invalidGpfn;)
        held.push_back(pfn);
    f.add(held.size());
    // Out of memory: the read is served from disk, uncached.
    const IoResult oom = pc.read(rnd, 0, 64 * mem::kib);
    addResult(f, oom);
    // A little memory back: the fill caches a prefix and goes on
    // uncached once the allocator fails again.
    for (int i = 0; i < 6; ++i) {
        k->freePage(held.back());
        held.pop_back();
    }
    const IoResult partial = pc.read(rnd, mem::mib, 64 * mem::kib);
    addResult(f, partial);
    addResult(f, pc.write(wr, 0, 16 * mem::kib));

    // The script must reach every branch it exists to pin.
    EXPECT_GT(read_ahead, 0u);
    EXPECT_GT(written, 0u);
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(migrated, 0u);
    EXPECT_GT(k->heteroLru().stats().demoted_cache, 0u);
    EXPECT_TRUE(oom.pages.empty());
    EXPECT_EQ(oom.pages_missed, oom.pages_touched);
    EXPECT_GT(partial.pages.size(), 0u);
    EXPECT_LT(partial.pages.size(), partial.pages_touched);

    f.add(cacheFingerprint(*k, 4));
    // Captured on the per-page fill with the hash-map index.
    EXPECT_EQ(f.h, 0x8dc702b627aae2eeull) << std::hex << f.h;
}

/** Each filled page of `r` is cached at its index; the rest are not. */
void
expectFillIndexed(PageCache &pc, FileId file, const IoResult &r)
{
    std::size_t next = 0;
    for (std::uint64_t idx = 0; idx < r.pages_touched; ++idx) {
        const Gpfn pfn = pc.lookup(file, idx);
        if (pfn == invalidGpfn)
            continue; // served uncached
        ASSERT_LT(next, r.pages.size()) << idx;
        EXPECT_EQ(pfn, r.pages[next]) << idx;
        EXPECT_TRUE(pc.owns(pfn)) << idx;
        ++next;
    }
    EXPECT_EQ(next, r.pages.size());
}

TEST(PageCacheState, FastMemReclaimMidFillSparesTheFill)
{
    // A cold 2 MiB read into 1 MiB of FastMem: the allocator runs
    // HeteroOS-LRU reclaim once FastMem is under pressure, when the
    // inactive FastMem pages are this fill's own.
    auto k = pressureGuest();
    PageCache &pc = k->pageCache();
    const FileId file = pc.createFile(4 * mem::mib);
    const std::uint64_t passes = k->heteroLru().stats().reclaim_passes;
    const IoResult r = pc.read(file, 0, 2 * mem::mib);
    EXPECT_GT(k->heteroLru().stats().reclaim_passes, passes)
        << "reclaim ran mid-fill";
    EXPECT_EQ(k->heteroLru().stats().demoted_cache, 0u);
    EXPECT_EQ(r.pages.size(), 512u);
    expectFillIndexed(pc, file, r);
}

TEST(PageCacheState, DirectReclaimMidFillSparesTheFill)
{
    // Everything but 100 clean cache pages is pinned. The fill's first
    // allocation reclaims those; once they are used up, the next
    // failure runs direct reclaim again, with only this fill's pages
    // left on the LRU.
    auto k = pressureGuest();
    PageCache &pc = k->pageCache();
    const FileId old_file = pc.createFile(mem::mib);
    const FileId fresh = pc.createFile(mem::mib);
    pc.read(old_file, 0, 100 * mem::pageSize);
    ASSERT_EQ(pc.cachedPages(), 100u);
    std::vector<Gpfn> held;
    for (unsigned nid = 0; nid < k->numNodes(); ++nid) {
        for (Gpfn pfn; (pfn = k->allocPageOnNode(nid, PageType::Anon)) !=
                       invalidGpfn;) {
            held.push_back(pfn);
        }
    }

    const IoResult r = pc.read(fresh, 0, 200 * mem::pageSize);
    EXPECT_EQ(r.pages_missed, 200u);
    EXPECT_GT(r.pages.size(), 0u);
    EXPECT_LT(r.pages.size(), 200u) << "the fill ran out of memory";
    EXPECT_EQ(pc.cachedPages(), r.pages.size()) << "old pages reclaimed";
    expectFillIndexed(pc, fresh, r);
}

} // namespace
