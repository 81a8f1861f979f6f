/**
 * @file
 * Shared fixtures for guest-OS and system tests.
 */

#ifndef HOS_TESTS_TEST_HELPERS_HH
#define HOS_TESTS_TEST_HELPERS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "guestos/kernel.hh"
#include "guestos/page_table.hh"

namespace hos::test {

/**
 * String-aware JSON well-formedness check: every brace/bracket opened
 * outside a string closes in order, and the document ends balanced.
 * Not a full parser — enough to catch exporter bookkeeping bugs.
 */
inline bool
jsonWellFormed(const std::string &s)
{
    std::string stack;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_string && stack.empty();
}

/** FNV-1a over 64-bit words, for pinned state fingerprints. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }

    /** The list's size, then its members from head to tail. */
    void
    addList(const guestos::PageList &list, guestos::PageArray &pages)
    {
        add(list.size());
        for (guestos::Gpfn pfn = list.head(); pfn != guestos::invalidGpfn;
             pfn = pages.page(pfn).link_next()) {
            add(pfn);
        }
    }
};

/**
 * Hash of a guest kernel's allocator state: every list the allocator
 * keeps (buddy free lists, per-CPU caches, LRUs) in list order, the
 * page columns, the page tables and the next placement RNG draw.
 */
inline std::uint64_t
kernelFingerprint(guestos::GuestKernel &k)
{
    Fnv f;
    guestos::PageArray &pages = k.pages();
    for (unsigned nid = 0; nid < k.numNodes(); ++nid) {
        guestos::NumaNode &node = k.node(nid);
        for (std::size_t zi = 0; zi < node.numZones(); ++zi) {
            guestos::Zone &z = node.zone(zi);
            f.add(z.freePages());
            f.add(z.managedPages());
            for (unsigned o = 0; o < guestos::BuddyAllocator::maxOrder; ++o)
                f.addList(z.buddy().freeList(o), pages);
            f.addList(z.lru().activeList(), pages);
            f.addList(z.lru().inactiveList(), pages);
        }
        for (unsigned cpu = 0; cpu < k.percpu().cpus(); ++cpu)
            f.addList(k.percpu().cacheList(cpu, nid), pages);
    }
    f.add(k.pageTablePages());
    for (guestos::Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        const guestos::PageRef p = pages.page(pfn);
        f.add(static_cast<std::uint64_t>(p.allocated()) |
              static_cast<std::uint64_t>(p.populated()) << 1 |
              static_cast<std::uint64_t>(p.pte_accessed()) << 2 |
              static_cast<std::uint64_t>(p.in_buddy()) << 3 |
              static_cast<std::uint64_t>(p.referenced()) << 4 |
              static_cast<std::uint64_t>(p.dirty()) << 5 |
              static_cast<std::uint64_t>(p.under_io()) << 6 |
              static_cast<std::uint64_t>(p.unevictable()) << 7 |
              static_cast<std::uint64_t>(p.buddy_order()) << 8 |
              static_cast<std::uint64_t>(p.type()) << 16 |
              static_cast<std::uint64_t>(p.lru()) << 24 |
              static_cast<std::uint64_t>(p.list_id()) << 32);
        f.add(p.heat());
        f.add(p.last_touch());
        f.add(p.owner_process());
        f.add(p.vaddr());
        f.add(p.link_prev());
        f.add(p.link_next());
    }
    for (guestos::ProcessId pid = 0; k.hasProcess(pid); ++pid) {
        guestos::PageTable &pt = k.process(pid).pageTable();
        f.add(pt.mappedPages());
        f.add(pt.tableNodes());
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
    sim::Rng placement = k.allocator().rng();
    f.add(placement.next());
    f.add(k.allocator().totalRequests());
    f.add(k.allocator().totalFastMisses());
    return f.h;
}

/**
 * A guest kernel with its nodes fully populated directly (no VMM) —
 * the standalone-OS configuration Section 4.3 mentions ("easily
 * applied to non-virtualized systems").
 */
inline std::unique_ptr<guestos::GuestKernel>
standaloneGuest(std::uint64_t fast_bytes = 64 * mem::mib,
                std::uint64_t slow_bytes = 256 * mem::mib,
                guestos::AllocConfig alloc = guestos::heapIoSlabOdConfig(),
                bool lru_enabled = true)
{
    guestos::GuestConfig cfg;
    cfg.name = "test-guest";
    cfg.cpus = 2;
    cfg.alloc = alloc;
    cfg.alloc.balloon_on_pressure = false; // no VMM attached
    cfg.lru.enabled = lru_enabled;
    cfg.nodes.clear();
    if (fast_bytes > 0) {
        cfg.nodes.push_back(
            {mem::MemType::FastMem, fast_bytes, fast_bytes});
    }
    cfg.nodes.push_back({mem::MemType::SlowMem, slow_bytes, slow_bytes});

    auto kernel = std::make_unique<guestos::GuestKernel>(cfg);
    for (unsigned nid = 0; nid < kernel->numNodes(); ++nid) {
        auto &node = kernel->node(nid);
        auto gpfns =
            kernel->takeUnpopulatedGpfns(nid, node.spanPages());
        for (guestos::Gpfn pfn : gpfns) {
            kernel->pageMeta(pfn).setPopulated(true);
            node.zoneOf(pfn).buddy().addFreeRange(pfn, 1);
        }
        for (std::size_t zi = 0; zi < node.numZones(); ++zi)
            node.zone(zi).updateWatermarks();
    }
    return kernel;
}

} // namespace hos::test

#endif // HOS_TESTS_TEST_HELPERS_HH
