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
