/**
 * @file
 * Virtual memory areas.
 *
 * VMAs are the guest-OS structure HeteroOS mines for placement
 * information: the tracking list the guest exports to the VMM
 * (Section 4.1) is a list of VMA address ranges, and mmap() grows an
 * extra flag letting applications *optionally* request FastMem or
 * SlowMem explicitly (Section 3.1) — HeteroOS itself never depends on
 * that flag.
 */

#ifndef HOS_GUESTOS_VMA_HH
#define HOS_GUESTOS_VMA_HH

#include <cstdint>
#include <string>

#include "guestos/page.hh"
#include "guestos/page_types.hh"
#include "mem/mem_spec.hh"

namespace hos::guestos {

/** Kind of mapping a VMA describes. */
enum class VmaKind : std::uint8_t {
    Anon,   ///< anonymous (heap, stacks)
    File,   ///< file-backed, pages shared with the page cache
    NetBuf, ///< network buffer mapping (accounting convenience)
};

/** Optional application placement hint (the extended mmap flag). */
enum class MemHint : std::uint8_t {
    None = 0,  ///< let HeteroOS decide (the default, and the paper's focus)
    FastMem,   ///< MAP_FASTMEM
    SlowMem,   ///< MAP_SLOWMEM
};

/** One virtual memory area. */
struct Vma
{
    std::uint64_t start = 0;
    std::uint64_t length = 0;
    VmaKind kind = VmaKind::Anon;
    MemHint hint = MemHint::None;
    FileId file = noFile;
    std::uint64_t file_offset = 0; ///< bytes into the file at `start`
    std::string label;             ///< diagnostic tag ("heap", "shard")

    std::uint64_t end() const { return start + length; }
    std::uint64_t pages() const { return mem::bytesToPages(length); }

    bool contains(std::uint64_t va) const
    {
        return va >= start && va < end();
    }

    /** The page-use type pages of this VMA get. */
    PageType pageType() const
    {
        switch (kind) {
          case VmaKind::Anon:
            return PageType::Anon;
          case VmaKind::File:
            return PageType::PageCache;
          case VmaKind::NetBuf:
            return PageType::NetBuf;
        }
        return PageType::Anon;
    }
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_VMA_HH
