/**
 * @file
 * Page-use categories tracked by the guest OS.
 *
 * HeteroOS's central insight (Observation 3 / Principle 2) is that the
 * guest OS knows *what a page is for* — heap, I/O page cache, buffer
 * cache, slab, network buffer, page table — and that this information
 * should drive placement across memory tiers. These categories mirror
 * Figure 4 of the paper.
 */

#ifndef HOS_GUESTOS_PAGE_TYPES_HH
#define HOS_GUESTOS_PAGE_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace hos::guestos {

/** What a guest page is currently used for. */
enum class PageType : std::uint8_t {
    Free = 0,     ///< on a free list
    Anon,         ///< heap / anonymous mappings
    PageCache,    ///< file-backed I/O page cache
    BufferCache,  ///< filesystem buffer / journal blocks
    Slab,         ///< kernel slab (dentries, inodes, skbuff backing)
    NetBuf,       ///< network send/receive buffers (skbuff data)
    PageTable,    ///< page-table pages (exception-listed for migration)
    Dma,          ///< DMA-mapped pages (never migratable)
};

constexpr std::size_t numPageTypes = 8;

/** Printable name for a page type. */
constexpr const char *
pageTypeName(PageType t)
{
    switch (t) {
      case PageType::Free:
        return "free";
      case PageType::Anon:
        return "heap/anon";
      case PageType::PageCache:
        return "io-cache";
      case PageType::BufferCache:
        return "buffer-cache";
      case PageType::Slab:
        return "slab";
      case PageType::NetBuf:
        return "nw-buff";
      case PageType::PageTable:
        return "pagetable";
      case PageType::Dma:
        return "dma";
    }
    return "?";
}

/** Index helper for per-type arrays. */
constexpr std::size_t
pageTypeIndex(PageType t)
{
    return static_cast<std::size_t>(t);
}

/** A set of page types, one bit per PageType. */
using PageTypeMask = std::uint8_t;
static_assert(numPageTypes <= 8, "PageTypeMask holds one bit per type");

/** The one-type set {t}. */
constexpr PageTypeMask
pageTypeBit(PageType t)
{
    return static_cast<PageTypeMask>(1u << pageTypeIndex(t));
}

/** Page types the VMM must never migrate (paper §4.1 exception list). */
constexpr bool
isMigrationException(PageType t)
{
    return t == PageType::PageTable || t == PageType::Dma;
}

/**
 * Short-lived I/O page types: released once the I/O completes, so
 * tracking them for hotness is wasted work (exception list) and
 * HeteroOS-LRU evicts them from FastMem eagerly after I/O.
 */
constexpr bool
isShortLivedIo(PageType t)
{
    return t == PageType::PageCache || t == PageType::BufferCache ||
           t == PageType::NetBuf;
}

} // namespace hos::guestos

#endif // HOS_GUESTOS_PAGE_TYPES_HH
