/**
 * @file
 * Page-state machine validator.
 *
 * Encodes the legal PageType × location × list-membership transitions
 * of the guest OS and checks them at the moment a page changes hands:
 *
 *  - A page's use type only changes through Free: Free → Anon/Slab/…
 *    at allocation, X → Free at release. Retyping a live page (Anon
 *    page suddenly claiming to be Slab) is always a bug — there is no
 *    kernel path that does it legitimately.
 *  - Migration-exception types (paper §4.1: PageTable, Dma) never
 *    move tiers, and pinned or in-flight-I/O pages never migrate.
 *  - I/O cache pages (PageCache/BufferCache) are never pinned
 *    (unevictable) in FastMem — they are released right after the
 *    I/O completes, so pinning them in the scarce tier means the
 *    eager-eviction design broke. (NetBuf is exempt: skbuffs are
 *    slab-backed and slab pages are pinned by design.)
 *  - Only LRU-managed types (Anon + the I/O types) may enter an LRU.
 *
 * Validators fail via check::fail with kind PageState / Placement /
 * Lru. Call sites wrap them in HOS_CHECK_CHEAP so off-level builds
 * compile them away entirely.
 */

#ifndef HOS_CHECK_PAGE_STATE_HH
#define HOS_CHECK_PAGE_STATE_HH

#include "check/check.hh"
#include "guestos/page.hh"
#include "mem/mem_spec.hh"

namespace hos::check {

/** True when a live page of type `from` may become `to` directly. */
constexpr bool
legalTypeTransition(guestos::PageType from, guestos::PageType to)
{
    return from == to || from == guestos::PageType::Free ||
           to == guestos::PageType::Free;
}

/** Types that may sit on a zone LRU (reclaimable user/IO memory). */
constexpr bool
lruManagedType(guestos::PageType t)
{
    return t == guestos::PageType::Anon ||
           t == guestos::PageType::PageCache ||
           t == guestos::PageType::BufferCache ||
           t == guestos::PageType::NetBuf;
}

// The three validators below run on every page the allocator hands
// out or takes back, so their predicates are inline; the diagnosis
// and report (the fail* functions) stay out of line.

/** Diagnose and report a validateAlloc violation. */
void failAlloc(const guestos::PageRef &p, guestos::PageType to,
               const char *where);
/** Diagnose and report a validateFree violation. */
void failFree(const guestos::PageRef &p, const char *where);
/** Diagnose and report a validateLruInsert violation. */
void failLruInsert(const guestos::PageRef &p, const char *where);

/** A page leaving the allocator fast path, about to become `to`. */
inline void
validateAlloc(const guestos::PageRef &p, guestos::PageType to,
              const char *where)
{
    if (!p.allocated() || p.type() != guestos::PageType::Free ||
        p.lru() != guestos::LruState::None ||
        p.on_list() != guestos::listNone || p.in_buddy() ||
        !legalTypeTransition(guestos::PageType::Free, to)) {
        failAlloc(p, to, where);
    }
}

/**
 * A page entering the free path (must be live, off every list and out
 * of the page-cache index).
 */
inline void
validateFree(const guestos::PageRef &p, const char *where)
{
    if (!p.allocated() || p.in_buddy() ||
        p.lru() != guestos::LruState::None ||
        p.on_list() != guestos::listNone || p.under_io() ||
        p.cache_file() != guestos::noFile) {
        failFree(p, where);
    }
}

/** An in-place retype request (only legal through Free). */
void validateTypeChange(const guestos::PageRef &p, guestos::PageType to,
                        const char *where);

/** A page selected to migrate to tier `dst`. */
void validateMigration(const guestos::PageRef &p, mem::MemType dst,
                       const char *where);

/** A page's type/pin/tier combination after placement decisions. */
void validatePlacement(const guestos::PageRef &p, const char *where);

/** A page about to be inserted into a zone LRU. */
inline void
validateLruInsert(const guestos::PageRef &p, const char *where)
{
    if (!p.allocated() || !lruManagedType(p.type()) ||
        p.lru() != guestos::LruState::None) {
        failLruInsert(p, where);
    }
}

} // namespace hos::check

#endif // HOS_CHECK_PAGE_STATE_HH
