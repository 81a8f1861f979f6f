#include "check/page_state.hh"

#include <string>

namespace hos::check {

using guestos::PageRef;
using guestos::PageType;

namespace {

std::string
typeName(PageType t)
{
    return guestos::pageTypeName(t);
}

} // namespace

void
failAlloc(const PageRef &p, PageType to, const char *where)
{
    if (!p.allocated()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "allocator handed out a page not marked allocated");
    }
    if (p.type() != PageType::Free) {
        fail(CheckKind::PageState, p.pfn(), where,
             "allocating a page still typed " + typeName(p.type()) +
                 " (double allocation?)");
    }
    if (p.lru() != guestos::LruState::None) {
        fail(CheckKind::PageState, p.pfn(), where,
             "allocating a page still on an LRU list");
    }
    if (p.on_list() != guestos::listNone) {
        fail(CheckKind::PageState, p.pfn(), where,
             "allocating a page still linked on list id " +
                 std::to_string(p.list_id()) + " (tag " +
                 std::to_string(p.on_list()) + ")");
    }
    if (p.in_buddy()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "allocating a page still heading a buddy free block");
    }
    if (!legalTypeTransition(PageType::Free, to)) {
        fail(CheckKind::PageState, p.pfn(), where,
             "illegal transition free -> " + typeName(to));
    }
}

void
failFree(const PageRef &p, const char *where)
{
    if (!p.allocated()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "double free: page is not allocated");
    }
    if (p.in_buddy()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "freeing a page already heading a buddy free block");
    }
    if (p.lru() != guestos::LruState::None) {
        fail(CheckKind::PageState, p.pfn(), where,
             "freeing a page still on an LRU list");
    }
    if (p.on_list() != guestos::listNone) {
        fail(CheckKind::PageState, p.pfn(), where,
             "freeing a page still linked on list id " +
                 std::to_string(p.list_id()) + " (tag " +
                 std::to_string(p.on_list()) + ")");
    }
    if (p.under_io()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "freeing a page with I/O in flight");
    }
    if (p.cache_file() != guestos::noFile) {
        fail(CheckKind::PageState, p.pfn(), where,
             "freeing a page still indexed as page " +
                 std::to_string(p.cache_index()) + " of file " +
                 std::to_string(p.cache_file()));
    }
}

void
validateTypeChange(const PageRef &p, PageType to, const char *where)
{
    if (!legalTypeTransition(p.type(), to)) {
        fail(CheckKind::PageState, p.pfn(), where,
             "illegal retype " + typeName(p.type()) + " -> " +
                 typeName(to) + " of a live page");
    }
}

void
validateMigration(const PageRef &p, mem::MemType dst, const char *where)
{
    if (!p.allocated()) {
        fail(CheckKind::PageState, p.pfn(), where,
             "migrating a page that is not allocated");
    }
    if (guestos::isMigrationException(p.type())) {
        fail(CheckKind::Placement, p.pfn(), where,
             "migration-exception page (" + typeName(p.type()) +
                 ") selected to move to " + mem::memTypeName(dst));
    }
    if (p.unevictable()) {
        fail(CheckKind::Placement, p.pfn(), where,
             "migrating a pinned (unevictable) page");
    }
    if (p.under_io()) {
        fail(CheckKind::Placement, p.pfn(), where,
             "migrating a page with I/O in flight");
    }
}

void
validatePlacement(const PageRef &p, const char *where)
{
    // NetBuf is exempt: skbuffs are slab-backed and slab pages are
    // pinned by design; only the LRU-managed I/O cache types must
    // stay evictable in the scarce tier.
    if ((p.type() == PageType::PageCache ||
         p.type() == PageType::BufferCache) &&
        p.unevictable() && p.mem_type() == mem::MemType::FastMem) {
        fail(CheckKind::Placement, p.pfn(), where,
             "short-lived I/O page (" + typeName(p.type()) +
                 ") pinned in FastMem");
    }
}

void
failLruInsert(const PageRef &p, const char *where)
{
    if (!p.allocated()) {
        fail(CheckKind::Lru, p.pfn(), where,
             "inserting an unallocated page into an LRU");
    }
    if (!lruManagedType(p.type())) {
        fail(CheckKind::Lru, p.pfn(), where,
             "inserting a page of non-LRU type " + typeName(p.type()) +
                 " into an LRU");
    }
    if (p.lru() != guestos::LruState::None) {
        fail(CheckKind::Lru, p.pfn(), where,
             "inserting a page already on an LRU");
    }
}

} // namespace hos::check
