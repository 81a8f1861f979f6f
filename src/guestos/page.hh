/**
 * @file
 * Guest page metadata (structure-of-arrays PageArray) and intrusive
 * page lists.
 *
 * The guest OS keeps per-gpfn metadata like Linux's struct page /
 * mem_map, but stored column-wise instead of as an array of 80-byte
 * descriptors, so the passes that dominate simulation time touch only
 * the bytes they need:
 *
 *  - scan bits (pte_accessed / allocated / populated) live in packed
 *    one-bit-per-page bitmaps — the full-VM hotness sweep and the
 *    census read them a 64-page word at a time;
 *  - hotness state (heat, last_touch) lives in dense arrays the
 *    trackers stream through, heat padded to whole words so a sweep
 *    updates a word's 64 heat lanes in one masked loop;
 *  - warm bookkeeping (list links, node/type identity, LRU flags)
 *    packs into a 24-byte Meta record;
 *  - the cold reverse map (owner process and vaddr, or file and file
 *    page index for page-cache pages) sits in its own column so
 *    allocator and LRU traffic never drags it into cache.
 *
 * Call sites access pages through PageRef, a 16-byte value handle
 * whose accessors deliberately mirror the retired struct Page field
 * names (p.heat() where p.heat was read, p.setHeat() where it was
 * written), keeping migrated code recognizable. Writes to SoA-owned
 * fields outside the PageRef/setAllocated accessors are banned by the
 * hos-analyze soa-field-write rule.
 *
 * PageList is an intrusive doubly-linked list over the link columns
 * using index links, so LRU and free lists add no per-node
 * allocations. Every list instance registers a per-PageArray id and
 * pages record the id (not just the tag kind) of the list holding
 * them, making membership checks exact even across same-tag sibling
 * lists (per-zone LRUs).
 */

#ifndef HOS_GUESTOS_PAGE_HH
#define HOS_GUESTOS_PAGE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "guestos/page_types.hh"
#include "mem/mem_spec.hh"
#include "sim/log.hh"
#include "sim/time.hh"

namespace hos::guestos {

/** Guest page frame number. */
using Gpfn = std::uint64_t;
constexpr Gpfn invalidGpfn = ~Gpfn(0);

/** Identifies a guest process. */
using ProcessId = std::uint32_t;
constexpr ProcessId noProcess = ~ProcessId(0);

/** Identifies a simulated file in the guest filesystem. */
using FileId = std::uint32_t;
constexpr FileId noFile = ~FileId(0);

/** Which LRU list a page sits on. */
enum class LruState : std::uint8_t {
    None = 0,
    Inactive,
    Active,
};

/** Identifier tags for list ownership kinds (debug reporting). */
enum ListTag : std::uint8_t {
    listNone = 0,
    listBuddy,
    listPerCpu,
    listLruActive,
    listLruInactive,
    listIo,
    listOther,
};

/** Per-PageArray list instance id; 0 = not on any list. */
using ListId = std::uint16_t;
constexpr ListId noListId = 0;

class PageArray;
class PageRef;

/**
 * Intrusive doubly-linked list of page descriptors.
 *
 * Handles live in the PageArray's link columns; the list stores
 * head/tail indices and a count. Pages can be removed from the middle
 * in O(1), which LRU rotation and targeted eviction need. Each
 * instance carries a PageArray-unique id so membership and the
 * double-insertion asserts are exact per list, not per tag kind.
 */
class PageList
{
  public:
    PageList(PageArray &pages, ListTag tag);

    bool empty() const { return count_ == 0; }
    std::uint64_t size() const { return count_; }
    Gpfn head() const { return head_; }
    Gpfn tail() const { return tail_; }
    ListTag tag() const { return tag_; }
    ListId id() const { return id_; }

    /** Push to the front (most-recently-used end). */
    void pushFront(Gpfn pfn);
    /** Push to the back (least-recently-used end). */
    void pushBack(Gpfn pfn);
    /** Remove an arbitrary member. */
    void remove(Gpfn pfn);
    /** Pop from the front; invalidGpfn when empty. */
    Gpfn popFront();
    /** Pop from the back; invalidGpfn when empty. */
    Gpfn popBack();
    /** Move an existing member to the front. */
    void moveToFront(Gpfn pfn);

    /** True if the page is currently on this list (exact, by id). */
    bool contains(Gpfn pfn) const;

  private:
    PageArray *pages_;
    ListTag tag_;
    ListId id_;
    Gpfn head_ = invalidGpfn;
    Gpfn tail_ = invalidGpfn;
    std::uint64_t count_ = 0;
};

/**
 * The guest's mem_map in structure-of-arrays form: per-gpfn columns
 * plus per-node gpfn ranges.
 *
 * The bitmaps are also read a word at a time: the full-VM hotness
 * sweep takes a word's allocated bits as its visit mask, harvests the
 * access bits under it and updates the word's heat lanes, so a free
 * word costs one load; the chunk-granularity census the auditors
 * reconcile against is a popcount over the same words — no shadow
 * counters to maintain on the allocation fast path.
 */
class PageArray
{
  public:
    /** log2 pages per census chunk (4096 pages = 16 MiB). */
    static constexpr unsigned chunkShift = 12;
    static constexpr std::uint64_t chunkPages = std::uint64_t(1)
                                                << chunkShift;

    /** Consecutive pages of one guest NUMA node. */
    struct NodeSpan
    {
        std::uint64_t pages = 0;
        std::uint8_t numa_node = 0;
        mem::MemType mem_type = mem::MemType::SlowMem;
    };

    /** Pages of node 0, SlowMem. */
    explicit PageArray(std::uint64_t num_pages)
        : PageArray(std::vector<NodeSpan>{{num_pages, 0,
                                           mem::MemType::SlowMem}})
    {
    }

    /**
     * The spans back to back from gpfn 0, each page born with its
     * span's node identity.
     */
    explicit PageArray(const std::vector<NodeSpan> &spans);

    std::uint64_t size() const { return size_; }

    inline PageRef page(Gpfn pfn);
    inline const PageRef page(Gpfn pfn) const;

    /** Flip the allocated bit (the one PageRef-external SoA write). */
    void setAllocated(Gpfn pfn, bool v)
    {
        hos_assert(pfn < size_, "gpfn out of range");
        setBit(allocated_, pfn, v);
    }
    inline void setAllocated(const PageRef &p, bool v);

    /** Mark [first, first + n) populated, a bitmap word at a time. */
    void setPopulatedRange(Gpfn first, std::uint64_t n);

    // --- Word operations: gpfns [64w, 64w + 64) ----------------------
    //
    // Bits past size() in the last word are never set, and its heat
    // lanes past size() are padding nothing else reads.

    /** Allocated bits of word w. */
    std::uint64_t allocatedWord(std::uint64_t w) const
    {
        return allocated_[w];
    }
    /** Read the access bits of word w under `mask` and clear them. */
    std::uint64_t
    takeAccessed(std::uint64_t w, std::uint64_t mask)
    {
        const std::uint64_t taken = pte_accessed_[w] & mask;
        pte_accessed_[w] &= ~mask;
        return taken;
    }
    /** The 64 heat lanes of word w. */
    std::uint16_t *heatLanes(std::uint64_t w) { return &heat_[w << 6]; }

    std::uint64_t numChunks() const
    {
        return (size_ + chunkPages - 1) >> chunkShift;
    }
    /** Allocated pages in census chunk c (popcount over the bitmap). */
    std::uint32_t allocatedInChunk(std::uint64_t c) const;

    /**
     * Register a list instance; returns its id. Ids are handed out
     * sequentially per PageArray, so they are deterministic for a
     * fixed kernel construction order (never a global counter, which
     * would drift across runs in one process).
     */
    ListId registerList(ListTag tag);

    /** The tag kind a list id was registered with (0 = none). */
    ListTag listTag(ListId id) const
    {
        return list_tags_[id];
    }

  private:
    friend class PageRef;
    friend class PageList;

    /** Warm per-page bookkeeping: links, identity, allocator/LRU state. */
    struct Meta
    {
        Gpfn link_prev = invalidGpfn;
        Gpfn link_next = invalidGpfn;
        ListId list_id = noListId; ///< exact list holding the links
        std::uint8_t numa_node = 0;
        mem::MemType mem_type = mem::MemType::SlowMem;
        PageType type = PageType::Free;
        std::uint8_t buddy_order = 0; ///< order of the block headed here
        LruState lru = LruState::None;
        std::uint8_t flags = 0;
    };
    static_assert(sizeof(Meta) == 24, "warm column grew past 24 bytes");

    /**
     * Cold reverse map (single mapping; workloads don't share). Like
     * Linux's page->mapping/page->index, one slot serves both kinds
     * of page: an anon page keeps its user vaddr there, a page-cache
     * page (cache_file != noFile) its file page index. Cache pages
     * have no vaddr.
     */
    struct Rmap
    {
        ProcessId owner_process = noProcess;
        FileId cache_file = noFile; ///< the page cache's file, or none
        std::uint64_t vaddr = 0;    ///< or the file page index
    };
    static_assert(sizeof(Rmap) == 16, "cold column grew past 16 bytes");

    enum MetaFlag : std::uint8_t {
        flagInBuddy = 1u << 0,    ///< heads a free buddy block
        flagReferenced = 1u << 1, ///< software referenced bit
        flagDirty = 1u << 2,
        flagUnderIo = 1u << 3,    ///< I/O in flight; not reclaimable
        flagUnevictable = 1u << 4,
    };

    static bool
    bit(const std::vector<std::uint64_t> &m, Gpfn pfn)
    {
        return (m[pfn >> 6] >> (pfn & 63)) & 1u;
    }
    static void
    setBit(std::vector<std::uint64_t> &m, Gpfn pfn, bool v)
    {
        const std::uint64_t mask = std::uint64_t(1) << (pfn & 63);
        if (v)
            m[pfn >> 6] |= mask;
        else
            m[pfn >> 6] &= ~mask;
    }

    std::uint64_t size_;
    // Hot scan bits: one bit per page.
    std::vector<std::uint64_t> pte_accessed_;
    std::vector<std::uint64_t> allocated_;
    std::vector<std::uint64_t> populated_;
    // Hotness state the trackers stream through.
    std::vector<std::uint16_t> heat_;
    std::vector<sim::Tick> last_touch_;
    // Warm and cold columns.
    std::vector<Meta> meta_;
    std::vector<Rmap> rmap_;
    // List-id registry: id -> tag kind (id 0 reserved for "none").
    std::vector<ListTag> list_tags_;
};

/**
 * Value handle to one page's metadata: a (PageArray*, gpfn) pair with
 * accessors over the SoA columns. Getters keep the retired struct
 * Page field names; setters are the only sanctioned way to write
 * SoA-owned fields (plus PageArray::setAllocated for the allocated
 * bit, whose flips the census depends on).
 *
 * Read-only call sites hold `const PageRef` — setters are non-const
 * members, so constness still documents intent.
 */
class PageRef
{
  public:
    PageRef(PageArray &pa, Gpfn pfn) : pa_(&pa), pfn_(pfn) {}

    Gpfn pfn() const { return pfn_; }
    PageArray &array() const { return *pa_; }

    // Identity (fixed at boot).
    std::uint8_t numa_node() const { return meta().numa_node; }
    mem::MemType mem_type() const { return meta().mem_type; }
    void setMemType(mem::MemType t) { meta().mem_type = t; }

    // Allocation state.
    PageType type() const { return meta().type; }
    void setType(PageType t) { meta().type = t; }
    std::uint8_t buddy_order() const { return meta().buddy_order; }
    void setBuddyOrder(std::uint8_t o) { meta().buddy_order = o; }
    bool in_buddy() const { return flag(PageArray::flagInBuddy); }
    void setInBuddy(bool v) { setFlag(PageArray::flagInBuddy, v); }
    bool allocated() const
    {
        return PageArray::bit(pa_->allocated_, pfn_);
    }
    bool populated() const
    {
        return PageArray::bit(pa_->populated_, pfn_);
    }
    void setPopulated(bool v)
    {
        PageArray::setBit(pa_->populated_, pfn_, v);
    }

    // LRU / reclaim state.
    LruState lru() const { return meta().lru; }
    void setLru(LruState s) { meta().lru = s; }
    bool referenced() const { return flag(PageArray::flagReferenced); }
    void setReferenced(bool v)
    {
        setFlag(PageArray::flagReferenced, v);
    }
    bool dirty() const { return flag(PageArray::flagDirty); }
    void setDirty(bool v) { setFlag(PageArray::flagDirty, v); }
    bool under_io() const { return flag(PageArray::flagUnderIo); }
    void setUnderIo(bool v) { setFlag(PageArray::flagUnderIo, v); }
    bool unevictable() const
    {
        return flag(PageArray::flagUnevictable);
    }
    void setUnevictable(bool v)
    {
        setFlag(PageArray::flagUnevictable, v);
    }

    // Reverse map hint.
    ProcessId owner_process() const
    {
        return pa_->rmap_[pfn_].owner_process;
    }
    void setOwnerProcess(ProcessId p)
    {
        pa_->rmap_[pfn_].owner_process = p;
    }
    /** The user vaddr; 0 for a page-cache page, which has none. */
    std::uint64_t vaddr() const
    {
        const PageArray::Rmap &r = pa_->rmap_[pfn_];
        return r.cache_file == noFile ? r.vaddr : 0;
    }
    void setVaddr(std::uint64_t v) { pa_->rmap_[pfn_].vaddr = v; }

    // Page-cache index (Linux's page->mapping/page->index): written
    // by the PageCache only, and by fault injection in the check tests.
    /** The file caching this page; noFile when it is not cached. */
    FileId cache_file() const { return pa_->rmap_[pfn_].cache_file; }
    /** The page's index in cache_file() (meaningless when uncached). */
    std::uint64_t cache_index() const { return pa_->rmap_[pfn_].vaddr; }
    /** Index the page as page `index` of `file`; noFile clears it. */
    void setCacheFile(FileId file, std::uint64_t index)
    {
        PageArray::Rmap &r = pa_->rmap_[pfn_];
        r.cache_file = file;
        r.vaddr = index;
    }

    // Hotness ground truth for trackers to harvest.
    bool pte_accessed() const
    {
        return PageArray::bit(pa_->pte_accessed_, pfn_);
    }
    void setPteAccessed(bool v)
    {
        PageArray::setBit(pa_->pte_accessed_, pfn_, v);
    }
    std::uint16_t heat() const { return pa_->heat_[pfn_]; }
    void setHeat(std::uint16_t h) { pa_->heat_[pfn_] = h; }
    sim::Tick last_touch() const { return pa_->last_touch_[pfn_]; }
    void setLastTouch(sim::Tick t) { pa_->last_touch_[pfn_] = t; }

    // List membership (links are written by PageList only).
    ListId list_id() const { return meta().list_id; }
    /// Raw membership override. PageList maintains this in normal
    /// operation; exposed for fault injection in the check tests.
    void setListId(ListId id) { meta().list_id = id; }
    ListTag on_list() const { return pa_->listTag(meta().list_id); }
    Gpfn link_prev() const { return meta().link_prev; }
    Gpfn link_next() const { return meta().link_next; }

  private:
    friend class PageArray;
    friend class PageList;

    PageArray::Meta &meta() const { return pa_->meta_[pfn_]; }
    bool flag(std::uint8_t f) const { return meta().flags & f; }
    void
    setFlag(std::uint8_t f, bool v)
    {
        if (v)
            meta().flags |= f;
        else
            meta().flags &= static_cast<std::uint8_t>(~f);
    }

    PageArray *pa_;
    Gpfn pfn_;
};

inline PageRef
PageArray::page(Gpfn pfn)
{
    hos_assert(pfn < size_, "gpfn out of range");
    return PageRef(*this, pfn);
}

inline const PageRef
PageArray::page(Gpfn pfn) const
{
    hos_assert(pfn < size_, "gpfn out of range");
    // PageRef is a value handle; const call sites bind it to
    // `const PageRef`, whose setters don't compile. The cast only
    // funds the handle's non-const back-pointer.
    return PageRef(*const_cast<PageArray *>(this), pfn);
}

inline void
PageArray::setAllocated(const PageRef &p, bool v)
{
    setBit(allocated_, p.pfn_, v);
}

inline PageList::PageList(PageArray &pages, ListTag tag)
    : pages_(&pages), tag_(tag), id_(pages.registerList(tag))
{
}

// The list operations are a few loads and stores each but run tens of
// millions of times per simulated second (every LRU rotation, buddy
// merge, and per-CPU cache refill goes through them), so they are
// defined inline here and poke the link columns directly rather than
// going through PageRef accessors.

inline void
PageList::pushFront(Gpfn pfn)
{
    hos_assert(pfn < pages_->size_, "gpfn out of range");
    PageArray::Meta &m = pages_->meta_[pfn];
    hos_assert(m.list_id == noListId,
               "page %llu already on list %u (tag %u)",
               static_cast<unsigned long long>(pfn),
               static_cast<unsigned>(m.list_id),
               static_cast<unsigned>(pages_->listTag(m.list_id)));
    m.list_id = id_;
    m.link_prev = invalidGpfn;
    m.link_next = head_;
    if (head_ != invalidGpfn)
        pages_->meta_[head_].link_prev = pfn;
    head_ = pfn;
    if (tail_ == invalidGpfn)
        tail_ = pfn;
    ++count_;
}

inline void
PageList::pushBack(Gpfn pfn)
{
    hos_assert(pfn < pages_->size_, "gpfn out of range");
    PageArray::Meta &m = pages_->meta_[pfn];
    hos_assert(m.list_id == noListId,
               "page %llu already on list %u (tag %u)",
               static_cast<unsigned long long>(pfn),
               static_cast<unsigned>(m.list_id),
               static_cast<unsigned>(pages_->listTag(m.list_id)));
    m.list_id = id_;
    m.link_next = invalidGpfn;
    m.link_prev = tail_;
    if (tail_ != invalidGpfn)
        pages_->meta_[tail_].link_next = pfn;
    tail_ = pfn;
    if (head_ == invalidGpfn)
        head_ = pfn;
    ++count_;
}

inline void
PageList::remove(Gpfn pfn)
{
    hos_assert(pfn < pages_->size_, "gpfn out of range");
    PageArray::Meta &m = pages_->meta_[pfn];
    hos_assert(m.list_id == id_, "page %llu on list %u, not %u",
               static_cast<unsigned long long>(pfn),
               static_cast<unsigned>(m.list_id),
               static_cast<unsigned>(id_));
    if (m.link_prev != invalidGpfn)
        pages_->meta_[m.link_prev].link_next = m.link_next;
    else
        head_ = m.link_next;
    if (m.link_next != invalidGpfn)
        pages_->meta_[m.link_next].link_prev = m.link_prev;
    else
        tail_ = m.link_prev;
    m.link_prev = invalidGpfn;
    m.link_next = invalidGpfn;
    m.list_id = noListId;
    hos_assert(count_ > 0, "list count underflow");
    --count_;
}

inline Gpfn
PageList::popFront()
{
    if (head_ == invalidGpfn)
        return invalidGpfn;
    const Gpfn pfn = head_;
    remove(pfn);
    return pfn;
}

inline Gpfn
PageList::popBack()
{
    if (tail_ == invalidGpfn)
        return invalidGpfn;
    const Gpfn pfn = tail_;
    remove(pfn);
    return pfn;
}

inline void
PageList::moveToFront(Gpfn pfn)
{
    remove(pfn);
    pushFront(pfn);
}

inline bool
PageList::contains(Gpfn pfn) const
{
    // Exact: list ids are unique per PageArray, so a page on a sibling
    // zone's same-tag list can no longer fool membership checks.
    return pages_->meta_[pfn].list_id == id_;
}

} // namespace hos::guestos

#endif // HOS_GUESTOS_PAGE_HH
