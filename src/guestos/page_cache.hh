/**
 * @file
 * File page cache with read-ahead and write-back.
 *
 * I/O page-cache pages are first-class placement citizens in HeteroOS
 * (Observation 3): storage-intensive applications allocate and release
 * them at high rate, they are short-lived with high reuse, and placing
 * them in FastMem hides disk latency. The cache maps (file, page
 * offset) -> gpfn, reads ahead on sequential access, buffers dirty
 * pages, and exposes the I/O-completion hook HeteroOS-LRU uses for
 * eager FastMem eviction (Section 3.3, rule 2).
 *
 * The index lives where Linux keeps it: each cached page records its
 * file and page index in the page array (page->mapping/page->index),
 * and each file maps page index -> gpfn through a two-level table of
 * 512-entry chunks, allocated on first insert.
 */

#ifndef HOS_GUESTOS_PAGE_CACHE_HH
#define HOS_GUESTOS_PAGE_CACHE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "guestos/blockdev.hh"
#include "guestos/page.hh"
#include "guestos/vma.hh"
#include "sim/stats.hh"

namespace hos::guestos {

/** Receives the pages PageCacheBacking::allocIoPages hands out. */
class IoPageSink
{
  public:
    /**
     * The next page of the fill: a fresh cache page already on the
     * LRU, or invalidGpfn when its allocation failed. Called as each
     * page is allocated, before the next one is, so whatever the
     * allocator runs in between (reclaim, balloon) sees it indexed.
     */
    virtual void fillIoPage(Gpfn pfn) = 0;

  protected:
    ~IoPageSink() = default;
};

/** Services the page cache needs from the kernel. */
class PageCacheBacking
{
  public:
    virtual ~PageCacheBacking() = default;

    /**
     * Allocate `n` cache pages (PageCache or BufferCache type), one
     * placement decision per page in order, handing each to `sink`.
     * A failed allocation reaches the sink as invalidGpfn and the
     * fill goes on.
     */
    virtual void allocIoPages(PageType type, MemHint hint,
                              std::uint64_t n, IoPageSink &sink) = 0;

    /** Free a cache page evicted from the cache entirely. */
    virtual void freeIoPage(Gpfn pfn) = 0;

    /** LRU touch for a cache hit. */
    virtual void touchIoPage(Gpfn pfn, bool write) = 0;

    /** What kind of I/O just finished on a set of cache pages. */
    enum class IoKind {
        ReadFill,  ///< pages were filled from disk; use is imminent
        Writeback, ///< dirty pages were cleaned; their job is done
    };

    /**
     * An I/O involving these pages completed. HeteroOS-LRU eagerly
     * demotes Writeback completions (the page's work is finished);
     * ReadFill pages are about to be consumed and stay put.
     */
    virtual void onIoComplete(const std::vector<Gpfn> &pages,
                              IoKind kind) = 0;
};

/** Result of a cached read or write. */
struct IoResult
{
    sim::Duration disk_time = 0;     ///< time spent on the device
    std::uint64_t pages_touched = 0; ///< cache pages involved
    std::uint64_t pages_missed = 0;  ///< pages that went to disk
    std::vector<Gpfn> pages;         ///< the touched cache pages
};

/** The guest's file page cache. */
class PageCache
{
  public:
    /**
     * @param pages    the guest page array (dirty/IO flags)
     * @param backing  kernel services
     * @param disk     the backing block device
     * @param readahead_pages window fetched ahead on sequential reads
     */
    PageCache(PageArray &pages, PageCacheBacking &backing,
              BlockDevice &disk, unsigned readahead_pages = 32);

    /** Register a simulated file; returns its id. */
    FileId createFile(std::uint64_t size_bytes);

    std::uint64_t fileSize(FileId file) const;

    /**
     * Buffered read of [offset, offset+len). Misses go to disk
     * (sequential when the range follows the previous read).
     * Read-ahead extends the fetched window.
     */
    IoResult read(FileId file, std::uint64_t offset, std::uint64_t len,
                  MemHint hint = MemHint::None);

    /**
     * Buffered write: dirties cache pages; data reaches disk via
     * writeback(). Extends the file if needed.
     */
    IoResult write(FileId file, std::uint64_t offset, std::uint64_t len,
                   MemHint hint = MemHint::None);

    /**
     * The page backing (file, byte offset) for mmap'd files;
     * allocates + reads it on a miss. Returns the gpfn and adds any
     * disk time to `io_time`.
     */
    Gpfn mapPage(FileId file, std::uint64_t offset, MemHint hint,
                 sim::Duration &io_time);

    /**
     * Write back up to `max_pages` dirty pages (oldest first).
     * @return time charged to the flusher.
     */
    sim::Duration writeback(std::uint64_t max_pages);

    /**
     * Drop a specific clean page from the cache (reclaim path).
     * Returns false if the page is dirty or under I/O (caller should
     * write back first).
     */
    bool evictPage(Gpfn pfn);

    /**
     * Replace the frame backing a cached page (tier demotion or
     * promotion while staying cached). The caller owns data-copy cost
     * accounting and freeing the old page. Dirty/IO state transfers.
     */
    void remapPage(Gpfn old_pfn, Gpfn new_pfn);

    /** Is this gpfn a page-cache page? */
    bool owns(Gpfn pfn) const
    {
        return pages_.page(pfn).cache_file() != noFile;
    }

    std::uint64_t cachedPages() const { return cached_count_; }
    std::uint64_t dirtyPages() const { return dirty_count_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Files created so far; ids run from 0. */
    std::uint64_t numFiles() const { return files_.size(); }

    /** The page caching page `page_index` of `file`, or invalidGpfn. */
    Gpfn lookup(FileId file, std::uint64_t page_index) const;

    /** fn(page_index, pfn) per cached page of `file`, in index order. */
    template <typename Fn>
    void
    forEachCached(FileId file, Fn &&fn) const
    {
        hos_assert(file < files_.size(), "unknown file");
        const auto &index = files_[file].index;
        for (std::uint64_t c = 0; c < index.size(); ++c) {
            if (!index[c])
                continue;
            for (std::uint64_t i = 0; i < indexChunkPages; ++i) {
                const Gpfn pfn = (*index[c])[i];
                if (pfn != invalidGpfn)
                    fn((c << indexChunkShift) + i, pfn);
            }
        }
    }

    /**
     * Pages queued for writeback, oldest first. Entries go stale
     * (evicted, remapped or already cleaned) and are skipped when
     * popped.
     */
    const std::deque<Gpfn> &dirtyQueue() const { return dirty_fifo_; }

  private:
    /** log2 entries per index chunk (512 pages = 2 MiB of file). */
    static constexpr unsigned indexChunkShift = 9;
    static constexpr std::uint64_t indexChunkPages = std::uint64_t(1)
                                                     << indexChunkShift;
    using IndexChunk = std::array<Gpfn, indexChunkPages>;

    struct FileMeta
    {
        std::uint64_t size = 0;
        /** sequential-pattern detector; ~0 = no read yet */
        std::uint64_t last_read_end = ~std::uint64_t(0);
        /** page index -> gpfn; chunks allocated on first insert */
        std::vector<std::unique_ptr<IndexChunk>> index;
    };

    /** Ensure pages [first, last] of file are cached; report misses. */
    void populate(FileMeta &meta, FileId file, std::uint64_t first_page,
                  std::uint64_t last_page, MemHint hint, IoResult &res,
                  bool for_write);

    /** The index slot of page `idx`; null when its chunk is absent. */
    static const Gpfn *slot(const FileMeta &meta, std::uint64_t idx);
    /** Index `pfn` as page `idx` of `file`, in the table and the page. */
    void insert(FileMeta &meta, FileId file, std::uint64_t idx, Gpfn pfn);
    /** The index entry naming a cached page. */
    Gpfn &entryOf(const PageRef &p);

    PageArray &pages_;
    PageCacheBacking &backing_;
    BlockDevice &disk_;
    unsigned readahead_pages_;
    std::vector<FileMeta> files_;
    std::deque<Gpfn> dirty_fifo_;
    std::uint64_t cached_count_ = 0;
    std::uint64_t dirty_count_ = 0;
    // populate() buffers. It never re-enters: nothing the allocator
    // runs mid-fill (reclaim, balloon) reads or fills the cache.
    std::vector<std::uint64_t> missing_;
    std::vector<Gpfn> filled_;
    sim::Counter hits_;
    sim::Counter misses_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_PAGE_CACHE_HH
