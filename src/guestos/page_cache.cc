#include "guestos/page_cache.hh"

#include <algorithm>

#include "sim/log.hh"

namespace hos::guestos {

PageCache::PageCache(PageArray &pages, PageCacheBacking &backing,
                     BlockDevice &disk, unsigned readahead_pages)
    : pages_(pages), backing_(backing), disk_(disk),
      readahead_pages_(readahead_pages)
{
}

FileId
PageCache::createFile(std::uint64_t size_bytes)
{
    FileMeta &meta = files_.emplace_back();
    meta.size = size_bytes;
    return static_cast<FileId>(files_.size() - 1);
}

std::uint64_t
PageCache::fileSize(FileId file) const
{
    hos_assert(file < files_.size(), "unknown file");
    return files_[file].size;
}

const Gpfn *
PageCache::slot(const FileMeta &meta, std::uint64_t idx)
{
    const std::uint64_t c = idx >> indexChunkShift;
    if (c >= meta.index.size() || !meta.index[c])
        return nullptr;
    return &(*meta.index[c])[idx & (indexChunkPages - 1)];
}

Gpfn
PageCache::lookup(FileId file, std::uint64_t page_index) const
{
    hos_assert(file < files_.size(), "unknown file");
    const Gpfn *s = slot(files_[file], page_index);
    return s ? *s : invalidGpfn;
}

Gpfn &
PageCache::entryOf(const PageRef &p)
{
    const std::uint64_t idx = p.cache_index();
    return (*files_[p.cache_file()].index[idx >> indexChunkShift])
        [idx & (indexChunkPages - 1)];
}

void
PageCache::insert(FileMeta &meta, FileId file, std::uint64_t idx, Gpfn pfn)
{
    const std::uint64_t c = idx >> indexChunkShift;
    if (c >= meta.index.size())
        meta.index.resize(c + 1);
    if (!meta.index[c]) {
        meta.index[c] = std::make_unique<IndexChunk>();
        meta.index[c]->fill(invalidGpfn);
    }
    (*meta.index[c])[idx & (indexChunkPages - 1)] = pfn;
    pages_.page(pfn).setCacheFile(file, idx);
    ++cached_count_;
}

void
PageCache::populate(FileMeta &meta, FileId file, std::uint64_t first_page,
                    std::uint64_t last_page, MemHint hint, IoResult &res,
                    bool for_write)
{
    // Hits first, in index order; then the missing pages are filled
    // as one run (the device model rewards sequential transfers).
    missing_.clear();
    for (std::uint64_t idx = first_page; idx <= last_page; ++idx) {
        const Gpfn *s = slot(meta, idx);
        if (s && *s != invalidGpfn) {
            hits_.inc();
            backing_.touchIoPage(*s, for_write);
            res.pages.push_back(*s);
        } else {
            missing_.push_back(idx);
        }
    }
    res.pages_touched += last_page - first_page + 1;

    if (missing_.empty())
        return;

    // Each page is indexed and under I/O before the next allocation,
    // so reclaim run by the allocator mid-fill cannot take it.
    struct Fill final : IoPageSink
    {
        PageCache &pc;
        FileMeta &meta;
        FileId file;
        const std::uint64_t *next_idx;
        IoResult &res;
        bool for_write;

        Fill(PageCache &pc, FileMeta &meta, FileId file,
             const std::uint64_t *idx, IoResult &res, bool for_write)
            : pc(pc), meta(meta), file(file), next_idx(idx), res(res),
              for_write(for_write)
        {
        }

        void
        fillIoPage(Gpfn pfn) override
        {
            const std::uint64_t idx = *next_idx++;
            pc.misses_.inc();
            res.pages_missed += 1;
            if (pfn == invalidGpfn) {
                // Out of memory for cache pages: serve this page
                // directly from disk without caching (uncommon).
                if (!for_write)
                    res.disk_time += pc.disk_.read(mem::pageSize, false);
                return;
            }
            pc.insert(meta, file, idx, pfn);
            pc.pages_.page(pfn).setUnderIo(true);
            pc.filled_.push_back(pfn);
            res.pages.push_back(pfn);
        }
    };
    filled_.clear();
    Fill fill(*this, meta, file, missing_.data(), res, for_write);
    backing_.allocIoPages(PageType::PageCache, hint, missing_.size(), fill);

    if (!filled_.empty()) {
        if (!for_write) {
            // One transfer for the whole run; runs of >= 8 pages are
            // treated as sequential.
            const bool seq = filled_.size() >= 8;
            res.disk_time +=
                disk_.read(filled_.size() * mem::pageSize, seq);
        }
        for (Gpfn pfn : filled_) {
            PageRef p = pages_.page(pfn);
            p.setUnderIo(false);
            if (for_write) {
                if (!p.dirty()) {
                    p.setDirty(true);
                    ++dirty_count_;
                    dirty_fifo_.push_back(pfn);
                }
            }
        }
        backing_.onIoComplete(filled_,
                              PageCacheBacking::IoKind::ReadFill);
    }
}

IoResult
PageCache::read(FileId file, std::uint64_t offset, std::uint64_t len,
                MemHint hint)
{
    hos_assert(file < files_.size(), "unknown file");
    hos_assert(len > 0, "zero-length read");
    FileMeta &meta = files_[file];

    const std::uint64_t first = offset / mem::pageSize;
    std::uint64_t last = (offset + len - 1) / mem::pageSize;

    // Sequential pattern => extend with read-ahead.
    const bool sequential = offset == meta.last_read_end;
    meta.last_read_end = offset + len;
    if (sequential && meta.size > 0) {
        const std::uint64_t eof_page = (meta.size - 1) / mem::pageSize;
        last = std::min(last + readahead_pages_, eof_page);
    }

    IoResult res;
    populate(meta, file, first, last, hint, res, false);
    return res;
}

IoResult
PageCache::write(FileId file, std::uint64_t offset, std::uint64_t len,
                 MemHint hint)
{
    hos_assert(file < files_.size(), "unknown file");
    hos_assert(len > 0, "zero-length write");
    FileMeta &meta = files_[file];
    meta.size = std::max(meta.size, offset + len);

    const std::uint64_t first = offset / mem::pageSize;
    const std::uint64_t last = (offset + len - 1) / mem::pageSize;

    IoResult res;
    populate(meta, file, first, last, hint, res, true);
    // Dirty every page touched by the write (hits included).
    for (Gpfn pfn : res.pages) {
        PageRef p = pages_.page(pfn);
        if (!p.dirty()) {
            p.setDirty(true);
            ++dirty_count_;
            dirty_fifo_.push_back(pfn);
        }
    }
    return res;
}

Gpfn
PageCache::mapPage(FileId file, std::uint64_t offset, MemHint hint,
                   sim::Duration &io_time)
{
    hos_assert(file < files_.size(), "unknown file");
    FileMeta &meta = files_[file];
    const std::uint64_t idx = offset / mem::pageSize;

    if (const Gpfn *s = slot(meta, idx); s && *s != invalidGpfn) {
        hits_.inc();
        backing_.touchIoPage(*s, false);
        return *s;
    }

    IoResult res;
    populate(meta, file, idx, idx, hint, res, false);
    io_time += res.disk_time;
    const Gpfn *s = slot(meta, idx);
    return s ? *s : invalidGpfn;
}

sim::Duration
PageCache::writeback(std::uint64_t max_pages)
{
    std::vector<Gpfn> cleaned;
    while (!dirty_fifo_.empty() && cleaned.size() < max_pages) {
        const Gpfn pfn = dirty_fifo_.front();
        dirty_fifo_.pop_front();
        if (!owns(pfn))
            continue; // evicted since queued
        PageRef p = pages_.page(pfn);
        if (!p.dirty())
            continue; // already cleaned
        p.setDirty(false);
        hos_assert(dirty_count_ > 0, "dirty count underflow");
        --dirty_count_;
        cleaned.push_back(pfn);
    }
    if (cleaned.empty())
        return 0;

    const sim::Duration t =
        disk_.write(cleaned.size() * mem::pageSize, cleaned.size() >= 8);
    backing_.onIoComplete(cleaned, PageCacheBacking::IoKind::Writeback);
    return t;
}

bool
PageCache::evictPage(Gpfn pfn)
{
    PageRef p = pages_.page(pfn);
    hos_assert(p.cache_file() != noFile, "evicting a non-cache page");
    if (p.dirty() || p.under_io())
        return false;

    entryOf(p) = invalidGpfn;
    p.setCacheFile(noFile, 0);
    hos_assert(cached_count_ > 0, "cached count underflow");
    --cached_count_;
    backing_.freeIoPage(pfn);
    return true;
}

void
PageCache::remapPage(Gpfn old_pfn, Gpfn new_pfn)
{
    PageRef oldp = pages_.page(old_pfn);
    PageRef newp = pages_.page(new_pfn);
    hos_assert(oldp.cache_file() != noFile, "remapping a non-cache page");
    entryOf(oldp) = new_pfn;
    newp.setCacheFile(oldp.cache_file(), oldp.cache_index());
    oldp.setCacheFile(noFile, 0);

    newp.setDirty(oldp.dirty());
    newp.setUnderIo(oldp.under_io());
    if (oldp.dirty()) {
        // The dirty FIFO entry for the old frame is skipped lazily
        // (owns() check in writeback); queue the new frame.
        oldp.setDirty(false);
        dirty_fifo_.push_back(new_pfn);
    }
}

} // namespace hos::guestos
