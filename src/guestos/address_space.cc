#include "guestos/address_space.hh"

#include <algorithm>

namespace hos::guestos {

namespace {
/** Mappings start above the traditional program segments. */
constexpr std::uint64_t vaBase = 0x0000'1000'0000ull;
/** Guard gap between consecutive mappings. */
constexpr std::uint64_t vaGuard = mem::pageSize;
} // namespace

AddressSpace::AddressSpace(ProcessId pid, MmBacking &backing)
    : pid_(pid), backing_(backing),
      table_([&backing](std::int64_t d) { backing.onPageTablePages(d); }),
      next_va_(vaBase)
{
}

std::uint64_t
AddressSpace::mmap(std::uint64_t length, VmaKind kind, MemHint hint,
                   FileId file, std::uint64_t file_offset,
                   std::string label)
{
    hos_assert(length > 0, "mmap of zero length");
    // Round to page granularity as the real syscall does.
    length = mem::bytesToPages(length) * mem::pageSize;

    Vma vma;
    vma.start = next_va_;
    vma.length = length;
    vma.kind = kind;
    vma.hint = hint;
    vma.file = file;
    vma.file_offset = file_offset;
    vma.label = std::move(label);

    next_va_ += length + vaGuard;
    hos_assert(next_va_ < PageTable::vaSpan, "virtual address space full");

    const std::uint64_t start = vma.start;
    vmas_.emplace(start, std::move(vma));
    return start;
}

void
AddressSpace::munmap(std::uint64_t start)
{
    auto it = vmas_.find(start);
    hos_assert(it != vmas_.end(), "munmap of unknown VMA");
    Vma &vma = it->second;

    std::vector<Gpfn> released;
    released.reserve(std::min(table_.mappedPages(),
                              vma.length / mem::pageSize));
    table_.unmapRange(vma.start, vma.length / mem::pageSize, released);
    if (vma.kind == VmaKind::File) {
        backing_.onUnmapRelease({}, released);
    } else {
        backing_.freeUserPages(released);
        backing_.onUnmapRelease(released, {});
    }
    vmas_.erase(it);
}

const Vma *
AddressSpace::findVma(std::uint64_t va) const
{
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    return it->second.contains(va) ? &it->second : nullptr;
}

namespace {

/** Maps each faulted page and records it for touchRange's caller. */
class FaultMapper final : public UserPageSink
{
  public:
    FaultMapper(PageTable &table, bool write, Gpfn *out)
        : table_(table), write_(write), out_(out)
    {
    }

    void
    mapUserPage(std::uint64_t vaddr, Gpfn pfn) override
    {
        table_.mapTouched(vaddr, pfn, write_);
        *out_++ = pfn;
    }

  private:
    PageTable &table_;
    bool write_;
    Gpfn *out_;
};

} // namespace

std::uint64_t
AddressSpace::touchRange(std::uint64_t vaddr, std::uint64_t n, bool write,
                         Gpfn *out)
{
    const std::uint64_t start = vaddr & ~(mem::pageSize - 1);
    const Vma *vma = findVma(start);
    hos_assert(vma != nullptr, "fault outside any VMA");
    hos_assert(n <= (vma->end() - start) / mem::pageSize,
               "touch range runs past its VMA");

    PageTable::LeafCursor cursor(table_);
    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t va = start + done * mem::pageSize;
        if (std::uint64_t *slot = cursor.present(va)) {
            PageTable::LeafCursor::touch(*slot, write);
            out[done++] = PageTable::LeafCursor::pfnOf(*slot);
            continue;
        }
        const std::uint64_t run = table_.unmappedRun(va, n - done);
        FaultMapper mapper(table_, write, out + done);
        std::uint64_t got = 0;
        if (vma->kind == VmaKind::File) {
            for (; got < run; ++got) {
                const std::uint64_t fva = va + got * mem::pageSize;
                const Gpfn pfn = backing_.fileBackedPage(
                    vma->file, vma->file_offset + (fva - vma->start),
                    vma->hint, pid_, fva);
                if (pfn == invalidGpfn)
                    break;
                mapper.mapUserPage(fva, pfn);
            }
        } else {
            got = backing_.allocUserPages(vma->pageType(), vma->hint,
                                          pid_, va, run, mapper);
        }
        done += got;
        if (got < run)
            break; // out of memory
    }
    return done;
}

std::optional<Gpfn>
AddressSpace::translate(std::uint64_t vaddr) const
{
    const std::uint64_t va = vaddr & ~(mem::pageSize - 1);
    if (auto pte = table_.lookup(va))
        return pte->pfn;
    return std::nullopt;
}

void
AddressSpace::forEachVma(const std::function<void(const Vma &)> &fn) const
{
    for (const auto &kv : vmas_)
        fn(kv.second);
}

void
AddressSpace::releaseAll()
{
    while (!vmas_.empty())
        munmap(vmas_.begin()->first);
}

} // namespace hos::guestos
