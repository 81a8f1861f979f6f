/**
 * @file
 * Per-process address space: VMA tree + page table + fault handling.
 *
 * The address space is deliberately thin: policy lives in the kernel
 * (which implements MmBacking). Faulting an anonymous page asks the
 * kernel's HeteroOS allocator for a page of the right type; faulting a
 * file page goes through the page cache; munmap hands the released
 * pages back so HeteroOS-LRU can apply its aggressive demotion rule
 * for unmapped regions (Section 3.3, rule 1).
 */

#ifndef HOS_GUESTOS_ADDRESS_SPACE_HH
#define HOS_GUESTOS_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "guestos/page.hh"
#include "guestos/page_table.hh"
#include "guestos/vma.hh"

namespace hos::guestos {

/** Receives the pages MmBacking::allocUserPages hands out. */
class UserPageSink
{
  public:
    /**
     * `pfn` now backs `vaddr`. Called as each page is allocated,
     * before the next one is, so whatever the allocator runs in
     * between (reclaim, balloon, page-table pages) sees it mapped.
     */
    virtual void mapUserPage(std::uint64_t vaddr, Gpfn pfn) = 0;

  protected:
    ~UserPageSink() = default;
};

/** Services the address space needs from the kernel. */
class MmBacking
{
  public:
    virtual ~MmBacking() = default;

    /**
     * Allocate user pages (anon or netbuf) for the `n` faulting
     * vaddrs from `vaddr`, one placement decision per page in address
     * order, handing each to `sink`. Returns the pages allocated; a
     * short count means the guest ran out of memory.
     */
    virtual std::uint64_t allocUserPages(PageType type, MemHint hint,
                                         ProcessId process,
                                         std::uint64_t vaddr,
                                         std::uint64_t n,
                                         UserPageSink &sink) = 0;

    /** Release anonymous pages at munmap/exit, in the given order. */
    virtual void freeUserPages(const std::vector<Gpfn> &pfns) = 0;

    /** Find-or-load the page-cache page backing (file, offset). */
    virtual Gpfn fileBackedPage(FileId file, std::uint64_t offset,
                                MemHint hint, ProcessId process,
                                std::uint64_t vaddr) = 0;

    /**
     * A whole VMA range was just unmapped. `anon_released` pages were
     * freed; `file_released` pages stay cached but lost this mapping.
     * HeteroOS-LRU hooks this for aggressive FastMem demotion.
     */
    virtual void onUnmapRelease(const std::vector<Gpfn> &anon_released,
                                const std::vector<Gpfn> &file_released) = 0;

    /** Page-table page accounting (+1 alloc, negative on teardown). */
    virtual void onPageTablePages(std::int64_t delta) = 0;
};

/** A guest process's memory map. */
class AddressSpace
{
  public:
    AddressSpace(ProcessId pid, MmBacking &backing);

    ProcessId pid() const { return pid_; }
    PageTable &pageTable() { return table_; }
    const PageTable &pageTable() const { return table_; }

    /**
     * Create a mapping of `length` bytes; returns the start address.
     * Addresses are assigned by a bump allocator (no reuse), which
     * keeps ranges unique for the VMM tracking lists.
     */
    std::uint64_t mmap(std::uint64_t length, VmaKind kind,
                       MemHint hint = MemHint::None, FileId file = noFile,
                       std::uint64_t file_offset = 0,
                       std::string label = {});

    /** Unmap an entire VMA by start address. */
    void munmap(std::uint64_t start);

    /** The VMA containing va, or nullptr. */
    const Vma *findVma(std::uint64_t va) const;

    /**
     * Touch `n` consecutive pages from vaddr, all inside one VMA:
     * fault in each unmapped page and set the PTE accessed (and on a
     * write, dirty) bits. Writes the backing gpfns to `out` in
     * address order and returns how many pages it covered; a short
     * count means the guest ran out of memory at that page.
     */
    std::uint64_t touchRange(std::uint64_t vaddr, std::uint64_t n,
                             bool write, Gpfn *out);

    /**
     * Touch one page: the gpfn now backing the address, or
     * invalidGpfn if allocation failed (guest truly out of memory).
     */
    Gpfn touch(std::uint64_t vaddr, bool write)
    {
        Gpfn pfn = invalidGpfn;
        touchRange(vaddr, 1, write, &pfn);
        return pfn;
    }

    /** Gpfn currently backing vaddr, if present. */
    std::optional<Gpfn> translate(std::uint64_t vaddr) const;

    /** Iterate over all VMAs (tracking-list construction). */
    void forEachVma(const std::function<void(const Vma &)> &fn) const;

    std::uint64_t mappedPages() const { return table_.mappedPages(); }
    std::uint64_t vmaCount() const { return vmas_.size(); }

    /** Release everything (process exit). */
    void releaseAll();

  private:
    ProcessId pid_;
    MmBacking &backing_;
    PageTable table_;
    std::map<std::uint64_t, Vma> vmas_; ///< keyed by start address
    std::uint64_t next_va_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_ADDRESS_SPACE_HH
