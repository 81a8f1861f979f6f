/**
 * @file
 * Four-level page table (x86-64 style).
 *
 * Real tables matter here: the VMM's hotness tracker harvests PTE
 * accessed bits by scanning these structures (Section 2.3), the
 * migration path remaps live PTEs, and page-table pages themselves
 * are a tracked page type (Figure 4). Entries are packed 64-bit words
 * holding a frame/child number plus present/rw/accessed/dirty bits.
 */

#ifndef HOS_GUESTOS_PAGE_TABLE_HH
#define HOS_GUESTOS_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "guestos/page.hh"

namespace hos::guestos {

/** Decoded view of a leaf PTE. */
struct PteView
{
    Gpfn pfn = invalidGpfn;
    bool writable = false;
    bool accessed = false;
    bool dirty = false;
};

/**
 * A 4-level, 9-bits-per-level page table covering a 48-bit virtual
 * address space with 4 KiB leaves.
 */
class PageTable
{
  public:
    static constexpr unsigned levels = 4;
    static constexpr unsigned bitsPerLevel = 9;
    static constexpr unsigned entriesPerNode = 1u << bitsPerLevel;
    static constexpr std::uint64_t vaSpan =
        1ull << (levels * bitsPerLevel + mem::pageShift);

    /**
     * Called when a table node is allocated (+1) or the table is
     * destroyed (-count) so the kernel can account PageTable pages.
     */
    using TableAccounting = std::function<void(std::int64_t delta)>;

    explicit PageTable(TableAccounting accounting = {});
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Map vaddr -> pfn. Panics if already mapped (no overmap). */
    void map(std::uint64_t vaddr, Gpfn pfn, bool writable);

    /**
     * A fault's map + first access: map vaddr -> pfn writable with
     * the accessed bit set, and the dirty bit on a write.
     */
    void mapTouched(std::uint64_t vaddr, Gpfn pfn, bool write);

    /** Unmap; returns the pfn that was mapped, or nullopt. */
    std::optional<Gpfn> unmap(std::uint64_t vaddr);

    /**
     * Unmap every present leaf in the `n` pages from vaddr, walking
     * one 512-entry leaf node at a time, and append the pfns that
     * were mapped to `out` in address order.
     */
    void unmapRange(std::uint64_t vaddr, std::uint64_t n,
                    std::vector<Gpfn> &out);

    /**
     * Length of the run of unmapped pages from vaddr, at most `max`.
     * An absent leaf node counts as 512 unmapped pages.
     */
    std::uint64_t unmappedRun(std::uint64_t vaddr, std::uint64_t max) const;

    /** Look up a leaf translation. */
    std::optional<PteView> lookup(std::uint64_t vaddr) const;

    /** True if a leaf mapping exists. */
    bool isMapped(std::uint64_t vaddr) const;

    /**
     * Simulate a hardware access: set the accessed (and optionally
     * dirty) bit. Returns false if unmapped (page fault).
     */
    bool touch(std::uint64_t vaddr, bool write);

    /** Change the frame a vaddr points to (migration remap). */
    bool remap(std::uint64_t vaddr, Gpfn new_pfn);

    /**
     * Scan leaf PTEs in [va_lo, va_hi), invoking
     * visit(vaddr, PteView) for each present entry, stopping after
     * `max_visits` entries. When `clear_accessed` is set, accessed
     * bits are reset after being reported — exactly what software
     * hotness tracking does, which is why the caller must also charge
     * a TLB flush. The visitor is a template parameter, inlined into
     * the walk over each 512-entry leaf node.
     *
     * @return number of PTE slots visited (present entries), used for
     *         scan cost accounting and scan-cursor resumption.
     */
    template <typename Visit>
    std::uint64_t
    scanRange(std::uint64_t va_lo, std::uint64_t va_hi, Visit &&visit,
              bool clear_accessed,
              std::uint64_t max_visits = ~std::uint64_t(0))
    {
        if (va_lo >= va_hi || max_visits == 0)
            return 0;
        va_hi = std::min(va_hi, vaSpan);
        return scanNode(*root_, levels - 1, 0, va_lo, va_hi, visit,
                        clear_accessed, max_visits);
    }

    /** Present leaf mappings. */
    std::uint64_t mappedPages() const { return mapped_; }

    /** Table nodes allocated (each is one PageTable-type page). */
    std::uint64_t tableNodes() const { return node_count_; }

  private:
    struct Node
    {
        std::array<std::uint64_t, entriesPerNode> slots{};
        std::uint16_t used = 0;
    };

  public:
    // Leaf-slot layout: frame number above pfnShift plus flag bits.
    static constexpr std::uint64_t bitPresent = 1ull << 0;
    static constexpr std::uint64_t bitRw = 1ull << 1;
    static constexpr std::uint64_t bitAccessed = 1ull << 2;
    static constexpr std::uint64_t bitDirty = 1ull << 3;
    static constexpr std::uint64_t pfnShift = 12;

    /**
     * A caller-held position in the leaf level for walks in address
     * order: each 512-entry leaf node is resolved once, then slots
     * are read and A/D bits set in place. Never allocates nodes, so
     * it stays valid while the table lives (nodes are never freed).
     */
    class LeafCursor
    {
      public:
        explicit LeafCursor(const PageTable &table) : table_(&table) {}

        /** The present leaf entry of vaddr, or nullptr. */
        std::uint64_t *
        present(std::uint64_t vaddr)
        {
            const std::uint64_t tag =
                vaddr >> (mem::pageShift + bitsPerLevel);
            if (tag != tag_ || !node_) { // a fault may add the node
                tag_ = tag;
                node_ = table_->leafNode(vaddr);
            }
            if (!node_)
                return nullptr;
            std::uint64_t &slot = node_->slots[levelIndex(vaddr, 0)];
            return (slot & bitPresent) ? &slot : nullptr;
        }

        /** The frame a present entry maps. */
        static Gpfn pfnOf(std::uint64_t slot) { return slot >> pfnShift; }

        /** A hardware access through a present entry. */
        static void
        touch(std::uint64_t &slot, bool write)
        {
            slot |= bitAccessed | (write ? bitDirty : 0);
        }

      private:
        const PageTable *table_;
        std::uint64_t tag_ = ~std::uint64_t(0);
        Node *node_ = nullptr;
    };

  private:
    /**
     * Intermediate slots store the child Node pointer (8-byte
     * aligned, so the low three bits are free) plus the present bit.
     */
    static constexpr std::uint64_t ptrMask = ~std::uint64_t(0x7);

    /** Decode a present leaf slot. */
    static PteView
    decodeLeaf(std::uint64_t slot)
    {
        PteView v;
        v.pfn = slot >> pfnShift;
        v.writable = slot & bitRw;
        v.accessed = slot & bitAccessed;
        v.dirty = slot & bitDirty;
        return v;
    }

    static unsigned levelIndex(std::uint64_t vaddr, unsigned level);
    Node *childOf(const Node &n, unsigned idx) const;
    Node *ensureChild(Node &n, unsigned idx);
    std::uint64_t *leafSlot(std::uint64_t vaddr) const;
    Node *leafNode(std::uint64_t vaddr) const;
    /** The leaf slot of vaddr, creating the nodes above it. */
    std::uint64_t &mapSlot(std::uint64_t vaddr);

    template <typename Visit>
    static std::uint64_t
    scanNode(Node &node, unsigned level, std::uint64_t va_base,
             std::uint64_t va_lo, std::uint64_t va_hi, Visit &visit,
             bool clear_accessed, std::uint64_t max_visits)
    {
        const std::uint64_t slot_span =
            1ull << (mem::pageShift + bitsPerLevel * level);
        // Slots [first, stop) overlap [va_lo, va_hi); callers only
        // descend into nodes that start below va_hi.
        const unsigned first =
            va_lo > va_base
                ? static_cast<unsigned>((va_lo - va_base) / slot_span)
                : 0;
        const auto stop = static_cast<unsigned>(std::min<std::uint64_t>(
            entriesPerNode, (va_hi - va_base + slot_span - 1) / slot_span));
        std::uint64_t visited = 0;
        if (level == 0) {
            for (unsigned i = first; i < stop && visited < max_visits;
                 ++i) {
                std::uint64_t &slot = node.slots[i];
                if (!(slot & bitPresent))
                    continue;
                ++visited;
                visit(va_base + slot_span * i, decodeLeaf(slot));
                if (clear_accessed)
                    slot &= ~bitAccessed;
            }
            return visited;
        }
        for (unsigned i = first; i < stop && visited < max_visits; ++i) {
            const std::uint64_t slot = node.slots[i];
            if (!(slot & bitPresent))
                continue;
            Node *child = reinterpret_cast<Node *>(slot & ptrMask);
            visited += scanNode(*child, level - 1, va_base + slot_span * i,
                                va_lo, va_hi, visit, clear_accessed,
                                max_visits - visited);
        }
        return visited;
    }

    TableAccounting accounting_;
    std::unique_ptr<Node> root_;
    /**
     * Owns every non-root node. Slots still hold encoded raw child
     * pointers (they model packed PTEs), but lifetime lives here, not
     * in a hand-rolled destructor recursion.
     */
    std::vector<std::unique_ptr<Node>> node_pool_;
    std::uint64_t mapped_ = 0;
    std::uint64_t node_count_ = 0;

    /**
     * One-entry translation cache: the last level-1 node reached by a
     * walk, tagged by vaddr >> (pageShift + bitsPerLevel). Nodes are
     * never reclaimed while the table lives (unmap only clears leaf
     * slots), so a hit can never be stale. Accesses cluster within a
     * 2 MiB leaf span, which makes the upper three levels of most
     * walks redundant.
     */
    mutable std::uint64_t leaf_tag_ = ~std::uint64_t(0);
    mutable Node *leaf_node_ = nullptr;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_PAGE_TABLE_HH
