#include "guestos/page_table.hh"

#include <algorithm>

namespace hos::guestos {

namespace {

std::uint64_t
makeLeaf(Gpfn pfn, bool writable)
{
    return (pfn << PageTable::pfnShift) | PageTable::bitPresent |
           (writable ? PageTable::bitRw : 0);
}

} // namespace

PageTable::PageTable(TableAccounting accounting)
    : accounting_(std::move(accounting)), root_(std::make_unique<Node>())
{
    node_count_ = 1;
    if (accounting_)
        accounting_(1);
}

PageTable::~PageTable()
{
    // Non-root nodes are owned by node_pool_; slots only carry
    // encoded borrows.
    if (accounting_)
        accounting_(-static_cast<std::int64_t>(node_count_));
}

unsigned
PageTable::levelIndex(std::uint64_t vaddr, unsigned level)
{
    return static_cast<unsigned>(
        (vaddr >> (mem::pageShift + bitsPerLevel * level)) &
        (entriesPerNode - 1));
}

PageTable::Node *
PageTable::childOf(const Node &n, unsigned idx) const
{
    const std::uint64_t slot = n.slots[idx];
    if (!(slot & bitPresent))
        return nullptr;
    return reinterpret_cast<Node *>(slot & ptrMask);
}

PageTable::Node *
PageTable::ensureChild(Node &n, unsigned idx)
{
    if (Node *c = childOf(n, idx))
        return c;
    node_pool_.push_back(std::make_unique<Node>());
    Node *c = node_pool_.back().get();
    n.slots[idx] =
        (reinterpret_cast<std::uint64_t>(c) & ptrMask) | bitPresent;
    ++n.used;
    ++node_count_;
    if (accounting_)
        accounting_(1);
    return c;
}

PageTable::Node *
PageTable::leafNode(std::uint64_t vaddr) const
{
    const std::uint64_t tag = vaddr >> (mem::pageShift + bitsPerLevel);
    if (tag == leaf_tag_)
        return leaf_node_;
    Node *n = root_.get();
    for (unsigned level = levels - 1; level > 0; --level) {
        n = childOf(*n, levelIndex(vaddr, level));
        if (!n)
            return nullptr;
    }
    leaf_tag_ = tag;
    leaf_node_ = n;
    return n;
}

std::uint64_t *
PageTable::leafSlot(std::uint64_t vaddr) const
{
    Node *n = leafNode(vaddr);
    if (!n)
        return nullptr;
    return &n->slots[levelIndex(vaddr, 0)];
}

std::uint64_t &
PageTable::mapSlot(std::uint64_t vaddr)
{
    hos_assert(vaddr < vaSpan, "vaddr outside table span");
    const std::uint64_t tag = vaddr >> (mem::pageShift + bitsPerLevel);
    Node *n;
    if (tag == leaf_tag_) {
        n = leaf_node_;
    } else {
        n = root_.get();
        for (unsigned level = levels - 1; level > 0; --level)
            n = ensureChild(*n, levelIndex(vaddr, level));
        leaf_tag_ = tag;
        leaf_node_ = n;
    }
    std::uint64_t &slot = n->slots[levelIndex(vaddr, 0)];
    hos_assert(!(slot & bitPresent), "overmapping vaddr");
    ++n->used;
    ++mapped_;
    return slot;
}

void
PageTable::map(std::uint64_t vaddr, Gpfn pfn, bool writable)
{
    mapSlot(vaddr) = makeLeaf(pfn, writable);
}

void
PageTable::mapTouched(std::uint64_t vaddr, Gpfn pfn, bool write)
{
    mapSlot(vaddr) =
        makeLeaf(pfn, true) | bitAccessed | (write ? bitDirty : 0);
}

std::optional<Gpfn>
PageTable::unmap(std::uint64_t vaddr)
{
    std::uint64_t *slot = leafSlot(vaddr);
    if (!slot || !(*slot & bitPresent))
        return std::nullopt;
    const Gpfn pfn = *slot >> pfnShift;
    *slot = 0;
    hos_assert(mapped_ > 0, "unmap accounting underflow");
    --mapped_;
    return pfn;
}

void
PageTable::unmapRange(std::uint64_t vaddr, std::uint64_t n,
                      std::vector<Gpfn> &out)
{
    while (n > 0) {
        const unsigned first = levelIndex(vaddr, 0);
        const std::uint64_t span =
            std::min<std::uint64_t>(n, entriesPerNode - first);
        if (Node *leaf = leafNode(vaddr)) {
            for (unsigned i = first; i < first + span; ++i) {
                std::uint64_t &slot = leaf->slots[i];
                if (!(slot & bitPresent))
                    continue;
                out.push_back(slot >> pfnShift);
                slot = 0;
                hos_assert(mapped_ > 0, "unmap accounting underflow");
                --mapped_;
            }
        }
        vaddr += span * mem::pageSize;
        n -= span;
    }
}

std::uint64_t
PageTable::unmappedRun(std::uint64_t vaddr, std::uint64_t max) const
{
    std::uint64_t run = 0;
    while (run < max) {
        const unsigned first = levelIndex(vaddr, 0);
        const std::uint64_t span =
            std::min<std::uint64_t>(max - run, entriesPerNode - first);
        if (const Node *leaf = leafNode(vaddr)) {
            for (unsigned i = first; i < first + span; ++i) {
                if (leaf->slots[i] & bitPresent)
                    return run + (i - first);
            }
        }
        run += span;
        vaddr += span * mem::pageSize;
    }
    return run;
}

std::optional<PteView>
PageTable::lookup(std::uint64_t vaddr) const
{
    const std::uint64_t *slot = leafSlot(vaddr);
    if (!slot || !(*slot & bitPresent))
        return std::nullopt;
    return decodeLeaf(*slot);
}

bool
PageTable::isMapped(std::uint64_t vaddr) const
{
    const std::uint64_t *slot = leafSlot(vaddr);
    return slot && (*slot & bitPresent);
}

bool
PageTable::touch(std::uint64_t vaddr, bool write)
{
    std::uint64_t *slot = leafSlot(vaddr);
    if (!slot || !(*slot & bitPresent))
        return false;
    *slot |= bitAccessed;
    if (write)
        *slot |= bitDirty;
    return true;
}

bool
PageTable::remap(std::uint64_t vaddr, Gpfn new_pfn)
{
    std::uint64_t *slot = leafSlot(vaddr);
    if (!slot || !(*slot & bitPresent))
        return false;
    const std::uint64_t flags = *slot & (bitPresent | bitRw);
    // Remap drops accessed/dirty: the migration path copies data and
    // the hardware re-marks on next touch.
    *slot = (new_pfn << pfnShift) | flags;
    return true;
}

} // namespace hos::guestos
