#include "guestos/page.hh"

#include <algorithm>
#include <bit>

namespace hos::guestos {

namespace {

std::uint64_t
totalPages(const std::vector<PageArray::NodeSpan> &spans)
{
    std::uint64_t n = 0;
    for (const auto &s : spans)
        n += s.pages;
    return n;
}

} // namespace

PageArray::PageArray(const std::vector<NodeSpan> &spans)
    : size_(totalPages(spans)), pte_accessed_((size_ + 63) >> 6, 0),
      allocated_((size_ + 63) >> 6, 0), populated_((size_ + 63) >> 6, 0),
      heat_(((size_ + 63) >> 6) << 6, 0), last_touch_(size_, 0),
      rmap_(size_)
{
    // One pass, each page born with its node identity. (A bulk
    // insert of the span measured 2-3x slower than this loop.)
    meta_.reserve(size_);
    for (const auto &s : spans) {
        Meta m;
        m.numa_node = s.numa_node;
        m.mem_type = s.mem_type;
        for (std::uint64_t i = 0; i < s.pages; ++i)
            meta_.push_back(m);
    }
    // Id 0 is reserved for "not on any list".
    list_tags_.push_back(listNone);
}

ListId
PageArray::registerList(ListTag tag)
{
    hos_assert(list_tags_.size() < 0xffffu, "list-id space exhausted");
    list_tags_.push_back(tag);
    return static_cast<ListId>(list_tags_.size() - 1);
}

void
PageArray::setPopulatedRange(Gpfn first, std::uint64_t n)
{
    hos_assert(first <= size_ && n <= size_ - first, "gpfn out of range");
    const Gpfn end = first + n;
    for (Gpfn g = first; g < end;) {
        const unsigned bit = g & 63;
        const std::uint64_t take = std::min<std::uint64_t>(64 - bit, end - g);
        const std::uint64_t ones =
            take == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << take) - 1;
        populated_[g >> 6] |= ones << bit;
        g += take;
    }
}

std::uint32_t
PageArray::allocatedInChunk(std::uint64_t c) const
{
    // chunkShift >= 6, so chunks are whole bitmap words; the trailing
    // partial word of the array is zero-padded past size_.
    const std::uint64_t lo_word = (c << chunkShift) >> 6;
    const std::uint64_t hi_word = std::min<std::uint64_t>(
        allocated_.size(), ((c + 1) << chunkShift) >> 6);
    std::uint32_t n = 0;
    for (std::uint64_t w = lo_word; w < hi_word; ++w)
        n += static_cast<std::uint32_t>(std::popcount(allocated_[w]));
    return n;
}

} // namespace hos::guestos
