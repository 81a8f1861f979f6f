#include "guestos/page.hh"

#include <algorithm>
#include <bit>

namespace hos::guestos {

PageArray::PageArray(std::uint64_t num_pages)
    : size_(num_pages), pte_accessed_((num_pages + 63) >> 6, 0),
      allocated_((num_pages + 63) >> 6, 0),
      populated_((num_pages + 63) >> 6, 0),
      heat_(((num_pages + 63) >> 6) << 6, 0),
      last_touch_(num_pages, 0), meta_(num_pages), rmap_(num_pages)
{
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
