#include "vmm/p2m.hh"

#include "sim/log.hh"

namespace hos::vmm {

P2m::P2m(std::uint64_t num_gpfns)
    : map_(num_gpfns, mem::invalidMfn), tier_(num_gpfns, 0xff)
{
}

void
P2m::set(Gpfn gpfn, mem::Mfn mfn, mem::MemType tier)
{
    hos_assert(gpfn < map_.size(), "gpfn out of P2M range");
    hos_assert(mfn != mem::invalidMfn, "mapping invalid MFN");
    hos_assert(static_cast<std::size_t>(tier) < tier_count_.size(),
               "bad memory tier %u", static_cast<unsigned>(tier));
    if (map_[gpfn] == mem::invalidMfn) {
        ++populated_count_;
    } else {
        // Retarget (migration): drop the old tier count.
        --tier_count_[tier_[gpfn]];
    }
    map_[gpfn] = mfn;
    tier_[gpfn] = static_cast<std::uint8_t>(tier);
    ++tier_count_[static_cast<std::size_t>(tier)];
}

void
P2m::clear(Gpfn gpfn)
{
    hos_assert(gpfn < map_.size(), "gpfn out of P2M range");
    hos_assert(map_[gpfn] != mem::invalidMfn, "clearing unmapped gpfn");
    --tier_count_[tier_[gpfn]];
    map_[gpfn] = mem::invalidMfn;
    tier_[gpfn] = 0xff;
    --populated_count_;
}

bool
P2m::populated(Gpfn gpfn) const
{
    hos_assert(gpfn < map_.size(), "gpfn out of P2M range");
    return map_[gpfn] != mem::invalidMfn;
}

mem::Mfn
P2m::mfnOf(Gpfn gpfn) const
{
    hos_assert(gpfn < map_.size(), "gpfn out of P2M range");
    return map_[gpfn];
}

mem::MemType
P2m::tierOf(Gpfn gpfn) const
{
    hos_assert(populated(gpfn), "tier of unpopulated gpfn");
    return static_cast<mem::MemType>(tier_[gpfn]);
}

std::uint64_t
P2m::populatedOfTier(mem::MemType t) const
{
    return tier_count_[static_cast<std::size_t>(t)];
}

} // namespace hos::vmm
