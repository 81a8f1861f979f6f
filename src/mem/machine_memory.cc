#include "mem/machine_memory.hh"

#include "sim/log.hh"

namespace hos::mem {

MachineNode::MachineNode(unsigned node_id, MemType type, MemTierSpec spec,
                         Mfn mfn_base)
    : node_id_(node_id), type_(type), spec_(spec), device_(spec),
      mfn_base_(mfn_base), total_frames_(spec.capacityPages())
{
    hos_assert(total_frames_ > 0, "node must have at least one frame");
    owner_.assign(total_frames_, ownerNone);
}

bool
MachineNode::containsMfn(Mfn mfn) const
{
    return mfn >= mfn_base_ && mfn < mfn_base_ + total_frames_;
}

std::size_t
MachineNode::indexOf(Mfn mfn) const
{
    hos_assert(containsMfn(mfn), "MFN %llu not in node %u",
               static_cast<unsigned long long>(mfn), node_id_);
    return static_cast<std::size_t>(mfn - mfn_base_);
}

void
MachineNode::claim(OwnerId owner, Mfn first, std::uint64_t n)
{
    hos_assert(owner != ownerNone, "frames need a real owner");
    std::fill_n(owner_.begin() +
                    static_cast<std::ptrdiff_t>(first - mfn_base_),
                n, owner);
    if (owner >= owned_count_.size())
        owned_count_.resize(owner + 1, 0);
    owned_count_[owner] += n;
}

void
MachineNode::freeFrame(Mfn mfn)
{
    const std::size_t idx = indexOf(mfn);
    hos_assert(owner_[idx] != ownerNone, "double free of MFN %llu",
               static_cast<unsigned long long>(mfn));
    const OwnerId owner = owner_[idx];
    hos_assert(owned_count_[owner] > 0, "owner accounting underflow");
    --owned_count_[owner];
    owner_[idx] = ownerNone;
    free_.push_back(mfn);
}

OwnerId
MachineNode::frameOwner(Mfn mfn) const
{
    return owner_[indexOf(mfn)];
}

std::uint64_t
MachineNode::framesOwnedBy(OwnerId owner) const
{
    if (owner >= owned_count_.size())
        return 0;
    return owned_count_[owner];
}

unsigned
MachineMemory::addNode(MemType type, MemTierSpec spec)
{
    const auto id = static_cast<unsigned>(nodes_.size());
    const std::uint64_t frames = spec.capacityPages();
    nodes_.push_back(
        std::make_unique<MachineNode>(id, type, std::move(spec),
                                      next_mfn_base_));
    next_mfn_base_ += frames;
    return id;
}

MachineNode &
MachineMemory::node(unsigned id)
{
    hos_assert(id < nodes_.size(), "bad node id %u", id);
    return *nodes_[id];
}

const MachineNode &
MachineMemory::node(unsigned id) const
{
    hos_assert(id < nodes_.size(), "bad node id %u", id);
    return *nodes_[id];
}

MachineNode &
MachineMemory::nodeByType(MemType type)
{
    for (auto &n : nodes_) {
        if (n->type() == type)
            return *n;
    }
    sim::panic("no node of type %s", memTypeName(type));
}

const MachineNode &
MachineMemory::nodeByType(MemType type) const
{
    for (const auto &n : nodes_) {
        if (n->type() == type)
            return *n;
    }
    sim::panic("no node of type %s", memTypeName(type));
}

bool
MachineMemory::hasType(MemType type) const
{
    for (const auto &n : nodes_) {
        if (n->type() == type)
            return true;
    }
    return false;
}

MachineNode &
MachineMemory::nodeOfMfn(Mfn mfn)
{
    for (auto &n : nodes_) {
        if (n->containsMfn(mfn))
            return *n;
    }
    sim::panic("MFN %llu belongs to no node",
               static_cast<unsigned long long>(mfn));
}

} // namespace hos::mem
