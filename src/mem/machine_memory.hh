/**
 * @file
 * Machine (host-physical) memory: frames grouped into per-tier nodes.
 *
 * The VMM owns machine memory. Each heterogeneous tier is one
 * MachineNode holding a frame allocator and the tier's timing device.
 * Guests never see machine frame numbers (MFNs) directly; the VMM's
 * P2M layer maps guest page frames onto MFNs (vmm/p2m.hh).
 */

#ifndef HOS_MEM_MACHINE_MEMORY_HH
#define HOS_MEM_MACHINE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/mem_device.hh"
#include "mem/mem_spec.hh"
#include "sim/stats.hh"

namespace hos::mem {

/** Machine frame number. Globally unique across nodes. */
using Mfn = std::uint64_t;

constexpr Mfn invalidMfn = ~Mfn(0);

/** Owner id for frames (a VM id, or ownerVmm for VMM-held frames). */
using OwnerId = std::uint32_t;
constexpr OwnerId ownerNone = 0;
constexpr OwnerId ownerVmm = 1;
constexpr OwnerId firstVmOwner = 2;

/** One memory tier's frames plus its timing device. */
class MachineNode
{
  public:
    /**
     * @param node_id host node index (also the guest NUMA node id)
     * @param type    role of this tier (FastMem/SlowMem/...)
     * @param spec    capacity and timing
     * @param mfn_base first MFN of this node's contiguous frame range
     */
    MachineNode(unsigned node_id, MemType type, MemTierSpec spec,
                Mfn mfn_base);

    unsigned nodeId() const { return node_id_; }
    MemType type() const { return type_; }
    const MemTierSpec &spec() const { return spec_; }
    MemDevice &device() { return device_; }
    const MemDevice &device() const { return device_; }

    std::uint64_t totalFrames() const { return total_frames_; }
    std::uint64_t freeFrames() const
    {
        return free_.size() + (total_frames_ - fresh_);
    }
    std::uint64_t usedFrames() const { return total_frames_ - freeFrames(); }

    Mfn mfnBase() const { return mfn_base_; }
    bool containsMfn(Mfn mfn) const;

    /** Allocate one frame for `owner`; nullopt when exhausted. */
    std::optional<Mfn> allocFrame(OwnerId owner)
    {
        std::optional<Mfn> out;
        allocFrames(owner, 1, [&out](Mfn mfn, std::uint64_t) { out = mfn; });
        return out;
    }

    /**
     * Allocate up to `n` frames for `owner`, in the order n calls of
     * allocFrame() would return them, and hand them to
     * `run(first, count)` as runs of consecutive MFNs. Returns the
     * frames allocated (fewer than `n` when the node runs dry).
     */
    template <class RunFn>
    std::uint64_t allocFrames(OwnerId owner, std::uint64_t n, RunFn &&run);

    /** Return a frame. Panics on double-free or foreign MFN. */
    void freeFrame(Mfn mfn);

    /** Owner of a frame (ownerNone when free). */
    OwnerId frameOwner(Mfn mfn) const;

    /** Frames currently owned by `owner`. */
    std::uint64_t framesOwnedBy(OwnerId owner) const;

  private:
    std::size_t indexOf(Mfn mfn) const;
    /** Give frames [first, first + n) to `owner`. */
    void claim(OwnerId owner, Mfn first, std::uint64_t n);

    unsigned node_id_;
    MemType type_;
    MemTierSpec spec_;
    MemDevice device_;
    Mfn mfn_base_;
    std::uint64_t total_frames_;
    /**
     * The free frames form one LIFO stack: the freed frames in free_
     * (top at the back) above the frames never handed out,
     * [fresh_, total_frames_) by index, which pop in ascending order.
     * A fresh node is all cursor and no stack.
     */
    std::vector<Mfn> free_;
    std::uint64_t fresh_ = 0;
    std::vector<OwnerId> owner_;
    std::vector<std::uint64_t> owned_count_;
};

template <class RunFn>
std::uint64_t
MachineNode::allocFrames(OwnerId owner, std::uint64_t n, RunFn &&run)
{
    n = std::min(n, freeFrames());
    std::uint64_t left = n;
    while (left > 0 && !free_.empty()) {
        const Mfn first = free_.back();
        std::uint64_t len = 0;
        do {
            free_.pop_back();
            ++len;
        } while (len < left && !free_.empty() && free_.back() == first + len);
        claim(owner, first, len);
        run(first, len);
        left -= len;
    }
    if (left > 0) {
        const Mfn first = mfn_base_ + fresh_;
        fresh_ += left;
        claim(owner, first, left);
        run(first, left);
    }
    return n;
}

/** The host's collection of memory nodes (one per tier instance). */
class MachineMemory
{
  public:
    MachineMemory() = default;

    /** Append a node; returns its node id. MFN ranges never overlap. */
    unsigned addNode(MemType type, MemTierSpec spec);

    std::size_t numNodes() const { return nodes_.size(); }
    MachineNode &node(unsigned id);
    const MachineNode &node(unsigned id) const;

    /** First node of the given type; panics if absent. */
    MachineNode &nodeByType(MemType type);
    const MachineNode &nodeByType(MemType type) const;
    bool hasType(MemType type) const;

    /** Node owning an MFN; panics for an unmapped MFN. */
    MachineNode &nodeOfMfn(Mfn mfn);

  private:
    std::vector<std::unique_ptr<MachineNode>> nodes_;
    Mfn next_mfn_base_ = 0;
};

} // namespace hos::mem

#endif // HOS_MEM_MACHINE_MEMORY_HH
