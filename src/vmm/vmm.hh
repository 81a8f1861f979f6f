/**
 * @file
 * The hypervisor (VMM).
 *
 * Owns machine memory, registers guest VMs, and implements the
 * back-end half of the split on-demand allocation driver (Figure 5):
 * every populate request flows through the pluggable fairness policy
 * (weighted DRF by default, single-resource max-min as the baseline)
 * before machine frames are granted.
 *
 * A VM may be registered heterogeneity-hidden (hide_heterogeneity):
 * the guest then sees one homogeneous node while the VMM backs its
 * pages from whichever tier it pleases — exactly the HeteroVisor
 * (VMM-exclusive) model the paper compares against.
 */

#ifndef HOS_VMM_VMM_HH
#define HOS_VMM_VMM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "guestos/hypercalls.hh"
#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "sim/stats.hh"
#include "vmm/p2m.hh"

namespace hos::vmm {

using VmId = std::uint32_t;

class Vmm;
class VmContext;

/** Per-type reservation contract of a VM. */
struct MemReservation
{
    mem::MemType type = mem::MemType::SlowMem;
    std::uint64_t min_pages = 0; ///< guaranteed (paid-for) share
    std::uint64_t max_pages = 0; ///< ceiling reachable via overcommit
    double weight = 1.0;         ///< DRF resource weight
};

/** VM registration parameters. */
struct VmConfig
{
    std::string name = "vm";
    std::vector<MemReservation> reservations;
    /** HeteroVisor mode: guest sees one homogeneous memory. */
    bool hide_heterogeneity = false;
    /** Backing preference for hidden VMs (first = tried first). */
    std::vector<mem::MemType> backing_order = {mem::MemType::SlowMem,
                                               mem::MemType::FastMem};
};

/**
 * Multi-VM memory fairness policy (Section 4.2). approve() may
 * reclaim pages from other VMs (via their balloons) to make room.
 */
class FairnessPolicy
{
  public:
    virtual ~FairnessPolicy() = default;
    virtual const char *name() const = 0;

    /**
     * How many of `n` requested pages of `t` the requester may get.
     * The policy may first balloon-reclaim overcommitted pages from
     * other VMs through `vmm`.
     */
    virtual std::uint64_t approve(Vmm &vmm, VmContext &requester,
                                  mem::MemType t, std::uint64_t n) = 0;
};

/** The VMM-side state of one guest VM. */
class VmContext
{
  public:
    VmContext(VmId id, mem::OwnerId owner, guestos::GuestKernel &kernel,
              VmConfig cfg);

    VmId id() const { return id_; }
    mem::OwnerId owner() const { return owner_; }
    guestos::GuestKernel &kernel() { return kernel_; }
    const VmConfig &config() const { return cfg_; }
    P2m &p2m() { return p2m_; }
    const P2m &p2m() const { return p2m_; }

    std::uint64_t minPages(mem::MemType t) const;
    std::uint64_t maxPages(mem::MemType t) const;
    double weight(mem::MemType t) const;

    /** Frames of tier t currently backing this VM. */
    std::uint64_t framesOf(mem::MemType t) const
    {
        return p2m_.populatedOfTier(t);
    }

    /** Gpfns currently backed by FastMem (VMM-migration bookkeeping). */
    std::unordered_set<Gpfn> &fastBacked() { return fast_backed_; }

    /** Cumulative LLC misses reported for this VM (Equation 1 input). */
    std::uint64_t llcMisses() const { return llc_misses_; }
    void reportLlcMisses(std::uint64_t cumulative)
    {
        llc_misses_ = cumulative;
    }

  private:
    friend class Vmm;

    VmId id_;
    mem::OwnerId owner_;
    guestos::GuestKernel &kernel_;
    VmConfig cfg_;
    P2m p2m_;
    std::unordered_set<Gpfn> fast_backed_;
    std::uint64_t llc_misses_ = 0;
};

/** The hypervisor. */
class Vmm
{
  public:
    explicit Vmm(mem::MachineMemory &machine);
    ~Vmm();

    Vmm(const Vmm &) = delete;
    Vmm &operator=(const Vmm &) = delete;

    mem::MachineMemory &machine() { return machine_; }

    /**
     * Register a VM: builds its context, wires the guest's balloon
     * front-end to this VMM, and boot-populates each guest node to
     * its initial reservation.
     */
    VmId registerVm(guestos::GuestKernel &kernel, VmConfig cfg);

    std::size_t numVms() const { return vms_.size(); }
    VmContext &vm(VmId id);

    /** Install the fairness policy (default: first-come free pool). */
    void setFairness(std::unique_ptr<FairnessPolicy> policy);
    FairnessPolicy &fairness() { return *fairness_; }

    /**
     * Back `gpfns` of the VM's guest node with machine frames,
     * gated by the fairness policy. Returns frames granted (prefix).
     */
    std::uint64_t populatePages(VmContext &vm, unsigned guest_node,
                                const guestos::UnpopulatedView &gpfns);

    /** Release the machine frames behind `gpfns`. */
    void unpopulatePages(VmContext &vm, unsigned guest_node,
                         const std::vector<Gpfn> &gpfns);

    std::uint64_t totalFrames(mem::MemType t) const;
    std::uint64_t freeFrames(mem::MemType t) const;
    std::uint64_t usedFrames(mem::MemType t) const;

    /** VMM-side statistics (frame occupancy per tier, per-VM backing). */
    sim::StatGroup &stats() { return stats_; }
    /** Refresh stats_ from live machine/P2M state. */
    void syncStats();

  private:
    /** The adapter a guest balloon front-end talks to. */
    class BalloonAdapter final : public guestos::BalloonBackendIf
    {
      public:
        BalloonAdapter(Vmm &vmm, VmId id) : vmm_(vmm), id_(id) {}

        std::uint64_t
        populatePages(unsigned guest_node,
                      const guestos::UnpopulatedView &gpfns) override
        {
            return vmm_.populatePages(vmm_.vm(id_), guest_node, gpfns);
        }

        void
        unpopulatePages(unsigned guest_node,
                        const std::vector<Gpfn> &gpfns) override
        {
            vmm_.unpopulatePages(vmm_.vm(id_), guest_node, gpfns);
        }

      private:
        Vmm &vmm_;
        VmId id_;
    };

    /** Tier the backing frames for a guest node should come from. */
    mem::MemType backingTier(const VmContext &vm,
                             unsigned guest_node) const;

    mem::MachineMemory &machine_;
    std::unique_ptr<FairnessPolicy> fairness_;
    std::vector<std::unique_ptr<VmContext>> vms_;
    std::vector<std::unique_ptr<BalloonAdapter>> adapters_;
    sim::StatGroup stats_{"vmm"};
};

} // namespace hos::vmm

#endif // HOS_VMM_VMM_HH
