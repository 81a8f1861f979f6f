#include "vmm/vmm.hh"

#include <algorithm>

#include "sim/log.hh"
#include "trace/trace.hh"

namespace hos::vmm {

namespace {

/** Default policy: first come, first served from the free pool. */
class FreePoolPolicy final : public FairnessPolicy
{
  public:
    const char *name() const override { return "free-pool"; }

    std::uint64_t
    approve(Vmm &vmm, VmContext &requester, mem::MemType t,
            std::uint64_t n) override
    {
        (void)requester;
        return std::min(n, vmm.freeFrames(t));
    }
};

} // namespace

VmContext::VmContext(VmId id, mem::OwnerId owner,
                     guestos::GuestKernel &kernel, VmConfig cfg)
    : id_(id), owner_(owner), kernel_(kernel), cfg_(std::move(cfg)),
      p2m_(kernel.pages().size())
{
}

std::uint64_t
VmContext::minPages(mem::MemType t) const
{
    for (const auto &r : cfg_.reservations) {
        if (r.type == t)
            return r.min_pages;
    }
    return 0;
}

std::uint64_t
VmContext::maxPages(mem::MemType t) const
{
    for (const auto &r : cfg_.reservations) {
        if (r.type == t)
            return r.max_pages;
    }
    return 0;
}

double
VmContext::weight(mem::MemType t) const
{
    for (const auto &r : cfg_.reservations) {
        if (r.type == t)
            return r.weight;
    }
    return 1.0;
}

Vmm::Vmm(mem::MachineMemory &machine)
    : machine_(machine), fairness_(std::make_unique<FreePoolPolicy>())
{
}

Vmm::~Vmm() = default;

VmId
Vmm::registerVm(guestos::GuestKernel &kernel, VmConfig cfg)
{
    const auto id = static_cast<VmId>(vms_.size());
    const auto owner =
        static_cast<mem::OwnerId>(mem::firstVmOwner + id);

    // Default the reservation contract from the guest's boot config
    // when the caller didn't spell one out.
    if (cfg.reservations.empty()) {
        if (cfg.hide_heterogeneity) {
            // The guest's node types are nominal; allow backing from
            // any tier in the backing order, up to the guest's size.
            std::uint64_t total = 0;
            for (const auto &nc : kernel.config().nodes)
                total += mem::bytesToPages(nc.max_bytes);
            for (mem::MemType t : cfg.backing_order) {
                MemReservation r;
                r.type = t;
                r.min_pages = 0;
                r.max_pages = total;
                r.weight = t == mem::MemType::FastMem ? 2.0 : 1.0;
                cfg.reservations.push_back(r);
            }
        } else {
            for (const auto &nc : kernel.config().nodes) {
                MemReservation r;
                r.type = nc.type;
                r.min_pages = mem::bytesToPages(nc.initial_bytes);
                r.max_pages = mem::bytesToPages(nc.max_bytes);
                r.weight = nc.type == mem::MemType::FastMem ? 2.0 : 1.0;
                cfg.reservations.push_back(r);
            }
        }
    }

    vms_.push_back(
        std::make_unique<VmContext>(id, owner, kernel, std::move(cfg)));
    adapters_.push_back(std::make_unique<BalloonAdapter>(*this, id));
    kernel.balloon().attachBackend(adapters_.back().get());

    // Boot: populate each guest node to its initial reservation.
    for (unsigned nid = 0; nid < kernel.numNodes(); ++nid) {
        const auto &nc = kernel.config().nodes[nid];
        const std::uint64_t initial = mem::bytesToPages(nc.initial_bytes);
        if (initial > 0)
            kernel.balloon().bootPopulate(nid, initial);
    }
    return id;
}

VmContext &
Vmm::vm(VmId id)
{
    hos_assert(id < vms_.size(), "bad VM id");
    return *vms_[id];
}

void
Vmm::setFairness(std::unique_ptr<FairnessPolicy> policy)
{
    hos_assert(policy != nullptr, "null fairness policy");
    fairness_ = std::move(policy);
}

mem::MemType
Vmm::backingTier(const VmContext &vm, unsigned guest_node) const
{
    if (!vm.cfg_.hide_heterogeneity) {
        // Heterogeneity-aware guest: node identity IS the tier.
        return vm.kernel_.config().nodes.at(guest_node).type;
    }
    // Hidden: first tier in the backing order with free frames.
    for (mem::MemType t : vm.cfg_.backing_order) {
        if (machine_.hasType(t) && freeFrames(t) > 0)
            return t;
    }
    return vm.cfg_.backing_order.front();
}

std::uint64_t
Vmm::populatePages(VmContext &vm, unsigned guest_node,
                   const guestos::UnpopulatedView &gpfns)
{
    if (gpfns.empty())
        return 0;

    std::uint64_t granted_total = 0;
    std::uint64_t idx = 0;

    // Hidden VMs may need to split a request across tiers as one runs
    // out; visible VMs resolve to a single tier.
    while (idx < gpfns.size()) {
        const mem::MemType tier = backingTier(vm, guest_node);
        const std::uint64_t want = gpfns.size() - idx;

        // Contract ceiling for this tier.
        const std::uint64_t have = vm.framesOf(tier);
        const std::uint64_t cap = vm.maxPages(tier);
        const std::uint64_t headroom = cap > have ? cap - have : 0;
        std::uint64_t ask = std::min(want, headroom);
        if (ask == 0)
            break;

        const std::uint64_t approved =
            fairness_->approve(*this, vm, tier, ask);
        if (approved == 0)
            break;

        mem::MachineNode &node = machine_.nodeByType(tier);
        const std::uint64_t got = node.allocFrames(
            vm.owner(), approved, [&](mem::Mfn mfn, std::uint64_t n) {
                // Map each run of frames onto the ascending gpfn runs
                // of the view it covers.
                while (n > 0) {
                    const std::uint64_t run = gpfns.ascendingRun(idx, n);
                    const Gpfn first = gpfns[idx];
                    // Populate, not a retarget: the guest rings xray
                    // via onAlloc when it hands the frame out, and the
                    // recorder skips frames it is not tracking.
                    // hos-analyze: tier-xray (populate; guest onAlloc rings)
                    vm.p2m_.setRun(first, mfn, run, tier);
                    if (tier == mem::MemType::FastMem) {
                        for (std::uint64_t i = 0; i < run; ++i)
                            vm.fast_backed_.insert(first + i);
                    }
                    idx += run;
                    mfn += run;
                    n -= run;
                }
            });
        granted_total += got;
        if (got < approved)
            break; // tier genuinely drained mid-request
    }
    trace::emit(trace::EventType::HypercallPopulate,
                vm.kernel_.events().now(), guest_node, gpfns.size(),
                granted_total, 0, static_cast<std::uint16_t>(vm.id()));
    return granted_total;
}

void
Vmm::unpopulatePages(VmContext &vm, unsigned guest_node,
                     const std::vector<Gpfn> &gpfns)
{
    for (Gpfn gpfn : gpfns) {
        hos_assert(vm.p2m_.populated(gpfn),
                   "unpopulating an unbacked gpfn");
        const mem::Mfn mfn = vm.p2m_.mfnOf(gpfn);
        machine_.nodeOfMfn(mfn).freeFrame(mfn);
        if (vm.p2m_.tierOf(gpfn) == mem::MemType::FastMem)
            vm.fast_backed_.erase(gpfn);
        // Unpopulate, not a retarget: the guest rang xray via onFree
        // before releasing the frame.
        // hos-analyze: tier-xray (unpopulate; guest onFree rang)
        vm.p2m_.clear(gpfn);
    }
    trace::emit(trace::EventType::HypercallUnpopulate,
                vm.kernel_.events().now(), guest_node, gpfns.size(), 0,
                0, static_cast<std::uint16_t>(vm.id()));
}

std::uint64_t
Vmm::totalFrames(mem::MemType t) const
{
    if (!machine_.hasType(t))
        return 0;
    return machine_.nodeByType(t).totalFrames();
}

std::uint64_t
Vmm::freeFrames(mem::MemType t) const
{
    if (!machine_.hasType(t))
        return 0;
    return machine_.nodeByType(t).freeFrames();
}

std::uint64_t
Vmm::usedFrames(mem::MemType t) const
{
    return totalFrames(t) - freeFrames(t);
}

void
Vmm::syncStats()
{
    for (std::size_t i = 0; i < mem::numMemTypes; ++i) {
        const auto t = static_cast<mem::MemType>(i);
        if (!machine_.hasType(t))
            continue;
        const std::string tier = mem::memTypeName(t);
        stats_.gauge(tier + ".total_frames").set(
            static_cast<std::int64_t>(totalFrames(t)));
        stats_.gauge(tier + ".used_frames").set(
            static_cast<std::int64_t>(usedFrames(t)));
        stats_.gauge(tier + ".free_frames").set(
            static_cast<std::int64_t>(freeFrames(t)));
    }
    for (const auto &vm : vms_) {
        const std::string prefix =
            "vm" + std::to_string(vm->id());
        stats_.gauge(prefix + ".fast_backed").set(
            static_cast<std::int64_t>(vm->fast_backed_.size()));
        stats_.gauge(prefix + ".populated").set(
            static_cast<std::int64_t>(vm->p2m_.populatedCount()));
    }
}

} // namespace hos::vmm
