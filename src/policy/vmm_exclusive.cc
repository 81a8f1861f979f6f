#include "policy/vmm_exclusive.hh"

#include "sim/log.hh"

namespace hos::policy {

VmmExclusivePolicy::VmmExclusivePolicy(vmm::HotnessConfig hotness)
    : hotness_(hotness)
{
}

void
VmmExclusivePolicy::configureGuest(guestos::GuestConfig &cfg) const
{
    // Collapse the topology: the guest sees one homogeneous node
    // covering both tiers' capacity (heterogeneity hidden).
    std::uint64_t max_bytes = 0;
    std::uint64_t initial_bytes = 0;
    for (const auto &nc : cfg.nodes) {
        max_bytes += nc.max_bytes;
        initial_bytes += nc.initial_bytes;
    }
    cfg.nodes.clear();
    guestos::GuestNodeConfig nc;
    nc.type = mem::MemType::SlowMem; // nominal; backing is the truth
    nc.max_bytes = max_bytes;
    nc.initial_bytes = initial_bytes;
    cfg.nodes.push_back(nc);

    cfg.alloc.mode = guestos::AllocMode::SlowOnly;
    cfg.alloc.balloon_on_pressure = false;
    cfg.lru.enabled = false;
}

void
VmmExclusivePolicy::configureVm(vmm::VmConfig &cfg) const
{
    cfg.hide_heterogeneity = true;
    cfg.backing_order = {mem::MemType::SlowMem, mem::MemType::FastMem};
}

void
VmmExclusivePolicy::attach(vmm::Vmm &vmm, vmm::VmId id,
                           guestos::GuestKernel &kernel)
{
    auto &vm = vmm.vm(id);
    tracker_ = vmm::makeHotnessTracker(vm, hotness_);
    engine_ = std::make_unique<vmm::MigrationEngine>(vmm);

    // The guest's view of node types is a lie; truth is the P2M.
    kernel.setBackingOracle([&vm](guestos::Gpfn pfn) {
        return vm.p2m().populated(pfn) ? vm.p2m().tierOf(pfn)
                                       : mem::MemType::SlowMem;
    });
    // The HeteroVisor loop: scan a batch, promote hot pages (evicting
    // the coldest fast-backed pages when FastMem is full), rate-
    // limited as real migration engines are.
    kernel.events().schedulePeriodic(
        tracker_->interval(), [this, &vm](sim::Duration) {
            tracker_->adaptInterval();
            auto scan = tracker_->scanOnce();
            if (!scan.hot.empty()) {
                engine_->promoteWithEviction(
                    vm, scan.hot,
                    hotness_.promoteBudget(tracker_->interval()));
            }
            return tracker_->interval();
        });
}

} // namespace hos::policy
