/**
 * @file
 * HeteroSystem: the top-level public API.
 *
 * Assembles a simulated host (heterogeneous machine memory + VMM),
 * adds guest VMs under chosen management policies, and runs workloads
 * — one VM at a time or several in lockstep with device contention.
 * This is the entry point examples and benches use:
 *
 *   core::HostConfig host;                    // tiers, LLC
 *   core::HeteroSystem sys(host);
 *   auto &vm = sys.addVm(std::make_unique<policy::CoordinatedPolicy>(),
 *                        core::GuestSizing{});
 *   auto result = sys.runOne(vm, workload::makeApp(AppId::GraphChi));
 */

#ifndef HOS_CORE_HETERO_SYSTEM_HH
#define HOS_CORE_HETERO_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/cache_model.hh"
#include "mem/machine_memory.hh"
#include "metrics/metrics.hh"
#include "policy/placement_policy.hh"
#include "prof/prof.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"
#include "xray/xray.hh"

namespace hos::core {

/** Host hardware configuration. */
struct HostConfig
{
    mem::MemTierSpec fast = mem::dramSpec(4 * mem::gib);
    mem::MemTierSpec slow = mem::defaultSlowMemSpec(8 * mem::gib);
    /** Optional middle tier (paper §4.3 multi-level memories). */
    mem::MemTierSpec medium = mem::throttledSpec(2.0, 3.0, 4 * mem::gib);
    bool has_fast = true;
    bool has_slow = true;
    bool has_medium = false;
    mem::CacheConfig llc{16 * mem::mib, 16};
};

/** Guest VM sizing. */
struct GuestSizing
{
    /** 0 = inherit the host tier capacity. */
    std::uint64_t fast_max = 0;
    std::uint64_t fast_initial = ~std::uint64_t(0); ///< ~0 = fast_max
    std::uint64_t slow_max = 0;
    std::uint64_t slow_initial = ~std::uint64_t(0);
    unsigned cpus = 16;
    std::uint64_t seed = 1;
    std::string name = "guest";
};

/** A host with heterogeneous memory, a VMM, and guest VMs. */
class HeteroSystem
{
  public:
    explicit HeteroSystem(HostConfig cfg);
    ~HeteroSystem();

    HeteroSystem(const HeteroSystem &) = delete;
    HeteroSystem &operator=(const HeteroSystem &) = delete;

    /** One VM plus its policy and (shared-slice) LLC model. */
    struct VmSlot
    {
        std::unique_ptr<policy::ManagementPolicy> policy;
        std::unique_ptr<guestos::GuestKernel> kernel;
        std::unique_ptr<mem::CacheModel> llc;
        vmm::VmId id = 0;
    };

    mem::MachineMemory &machine() { return machine_; }
    vmm::Vmm &vmm() { return *vmm_; }
    const HostConfig &config() const { return cfg_; }

    /**
     * Every stat group in the system — the VMM's and one per guest
     * kernel — with refresh hooks that sync them from live state.
     * The stats-snapshot daemon samples this registry.
     */
    sim::StatRegistry &statRegistry() { return registry_; }

    /**
     * Create and register a VM managed by `policy`. The guest's node
     * layout derives from the host tiers and `sizing`; the policy
     * then adjusts it (e.g., VMM-exclusive collapses it).
     */
    VmSlot &addVm(std::unique_ptr<policy::ManagementPolicy> policy,
                  GuestSizing sizing = {});

    std::size_t numVms() const { return slots_.size(); }
    VmSlot &slot(std::size_t i) { return *slots_[i]; }

    /**
     * Opt this system into its own trace sink: while runOne/runMany
     * execute, events emitted on the running thread land in
     * traceSink() instead of the process-wide trace::tracer().
     * Multiple systems (e.g. parallel sweep points) each keep their
     * own event stream. Systems that never call this keep the legacy
     * behavior — events go to the global tracer if it is enabled.
     */
    void enableTracing(
        std::uint32_t mask = static_cast<std::uint32_t>(
            trace::Category::All));
    bool tracingEnabled() const { return trace_enabled_; }

    /** This system's private trace ring (see enableTracing). */
    trace::Tracer &traceSink() { return tracer_; }

    /**
     * Opt this system into span profiling: while runOne/runMany
     * execute, HOS_PROF_SPAN spans and kernel charges on the running
     * thread attribute into profiler() (a per-system ledger, isolated
     * exactly like the trace sink). Registers the "prof" stat group
     * with statRegistry(). No-op in HOS_PROF=off builds beyond the
     * bookkeeping flag.
     */
    void enableProfiling();
    bool profilingEnabled() const { return prof_enabled_; }

    /** This system's span ledger (see enableProfiling). */
    prof::Profiler &profiler() { return profiler_; }

    /**
     * Opt this system into placement x-ray telemetry: while
     * runOne/runMany execute, the xray hooks on the running thread
     * feed xrayRecorder() (per-system, isolated like the trace sink
     * and profiler). Existing VMs' live pages are seeded into the
     * shadow immediately; VMs added later seed on creation. Registers
     * the "xray" stat group with statRegistry() and cross-checks the
     * shadow against page truth (check::auditXray) after every run.
     * No-op beyond the flag in HOS_XRAY=off builds.
     */
    void enableXray(xray::XrayConfig cfg = {});
    bool xrayEnabled() const { return xray_enabled_; }

    /** This system's placement recorder (see enableXray). */
    xray::Recorder &xrayRecorder() { return xray_; }

    /**
     * Opt this system into windowed metrics: registers ~10 per-VM
     * signals (tier occupancy, migration/scan/balloon/reclaim cost
     * rates, DRF dominant share, and — when xray is also enabled —
     * misplaced heat mass) and arms a periodic sampler on each VM's
     * event queue. While runOne/runMany execute, workload phase hooks
     * feed metricsCollector() (per-system, isolated like the trace
     * sink), building per-VM slowdown histograms; after every run
     * check::auditMetrics reconciles the aggregates against the
     * kernel's overhead accounts. The sampler actions are read-only,
     * so simulation output is bit-identical with metrics on or off.
     * No-op beyond the flag in HOS_METRICS=off builds.
     */
    void enableMetrics(metrics::MetricsConfig cfg = {});
    bool metricsEnabled() const { return metrics_enabled_; }

    /** This system's metrics collector (see enableMetrics). */
    metrics::Collector &metricsCollector() { return metrics_; }

    /** Build the workload environment for a VM. */
    workload::VmEnv envFor(VmSlot &slot);

    /** Run one workload to completion on one VM. */
    workload::Workload::Result
    runOne(VmSlot &slot, const workload::WorkloadFactory &factory);

    /**
     * Run one workload per VM in lockstep (smallest-elapsed-first
     * interleaving); devices see the number of still-active VMs as
     * contending sharers. Results are indexed like `pairs`.
     */
    std::vector<workload::Workload::Result>
    runMany(const std::vector<
            std::pair<VmSlot *, workload::WorkloadFactory>> &pairs);

  private:
    HostConfig cfg_;
    mem::MachineMemory machine_;
    std::unique_ptr<vmm::Vmm> vmm_;
    std::vector<std::unique_ptr<VmSlot>> slots_;
    /** Seed a VM's live pages into the xray shadow (idempotent). */
    void seedXray(VmSlot &slot);
    /** Register a VM's signals and arm its periodic sampler. */
    void seedMetrics(VmSlot &slot);

    sim::StatRegistry registry_;
    trace::Tracer tracer_;
    prof::Profiler profiler_;
    xray::Recorder xray_;
    metrics::Collector metrics_;
    bool trace_enabled_ = false;
    bool prof_enabled_ = false;
    bool xray_enabled_ = false;
    bool metrics_enabled_ = false;
    unsigned active_vms_ = 1;
};

} // namespace hos::core

#endif // HOS_CORE_HETERO_SYSTEM_HH
