#include "core/hetero_system.hh"

#include <algorithm>
#include <optional>

#include "check/audit_daemon.hh"
#include "sim/log.hh"
#include "vmm/drf.hh"

namespace hos::core {

namespace {

/**
 * Sim-time between periodic cross-layer audits in HOS_CHECK=full
 * builds. Coarse on purpose: each pass walks every page of every VM.
 */
constexpr sim::Duration kAuditInterval = sim::milliseconds(100);

} // namespace

HeteroSystem::HeteroSystem(HostConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.has_fast)
        machine_.addNode(mem::MemType::FastMem, cfg_.fast);
    if (cfg_.has_medium)
        machine_.addNode(mem::MemType::MediumMem, cfg_.medium);
    if (cfg_.has_slow)
        machine_.addNode(mem::MemType::SlowMem, cfg_.slow);
    hos_assert(machine_.numNodes() > 0, "host needs memory");
    vmm_ = std::make_unique<vmm::Vmm>(machine_);
    registry_.add(&vmm_->stats(), [this] { vmm_->syncStats(); });
}

HeteroSystem::~HeteroSystem() = default;

HeteroSystem::VmSlot &
HeteroSystem::addVm(std::unique_ptr<policy::ManagementPolicy> policy,
                    GuestSizing sizing)
{
    hos_assert(policy != nullptr, "VM needs a policy");

    guestos::GuestConfig gcfg;
    gcfg.name = sizing.name + std::to_string(slots_.size());
    gcfg.cpus = sizing.cpus;
    gcfg.seed = sizing.seed;

    if (cfg_.has_fast) {
        guestos::GuestNodeConfig nc;
        nc.type = mem::MemType::FastMem;
        nc.max_bytes =
            sizing.fast_max ? sizing.fast_max : cfg_.fast.capacity_bytes;
        nc.initial_bytes = sizing.fast_initial == ~std::uint64_t(0)
                               ? nc.max_bytes
                               : sizing.fast_initial;
        gcfg.nodes.push_back(nc);
    }
    if (cfg_.has_medium) {
        guestos::GuestNodeConfig nc;
        nc.type = mem::MemType::MediumMem;
        nc.max_bytes = cfg_.medium.capacity_bytes;
        nc.initial_bytes = nc.max_bytes;
        gcfg.nodes.push_back(nc);
    }
    if (cfg_.has_slow) {
        guestos::GuestNodeConfig nc;
        nc.type = mem::MemType::SlowMem;
        nc.max_bytes =
            sizing.slow_max ? sizing.slow_max : cfg_.slow.capacity_bytes;
        nc.initial_bytes = sizing.slow_initial == ~std::uint64_t(0)
                               ? nc.max_bytes
                               : sizing.slow_initial;
        gcfg.nodes.push_back(nc);
    }

    policy->configureGuest(gcfg);

    auto slot = std::make_unique<VmSlot>();
    slot->policy = std::move(policy);
    slot->kernel = std::make_unique<guestos::GuestKernel>(gcfg);

    vmm::VmConfig vcfg;
    vcfg.name = gcfg.name;
    slot->policy->configureVm(vcfg);
    slot->id = vmm_->registerVm(*slot->kernel, std::move(vcfg));
    // Guest-side xray hooks tag their records with the VMM id, so
    // guest and VMM provenance land in the same per-VM shadow.
    slot->kernel->setVmTag(static_cast<std::uint16_t>(slot->id));
    slot->policy->attach(*vmm_, slot->id, *slot->kernel);

    slots_.push_back(std::move(slot));
    if (xrayEnabled())
        seedXray(*slots_.back());
    if (metricsEnabled())
        seedMetrics(*slots_.back());

    guestos::GuestKernel *kernel = slots_.back()->kernel.get();
    registry_.add(&kernel->stats(), [kernel] { kernel->syncStats(); });

    // Each VM gets an equal slice of the shared LLC; re-slice every
    // resident VM when the population changes.
    mem::CacheConfig slice = cfg_.llc;
    slice.size_bytes = cfg_.llc.size_bytes / slots_.size();
    for (auto &s : slots_)
        s->llc = std::make_unique<mem::CacheModel>(slice);

    return *slots_.back();
}

workload::VmEnv
HeteroSystem::envFor(VmSlot &slot)
{
    workload::VmEnv env;
    env.kernel = slot.kernel.get();
    env.llc = slot.llc.get();
    env.device = [this](mem::MemType t) -> mem::MemDevice & {
        if (machine_.hasType(t))
            return machine_.nodeByType(t).device();
        // Single-tier hosts (FastMem-only baseline): everything is
        // serviced by the tier that exists.
        return machine_.node(0).device();
    };
    env.sharers = [this] { return active_vms_; };
    const vmm::VmId id = slot.id;
    env.report_misses = [this, id](std::uint64_t misses) {
        vmm_->vm(id).reportLlcMisses(misses);
    };
    return env;
}

void
HeteroSystem::enableTracing(std::uint32_t mask)
{
    session_.tracer = &tracer_;
    tracer_.enable(mask);
}

void
HeteroSystem::enableProfiling()
{
    if (profilingEnabled())
        return;
    session_.profiler = &profiler_;
    registry_.add(&profiler_.stats(),
                  [this] { profiler_.syncStats(); });
}

void
HeteroSystem::enableXray(xray::XrayConfig cfg)
{
    // At HOS_XRAY=off the hooks compile away, so the shadow could
    // never match ground truth: stay disabled (empty report, no
    // audit) rather than arm an audit that must fail.
    if (!xray::xrayCompiled || xrayEnabled())
        return;
    session_.recorder = &xray_;
    xray_.enable(cfg);
    registry_.add(&xray_.stats(), [this] { xray_.syncStats(); });
    for (auto &s : slots_)
        seedXray(*s);
}

void
HeteroSystem::enableMetrics(metrics::MetricsConfig cfg)
{
    // At HOS_METRICS=off the workload hooks compile away, so the
    // slowdown accounts could never reconcile: stay disabled (empty
    // report, no audit) rather than arm an audit that must fail.
    if (!metrics::metricsCompiled || metricsEnabled())
        return;
    session_.collector = &metrics_;
    metrics_.enable(cfg);
    registry_.add(&metrics_.stats(), [this] { metrics_.syncStats(); });
    for (auto &s : slots_)
        seedMetrics(*s);
}

void
HeteroSystem::seedMetrics(VmSlot &slot)
{
    if (!metrics::metricsCompiled)
        return;
    guestos::GuestKernel *kernel = slot.kernel.get();
    const std::uint16_t vm = kernel->vmTag();
    const vmm::VmId id = slot.id;

    // Occupancy gauges: machine frames backing the guest per tier,
    // plus the placement-oracle view of fast-backed guest pages.
    metrics_.registerSignal(
        vm, "fast_frames", metrics::SignalKind::Gauge, [this, id] {
            return static_cast<std::int64_t>(
                vmm_->vm(id).framesOf(mem::MemType::FastMem));
        });
    metrics_.registerSignal(
        vm, "slow_frames", metrics::SignalKind::Gauge, [this, id] {
            return static_cast<std::int64_t>(
                vmm_->vm(id).framesOf(mem::MemType::SlowMem));
        });
    metrics_.registerSignal(
        vm, "fast_backed", metrics::SignalKind::Gauge, [this, id] {
            return static_cast<std::int64_t>(
                vmm_->vm(id).fastBacked().size());
        });

    // Management-cost rates: per-window deltas of the kernel's
    // overhead accounts (ns of migration, hotness scanning, balloon
    // work, reclaim, and the all-kinds total).
    auto rate = [&](const char *name, guestos::OverheadKind kind) {
        metrics_.registerSignal(
            vm, name, metrics::SignalKind::Rate, [kernel, kind] {
                return static_cast<std::int64_t>(
                    kernel->overheadTotal(kind));
            });
    };
    rate("migration_ns", guestos::OverheadKind::Migration);
    rate("hot_scan_ns", guestos::OverheadKind::HotScan);
    rate("balloon_ns", guestos::OverheadKind::Balloon);
    rate("reclaim_ns", guestos::OverheadKind::Reclaim);
    metrics_.registerSignal(
        vm, "overhead_ns", metrics::SignalKind::Rate, [kernel] {
            return static_cast<std::int64_t>(
                kernel->overheadGrandTotal());
        });

    // Fairness: DRF dominant share in ppm (integer telemetry of the
    // fairness objective the coordinated policy balances).
    metrics_.registerSignal(
        vm, "drf_share_ppm", metrics::SignalKind::Gauge, [this, id] {
            return static_cast<std::int64_t>(
                vmm::DrfFairness::dominantShare(*vmm_, vmm_->vm(id)) *
                static_cast<double>(metrics::ppmScale));
        });

    // Placement quality, when the xray shadow is live too.
    if (xrayEnabled()) {
        metrics_.registerSignal(
            vm, "misplaced_heat", metrics::SignalKind::Gauge,
            [this, vm] {
                return static_cast<std::int64_t>(
                    xray_.misplacedHeatMass(vm));
            });
    }

    // The periodic sampler rides the VM's own event queue, so samples
    // land at deterministic sim-times interleaved with the daemons.
    // Sampling is read-only; it shifts no simulation state.
    sim::EventQueue &events = kernel->events();
    events.schedulePeriodic(
        metrics_.config().sample_interval,
        [this, vm, &events](sim::Duration period) {
            metrics_.sampleVm(vm, events.now());
            return period;
        });
}

void
HeteroSystem::seedXray(VmSlot &slot)
{
    if (!xray::xrayCompiled)
        return;
    // Pages allocated before enableXray (boot slabs, early heap)
    // enter the shadow here; onAlloc ignores already-live pages, so
    // re-seeding is harmless.
    guestos::GuestKernel &kernel = *slot.kernel;
    const std::uint16_t vm = kernel.vmTag();
    const sim::Tick now = kernel.events().now();
    auto &pages = kernel.pages();
    // One allocation for the whole gpfn space: no hook grows the
    // shadow mid-run.
    xray_.sizeShadow(vm, pages.size());
    for (std::uint64_t pfn = 0; pfn < pages.size(); ++pfn) {
        if (!pages.page(pfn).allocated())
            continue;
        xray_.onAlloc(
            vm, pfn,
            static_cast<std::uint8_t>(kernel.backingOf(pfn)), now);
    }
}

workload::Workload::Result
HeteroSystem::runOne(VmSlot &slot, const workload::WorkloadFactory &factory)
{
    // A stack pair, not a one-element vector: a heap cell held across
    // the run fragments the heap (8 MiB more peak RSS over repeated
    // single-VM runs in hos-bench).
    const RunPair one{&slot, factory};
    return runLockstep({&one, 1}).front();
}

std::vector<workload::Workload::Result>
HeteroSystem::runMany(const std::vector<RunPair> &pairs)
{
    return runLockstep(pairs);
}

std::vector<workload::Workload::Result>
HeteroSystem::runLockstep(std::span<const RunPair> pairs)
{
    const obs::Scope telemetry(session_);

    std::optional<check::AuditDaemon> audit;
    if (check::fullChecksEnabled && !pairs.empty()) {
        audit.emplace(*vmm_, pairs.front().first->kernel->events(),
                      kAuditInterval, &registry_);
        audit->start();
    }

    std::vector<std::unique_ptr<workload::Workload>> wls;
    wls.reserve(pairs.size());
    for (const auto &[slot, factory] : pairs) {
        wls.push_back(factory(envFor(*slot)));
        wls.back()->start();
    }

    // Lockstep: always advance the workload with the smallest local
    // clock, so cross-VM interactions (ballooning, contention) happen
    // in causal order.
    for (;;) {
        workload::Workload *next = nullptr;
        unsigned active = 0;
        for (auto &wl : wls) {
            if (wl->done())
                continue;
            ++active;
            if (!next || wl->elapsed() < next->elapsed())
                next = wl.get();
        }
        if (!next)
            break;
        active_vms_ = active;
        next->step();
    }
    active_vms_ = 1;

    std::vector<workload::Workload::Result> results;
    results.reserve(wls.size());
    for (auto &wl : wls)
        results.push_back(wl->finish());

    // End-of-run audits: the whole VMM at HOS_CHECK=full, plus each
    // enabled consumer against page truth.
    if (check::fullChecksEnabled)
        check::enforce(check::auditVmm(*vmm_, &registry_));
    if (profilingEnabled())
        check::enforce(check::auditProf(profiler_));
    if (xrayEnabled())
        check::enforce(check::auditXray(*vmm_, xray_));
    if (metricsEnabled())
        check::enforce(check::auditMetrics(*vmm_, metrics_));
    return results;
}

} // namespace hos::core
