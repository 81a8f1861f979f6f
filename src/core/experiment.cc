#include "core/experiment.hh"

#include "policy/baselines.hh"
#include "policy/coordinated.hh"
#include "policy/heap_io_slab_od.hh"
#include "policy/heap_od.hh"
#include "policy/hetero_lru_policy.hh"
#include "policy/vmm_exclusive.hh"
#include "sim/log.hh"

namespace hos::core {

std::unique_ptr<policy::ManagementPolicy>
makePolicy(Approach a)
{
    switch (a) {
      case Approach::SlowMemOnly:
        return std::make_unique<policy::SlowMemOnlyPolicy>();
      case Approach::FastMemOnly:
        return std::make_unique<policy::FastMemOnlyPolicy>();
      case Approach::Random:
        return std::make_unique<policy::RandomPolicy>();
      case Approach::NumaPreferred:
        return std::make_unique<policy::NumaPreferredPolicy>();
      case Approach::HeapOd:
        return std::make_unique<policy::HeapOdPolicy>();
      case Approach::HeapIoSlabOd:
        return std::make_unique<policy::HeapIoSlabOdPolicy>();
      case Approach::HeteroLru:
        return std::make_unique<policy::HeteroLruPolicy>();
      case Approach::VmmExclusive:
        return std::make_unique<policy::VmmExclusivePolicy>();
      case Approach::Coordinated:
        return std::make_unique<policy::CoordinatedPolicy>();
    }
    sim::panic("unknown approach");
}

std::unique_ptr<policy::ManagementPolicy>
makePolicy(const Scenario &s)
{
    switch (s.approach) {
      case Approach::VmmExclusive:
        return std::make_unique<policy::VmmExclusivePolicy>(
            s.hotness.apply(vmm::HotnessConfig{}));
      case Approach::Coordinated: {
        policy::CoordinatedConfig cfg;
        cfg.hotness =
            s.hotness.apply(policy::CoordinatedConfig::defaultHotness());
        // The ablation switch and the hotness knob are the same bit;
        // an explicit hotness.adaptive override wins.
        cfg.adaptive_interval = cfg.hotness.adaptive;
        return std::make_unique<policy::CoordinatedPolicy>(cfg);
      }
      default:
        return makePolicy(s.approach);
    }
}

std::unique_ptr<HeteroSystem>
systemFor(const Scenario &s)
{
    auto sys = std::make_unique<HeteroSystem>(s.host());
    if (s.profiling)
        sys->enableProfiling();
    if (s.xray)
        sys->enableXray();
    if (s.metrics)
        sys->enableMetrics();
    sys->addVm(makePolicy(s), s.sizing());
    return sys;
}

workload::Workload::Result
run(const Scenario &s, const workload::WorkloadFactory &factory)
{
    auto sys = systemFor(s);
    return sys->runOne(sys->slot(0), factory);
}

workload::Workload::Result
run(const Scenario &s)
{
    return run(s, workload::makeApp(s.app, s.scale));
}

} // namespace hos::core
