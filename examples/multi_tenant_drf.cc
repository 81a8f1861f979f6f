/**
 * @file
 * Scenario: two tenants sharing one heterogeneous-memory host.
 *
 * An out-of-core graph job (GraphChi, Twitter preset: large heap,
 * drifting 1.5 GB working set, SlowMem-dominant) shares the box with
 * a memory-hungry analytics job (Metis, FastMem-dominant). The
 * example contrasts single-resource max-min fairness with the
 * paper's weighted DRF: under max-min the analytics job can balloon
 * away the graph job's SlowMem while staying "fair" on FastMem; DRF
 * treats SlowMem as the graph job's dominant resource and protects
 * its guarantee (the paper's Figure 13 scenario, as an operator
 * would configure it).
 *
 * Run: ./build/examples/multi_tenant_drf [--metrics]
 *        [--backend=pte_scan|region]
 *        [--results=FILE]
 *
 * --metrics enables the hos::metrics collector on both runs;
 * --results writes the DRF run's telemetry as a results JSON whose
 * top-level "metrics" object `hos-inspect timeline` reads directly.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "metrics/metrics.hh"
#include "metrics/report.hh"
#include "sim/table.hh"
#include "vmm/drf.hh"
#include "vmm/max_min.hh"

using namespace hos;

namespace {

struct TenantResult
{
    workload::Workload::Result graph;
    workload::Workload::Result metis;
    std::uint64_t graph_slow_mb; ///< final SlowMem holding
    metrics::MetricsReport metrics; ///< empty unless --metrics
};

TenantResult
runShared(bool use_drf, double scale, bool with_metrics,
          const std::string &backend)
{
    core::HostConfig host;
    host.fast = mem::dramSpec(static_cast<std::uint64_t>(
        scale * 4.0 * static_cast<double>(mem::gib)));
    host.slow = mem::defaultSlowMemSpec(static_cast<std::uint64_t>(
        scale * 8.0 * static_cast<double>(mem::gib)));
    core::HeteroSystem sys(host);
    if (use_drf)
        sys.vmm().setFairness(std::make_unique<vmm::DrfFairness>());
    else
        sys.vmm().setFairness(std::make_unique<vmm::MaxMinFairness>());

    // The store is provisioned tightly (its working set just fits its
    // SlowMem share); the analytics tenant is under-provisioned and
    // will balloon for more — the fairness policy decides at whose
    // expense.
    core::GuestSizing graph_sizing;
    graph_sizing.name = "graph-vm";
    graph_sizing.fast_max = host.fast.capacity_bytes;
    graph_sizing.fast_initial = host.fast.capacity_bytes / 4;
    graph_sizing.slow_max = host.slow.capacity_bytes;
    graph_sizing.slow_initial = host.slow.capacity_bytes / 2;

    core::GuestSizing metis_sizing = graph_sizing;
    metis_sizing.name = "metis-vm";
    metis_sizing.fast_initial = host.fast.capacity_bytes * 3 / 4;
    metis_sizing.slow_initial = host.slow.capacity_bytes / 2;
    metis_sizing.seed = 11;

    if (with_metrics)
        sys.enableMetrics();

    // Route policy construction through the scenario overlay so the
    // hotness backend is swappable (per-VM slowdown comparison in
    // EXPERIMENTS.md).
    core::Scenario policy_spec =
        core::Scenario{}
            .withApproach(core::Approach::Coordinated)
            .withHotnessBackend(backend);
    auto &graph_vm =
        sys.addVm(core::makePolicy(policy_spec), graph_sizing);
    auto &metis_vm =
        sys.addVm(core::makePolicy(policy_spec), metis_sizing);

    auto results = sys.runMany(
        {{&graph_vm, workload::makeGraphchiTwitter(scale)},
         {&metis_vm, workload::makeMetisLarge(scale)}});
    const auto slow_mb =
        sys.vmm().vm(graph_vm.id).framesOf(mem::MemType::SlowMem) *
        mem::pageSize / mem::mib;
    TenantResult tenant{results[0], results[1], slow_mb, {}};
    if (with_metrics)
        tenant.metrics = sys.metricsCollector().report();
    return tenant;
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = 0.25;
    bool with_metrics = false;
    std::string results_file;
    std::string backend = "pte_scan";

    for (int arg = 1; arg < argc; ++arg) {
        const std::string a = argv[arg];
        if (a == "--metrics") {
            with_metrics = true;
        } else if (a.rfind("--results=", 0) == 0) {
            results_file = a.substr(10);
            with_metrics = true;
        } else if (a.rfind("--backend=", 0) == 0) {
            backend = a.substr(10);
        } else {
            std::fprintf(stderr,
                         "unknown option '%s'\nusage: multi_tenant_drf "
                         "[--metrics] [--results=FILE] "
                         "[--backend=pte_scan|region]\n",
                         argv[arg]);
            return 2;
        }
    }
    if (with_metrics && !metrics::metricsCompiled) {
        std::fprintf(stderr,
                     "--metrics requested but this build has "
                     "HOS_METRICS=off\n");
        with_metrics = false;
    }

    const auto maxmin = runShared(false, scale, with_metrics, backend);
    const auto drf = runShared(true, scale, with_metrics, backend);

    sim::Table table("Two tenants, 4:8 FastMem:SlowMem host");
    table.header({"fairness", "GraphChi (runtime s)",
                  "GraphChi SlowMem (MB)", "Metis (runtime s)"});
    table.row({"single-resource max-min",
               sim::Table::num(maxmin.graph.seconds()),
               sim::Table::num(maxmin.graph_slow_mb),
               sim::Table::num(maxmin.metis.seconds())});
    table.row({"weighted DRF", sim::Table::num(drf.graph.seconds()),
               sim::Table::num(drf.graph_slow_mb),
               sim::Table::num(drf.metis.seconds())});
    table.print();

    std::printf("GraphChi runtime under DRF vs max-min: %+.1f%%\n",
                (maxmin.graph.seconds() / drf.graph.seconds() - 1.0) *
                    100.0);
    std::puts("DRF treats each memory type as its own resource: the\n"
              "analytics tenant cannot drain the graph job's dominant\n"
              "SlowMem while staying nominally 'fair' on FastMem.");

    if (!results_file.empty() && !drf.metrics.empty()) {
        std::ofstream os(results_file);
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         results_file.c_str());
            return 2;
        }
        sim::JsonWriter w(os);
        w.beginObject();
        w.kv("example", "multi_tenant_drf");
        w.kv("fairness", "drf");
        w.key("metrics");
        metrics::writeMetricsReport(w, drf.metrics);
        w.endObject();
        os << '\n';
        std::printf("results: %s\n", results_file.c_str());
    }
    return 0;
}
