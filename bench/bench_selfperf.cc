/**
 * @file
 * Simulator self-performance benchmark (host wall-clock, not
 * simulated time).
 *
 * Where every other bench reproduces a paper figure, this one
 * measures the simulator itself: how many simulated nanoseconds each
 * end-to-end scenario advances per host second. Three scenarios
 * cover the three hot regimes:
 *
 *  - coordinated: single-VM HeteroOS-coordinated run (guest/VMM
 *    coordination loop, guided scans, placement sampling);
 *  - two_vm_drf: two VMs (GraphChi + Metis) sharing a host under
 *    weighted-DRF arbitration (ballooning, overcommit churn);
 *  - full_vm_sweep: VMM-exclusive management (full-VM hotness sweeps
 *    over the guest's entire gpfn space).
 *
 * Output: google-benchmark console output, plus a machine-readable
 * summary written to BENCH_selfperf.json (override the path with
 * HOS_SELFPERF_OUT). The file is not overwritten blindly: an existing
 * summary's record is appended to a `history` array before the fresh
 * numbers take the top level, so the checked-in file accumulates the
 * per-PR self-performance trajectory. Reduce iteration time for smoke
 * runs with --benchmark_min_time and HOS_BENCH_SCALE as usual.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "policy/vmm_exclusive.hh"
#include "prof/prof.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "vmm/drf.hh"

using namespace hos;

namespace {

/** Simulated seconds advanced by the runs of one benchmark. */
void
recordSimTime(benchmark::State &state, double sim_seconds)
{
    state.counters["sim_ns_per_host_s"] = benchmark::Counter(
        sim_seconds * 1e9, benchmark::Counter::kIsRate);
    state.counters["sim_s"] = benchmark::Counter(
        sim_seconds, benchmark::Counter::kAvgIterations);
}

void
BM_Coordinated(benchmark::State &state)
{
    const core::Scenario s =
        bench::paperScenario(core::Approach::Coordinated)
            .withName("selfperf-coordinated");
    double sim_seconds = 0.0;
    for (auto _ : state) {
        const auto r = core::run(s);
        sim_seconds += r.seconds();
        benchmark::DoNotOptimize(r.phases);
    }
    recordSimTime(state, sim_seconds);
}

void
BM_FullVmSweep(benchmark::State &state)
{
    // VMM-exclusive over the paper host: the tracker sweeps the whole
    // guest gpfn space every interval. The system is assembled by
    // hand with a default HotnessConfig, as every recorded run was.
    const core::Scenario s =
        bench::paperScenario(core::Approach::VmmExclusive);
    const workload::WorkloadFactory factory =
        workload::makeApp(s.app, s.scale);
    double sim_seconds = 0.0;
    for (auto _ : state) {
        core::HeteroSystem sys(s.host());
        auto &slot = sys.addVm(
            std::make_unique<policy::VmmExclusivePolicy>(
                vmm::HotnessConfig{}),
            s.sizing());
        const auto r = sys.runOne(slot, factory);
        sim_seconds += r.seconds();
        benchmark::DoNotOptimize(r.phases);
    }
    recordSimTime(state, sim_seconds);
}

void
BM_TwoVmDrf(benchmark::State &state)
{
    // Two coordinated VMs overcommitting a shared host under
    // weighted DRF — the heaviest steady-state configuration: two
    // kernels, ballooning, and cross-VM arbitration.
    const double scale = bench::benchScale();
    double sim_seconds = 0.0;
    for (auto _ : state) {
        core::HostConfig host;
        host.fast = mem::dramSpec(bench::scaledBytes(4 * mem::gib));
        host.slow =
            mem::defaultSlowMemSpec(bench::scaledBytes(8 * mem::gib));
        core::HeteroSystem sys(host);
        sys.vmm().setFairness(std::make_unique<vmm::DrfFairness>());

        core::GuestSizing g;
        g.name = "graphchi-vm";
        g.fast_max = bench::scaledBytes(4 * mem::gib);
        g.fast_initial = bench::scaledBytes(1 * mem::gib);
        g.slow_max = bench::scaledBytes(8 * mem::gib);
        g.slow_initial = bench::scaledBytes(4 * mem::gib);

        core::GuestSizing m = g;
        m.name = "metis-vm";
        m.fast_initial = bench::scaledBytes(3 * mem::gib);
        m.seed = 7;

        auto &g_slot = sys.addVm(
            core::makePolicy(core::Approach::Coordinated), g);
        auto &m_slot = sys.addVm(
            core::makePolicy(core::Approach::Coordinated), m);
        const auto results = sys.runMany(
            {{&g_slot, workload::makeGraphchiTwitter(scale)},
             {&m_slot, workload::makeMetisLarge(scale)}});
        for (const auto &r : results)
            sim_seconds += r.seconds();
        benchmark::DoNotOptimize(results.size());
    }
    recordSimTime(state, sim_seconds);
}

/**
 * Console reporter that also captures per-benchmark wall time so the
 * exit hook can write BENCH_selfperf.json.
 */
class SelfperfReporter final : public benchmark::ConsoleReporter
{
  public:
    struct Run
    {
        double real_s = 0.0; ///< host seconds per iteration
        double sim_ns_per_host_s = 0.0;
    };

    void
    ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>
                   &report) override
    {
        for (const auto &r : report) {
            if (r.error_occurred)
                continue;
            Run run;
            const double iters =
                r.iterations > 0 ? static_cast<double>(r.iterations)
                                 : 1.0;
            run.real_s = r.real_accumulated_time / iters;
            auto it = r.counters.find("sim_ns_per_host_s");
            if (it != r.counters.end())
                run.sim_ns_per_host_s = it->second.value;
            runs_[r.benchmark_name()] = run;
        }
        benchmark::ConsoleReporter::ReportRuns(report);
    }

    const std::map<std::string, Run> &runs() const { return runs_; }

  private:
    std::map<std::string, Run> runs_;
};

/**
 * Re-emit a parsed JSON node verbatim — history records are carried
 * forward untouched, whatever fields past PRs recorded. Integer
 * lexemes re-render through the exact source text (doubles would
 * corrupt 64-bit counts); nulls never occur in selfperf summaries.
 */
void
emitValue(sim::JsonWriter &w, const sim::JsonValue &v)
{
    using Kind = sim::JsonValue::Kind;
    switch (v.kind) {
    case Kind::Null:
        w.value("null");
        break;
    case Kind::Bool:
        w.value(v.boolean);
        break;
    case Kind::Number:
        if (v.number_text.find_first_of(".eE") == std::string::npos) {
            if (!v.number_text.empty() && v.number_text[0] == '-')
                w.value(static_cast<std::int64_t>(v.asDouble()));
            else
                w.value(v.asU64());
        } else {
            w.value(v.asDouble());
        }
        break;
    case Kind::String:
        w.value(v.string);
        break;
    case Kind::Array:
        w.beginArray();
        for (const auto &e : v.array)
            emitValue(w, e);
        w.endArray();
        break;
    case Kind::Object:
        w.beginObject();
        for (const auto &[k, e] : v.object) {
            w.key(k);
            emitValue(w, e);
        }
        w.endObject();
        break;
    }
}

/**
 * The prior summary at `path`, split into the records to carry into
 * the new file's `history`: first the old file's own history entries
 * (schema 2), then its top-level record (everything but "schema" and
 * "history" — a schema-1 file contributes its whole body). Missing or
 * malformed files yield an empty history.
 */
std::vector<sim::JsonValue>
priorHistory(const char *path)
{
    std::vector<sim::JsonValue> history;
    const auto prior = sim::jsonParseFile(path);
    if (!prior || !prior->isObject())
        return history;
    if (const auto *h = prior->find("history"); h && h->isArray())
        history = h->array;
    sim::JsonValue latest;
    latest.kind = sim::JsonValue::Kind::Object;
    for (const auto &[k, v] : prior->object) {
        if (k == "schema" || k == "history")
            continue;
        latest.object.emplace_back(k, v);
    }
    if (!latest.object.empty())
        history.push_back(std::move(latest));
    return history;
}

void
writeJson(const SelfperfReporter &rep, const char *path)
{
    const std::vector<sim::JsonValue> history = priorHistory(path);
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "selfperf: cannot write %s\n", path);
        return;
    }
    sim::JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "hos-selfperf-2");
    // The gate compares only records measured at the same scale.
    w.kv("scale", bench::benchScale());
    w.key("runs");
    w.beginObject();
    for (const auto &[name, run] : rep.runs()) {
        w.key(name);
        w.beginObject();
        w.kv("real_time_s", run.real_s);
        w.kv("sim_ns_per_host_s", run.sim_ns_per_host_s);
        w.endObject();
    }
    w.endObject();

    // Oldest first; the record that was this file's top level last
    // run is the final entry.
    w.key("history");
    w.beginArray();
    for (const auto &record : history)
        emitValue(w, record);
    w.endArray();
    w.endObject();
    os << "\n";
    std::printf("selfperf: wrote %s (history of %zu)\n", path,
                history.size());
}

/**
 * One extra profiled run per bench scenario, after the timed
 * iterations (spans cost a little host time, so they stay out of the
 * measured loops). The ledgers answer "where does each regime spend
 * its simulated time" next to the wall-clock numbers.
 */
void
writeProfileJson(const char *path)
{
    if (!prof::profilingCompiled) {
        std::fprintf(stderr,
                     "selfperf: HOS_PROF=off, skipping %s\n", path);
        return;
    }

    std::vector<std::pair<std::string, prof::ProfileReport>> profiles;

    {
        const core::Scenario s =
            bench::paperScenario(core::Approach::Coordinated)
                .withProfiling()
                .withName("coordinated");
        auto sys = core::systemFor(s);
        sys->runOne(sys->slot(0), workload::makeApp(s.app, s.scale));
        profiles.emplace_back("coordinated", sys->profiler().report());
    }

    {
        const core::Scenario s =
            bench::paperScenario(core::Approach::VmmExclusive);
        core::HeteroSystem sys(s.host());
        sys.enableProfiling();
        auto &slot = sys.addVm(
            std::make_unique<policy::VmmExclusivePolicy>(
                vmm::HotnessConfig{}),
            s.sizing());
        sys.runOne(slot, workload::makeApp(s.app, s.scale));
        profiles.emplace_back("full_vm_sweep", sys.profiler().report());
    }

    {
        const double scale = bench::benchScale();
        core::HostConfig host;
        host.fast = mem::dramSpec(bench::scaledBytes(4 * mem::gib));
        host.slow =
            mem::defaultSlowMemSpec(bench::scaledBytes(8 * mem::gib));
        core::HeteroSystem sys(host);
        sys.enableProfiling();
        sys.vmm().setFairness(std::make_unique<vmm::DrfFairness>());

        core::GuestSizing g;
        g.name = "graphchi-vm";
        g.fast_max = bench::scaledBytes(4 * mem::gib);
        g.fast_initial = bench::scaledBytes(1 * mem::gib);
        g.slow_max = bench::scaledBytes(8 * mem::gib);
        g.slow_initial = bench::scaledBytes(4 * mem::gib);
        core::GuestSizing m = g;
        m.name = "metis-vm";
        m.fast_initial = bench::scaledBytes(3 * mem::gib);
        m.seed = 7;

        auto &g_slot = sys.addVm(
            core::makePolicy(core::Approach::Coordinated), g);
        auto &m_slot = sys.addVm(
            core::makePolicy(core::Approach::Coordinated), m);
        sys.runMany({{&g_slot, workload::makeGraphchiTwitter(scale)},
                     {&m_slot, workload::makeMetisLarge(scale)}});
        profiles.emplace_back("two_vm_drf", sys.profiler().report());
    }

    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "selfperf: cannot write %s\n", path);
        return;
    }
    sim::JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "hos-selfperf-prof-1");
    w.key("scenarios");
    w.beginObject();
    for (const auto &[name, report] : profiles) {
        w.key(name);
        prof::writeProfileReport(w, report);
    }
    w.endObject();
    w.endObject();
    os << "\n";
    std::printf("selfperf: wrote %s\n", path);
}

} // namespace

BENCHMARK(BM_Coordinated)
    ->Name("coordinated")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullVmSweep)
    ->Name("full_vm_sweep")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoVmDrf)
    ->Name("two_vm_drf")
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    bench::banner("simulator self-performance");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    SelfperfReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    const char *out = std::getenv("HOS_SELFPERF_OUT");
    writeJson(reporter, out ? out : "BENCH_selfperf.json");
    const char *prof_out = std::getenv("HOS_SELFPERF_PROF_OUT");
    writeProfileJson(prof_out ? prof_out
                              : "BENCH_selfperf_profile.json");
    benchmark::Shutdown();
    return 0;
}
