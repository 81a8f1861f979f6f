/**
 * @file
 * Command-line experiment runner: any application under any
 * management approach at any capacity ratio, with the full result
 * and overhead breakdown — the Swiss-army knife for exploring the
 * system beyond the canned benches.
 *
 * Usage:
 *   run_experiment [options] [app] [approach] [fast_ratio] [scale]
 *   run_experiment --list
 *
 *   app        graphchi|xstream|metis|leveldb|redis|nginx (default graphchi)
 *   approach   slow|fast|random|numa|heap-od|od|lru|vmm|coord (default lru)
 *   fast_ratio FastMem:SlowMem capacity ratio, e.g. 0.25 (default 0.25)
 *   scale      workload scale in (0, 1] (default 0.2)
 *
 * Observability options:
 *   --trace=FILE            Chrome trace_event JSON (chrome://tracing)
 *   --trace-csv=FILE        same events as compact CSV
 *   --trace-categories=CSV  e.g. migration,scan,balloon (default all)
 *   --results=FILE          machine-readable results JSON
 *   --set=KEY=VALUE         scenario override (repeatable): any
 *                           applyScenarioParam key, including the
 *                           dotted hotness spec, e.g.
 *                           --set=hotness.backend=region; a key or
 *                           value it rejects exits 2
 *   --log-level=N           0 quiet, 1 inform, 2 debug (tick-stamped)
 *
 * Profiling options (need -DHOS_PROF=sim or host):
 *   --prof                  span profiler: per-subsystem cost ledger,
 *                           printed after the run and embedded in
 *                           --results output under "profile"
 *   --prof-collapsed=FILE   collapsed-stack export for flamegraph.pl
 *                           or speedscope (implies --prof)
 *
 * Placement telemetry (needs -DHOS_XRAY=sampled or full):
 *   --xray                  placement-quality x-ray: misplaced-hotness
 *                           summary printed after the run and the full
 *                           report embedded in --results output under
 *                           "xray" (feed that file to hos-inspect
 *                           explain)
 *
 * Windowed metrics (needs -DHOS_METRICS=on, the default):
 *   --metrics               per-VM windowed series + slowdown SLO
 *                           percentiles, printed after the run and
 *                           embedded in --results output under
 *                           "metrics" (feed that file to hos-inspect
 *                           timeline)
 *
 * Exit status 2 marks every rejected input: an unknown or misplaced
 * --flag (with a nearest-valid-flag suggestion), a malformed or
 * rejected --set, an unknown app or approach, and a fast_ratio or
 * scale out of range. The positionals go through the same checks as
 * --set (core::applyScenarioParam).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cli.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "metrics/metrics.hh"
#include "metrics/report.hh"
#include "prof/prof.hh"
#include "prof/report.hh"
#include "sim/log.hh"
#include "sim/table.hh"
#include "trace/exporters.hh"
#include "trace/trace.hh"
#include "xray/report.hh"
#include "xray/xray.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: run_experiment [options] [app] [approach] [fast_ratio] "
        "[scale]\n"
        "  app:      graphchi xstream metis leveldb redis nginx\n"
        "  approach: slow fast random numa heap-od od lru vmm coord\n"
        "  fast_ratio: FastMem as a fraction of SlowMem (default 0.25)\n"
        "  scale:      workload scale in (0, 1] (default 0.2)\n"
        "options:\n"
        "  --trace=FILE            Chrome trace JSON (chrome://tracing)\n"
        "  --trace-csv=FILE        trace as compact CSV\n"
        "  --trace-categories=CSV  alloc,migration,scan,balloon,swap,\n"
        "                          hypercall,fairness,device,check,\n"
        "                          prof,xray,all\n"
        "  --results=FILE          results JSON\n"
        "  --set=KEY=VALUE         scenario override (repeatable), e.g.\n"
        "                          --set=hotness.backend=region\n"
        "  --log-level=N           0 quiet, 1 inform, 2 debug\n"
        "  --prof                  span-profiler cost attribution\n"
        "  --prof-collapsed=FILE   flamegraph collapsed-stack export\n"
        "  --xray                  placement-quality telemetry "
        "(hos-inspect explain input)\n"
        "  --metrics               windowed series + slowdown SLO "
        "(hos-inspect timeline input)\n"
        "exit status 2: a rejected flag, --set value or argument");
    std::printf("fast_bytes and slow_bytes (from fast_ratio and scale, "
                "or --set) must lie\nin [%llu, %llu] (one page to "
                "1 TiB)\n",
                static_cast<unsigned long long>(mem::pageSize),
                static_cast<unsigned long long>(core::maxTierBytes));
}

/** Every flag this tool understands ('=' marks value-taking forms). */
const char *const kKnownFlags[] = {
    "--trace=",      "--trace-csv=",      "--trace-categories=",
    "--results=",    "--set=",            "--log-level=",
    "--prof",        "--prof-collapsed=", "--xray",
    "--metrics",     "--list",
};

/** Exit status 2 with a did-you-mean hint — unknown/misplaced flags. */
int
rejectFlag(const char *arg, const char *why)
{
    std::fprintf(stderr, "%s '%s' (did you mean '%s'?)\n", why, arg,
                 cli::nearestFlag(arg, kKnownFlags).c_str());
    usage();
    return 2;
}

/** Exit status 2 for a rejected --set value or positional argument. */
int
rejectValue(const std::string &why)
{
    std::fprintf(stderr, "%s\n", why.c_str());
    usage();
    return 2;
}

/** The observability flags, parsed off the front of argv. */
struct Options
{
    std::string trace_file;
    std::string trace_csv_file;
    std::string trace_categories;
    std::string results_file;
    bool prof = false;
    std::string prof_collapsed_file;
    bool xray = false;
    bool metrics = false;
    /** --set=KEY=VALUE scenario overrides, applied in order. */
    std::vector<std::pair<std::string, std::string>> sets;
};

/** Consume every leading --flag; returns 0, or an exit status. */
int
parseOptions(int &argc, char **&argv, Options &opt)
{
    while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0 &&
           std::strcmp(argv[1], "--list") != 0) {
        const std::string arg = argv[1];
        const auto eat = [&](const char *prefix,
                             std::string &dst) -> bool {
            const std::size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) != 0)
                return false;
            dst = arg.substr(n);
            return true;
        };
        std::string value;
        if (eat("--trace=", opt.trace_file) ||
            eat("--trace-csv=", opt.trace_csv_file) ||
            eat("--trace-categories=", opt.trace_categories)) {
            // handled
        } else if (eat("--results=", opt.results_file)) {
            // handled
        } else if (arg == "--prof") {
            opt.prof = true;
        } else if (eat("--prof-collapsed=", opt.prof_collapsed_file)) {
            opt.prof = true;
        } else if (arg == "--xray") {
            opt.xray = true;
        } else if (arg == "--metrics") {
            opt.metrics = true;
        } else if (eat("--set=", value)) {
            const auto eq = value.find('=');
            if (eq == std::string::npos || eq == 0)
                return rejectValue("--set wants KEY=VALUE");
            opt.sets.emplace_back(value.substr(0, eq),
                                  value.substr(eq + 1));
        } else if (eat("--log-level=", value)) {
            sim::setLogLevel(std::atoi(value.c_str()));
        } else {
            return rejectFlag(argv[1], "unknown option");
        }
        --argc;
        ++argv;
    }
    // A --flag after the first positional never reached the loop
    // above; accepting it silently would drop the user's request.
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0 &&
            std::strcmp(argv[i], "--list") != 0) {
            return rejectFlag(argv[i],
                              "option after positional arguments");
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const int status = parseOptions(argc, argv, opt))
        return status;
    if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
        usage();
        return 0;
    }

    // The positionals take the --set path, checks included.
    const auto arg = [&](int i, const char *fallback) {
        return std::string(argc > i ? argv[i] : fallback);
    };
    core::Scenario spec;
    std::string err;
    if (!core::applyScenarioParam(spec, "app", arg(1, "graphchi"), &err) ||
        !core::applyScenarioParam(spec, "approach", arg(2, "lru"), &err) ||
        !core::applyScenarioParam(spec, "scale", arg(4, "0.2"), &err))
        return rejectValue(err);
    // scale sizes SlowMem and fast_ratio sizes FastMem against it;
    // both products are checked as --set sizes, so a tier under one
    // page or over maxTierBytes is rejected.
    char bytes[64];
    std::snprintf(bytes, sizeof(bytes), "%.0f",
                  std::floor(spec.scale * 8.0 *
                             static_cast<double>(mem::gib)));
    if (!core::applyScenarioParam(spec, "slow_bytes", bytes, &err))
        return rejectValue("scale '" + arg(4, "0.2") + "': " + err);
    const std::string ratio_text = arg(3, "0.25");
    char *end = nullptr;
    const double ratio = std::strtod(ratio_text.c_str(), &end);
    if (ratio_text.empty() || *end != '\0' || !(ratio > 0.0)) {
        return rejectValue("bad fast_ratio '" + ratio_text +
                           "': need a number > 0");
    }
    std::snprintf(bytes, sizeof(bytes), "%.0f",
                  std::floor(static_cast<double>(spec.slow_bytes) * ratio));
    if (!core::applyScenarioParam(spec, "fast_bytes", bytes, &err))
        return rejectValue("fast_ratio '" + ratio_text + "': " + err);
    if (opt.prof) {
        if (!prof::profilingCompiled)
            std::fprintf(stderr,
                         "warning: built with -DHOS_PROF=off; "
                         "--prof output will be empty\n");
        spec.profiling = true;
    }
    if (opt.xray) {
        if (!xray::xrayCompiled)
            std::fprintf(stderr,
                         "warning: built with -DHOS_XRAY=off; "
                         "--xray output will be empty\n");
        spec.xray = true;
    }
    if (opt.metrics) {
        if (!metrics::metricsCompiled)
            std::fprintf(stderr,
                         "warning: built with -DHOS_METRICS=off; "
                         "--metrics output will be empty\n");
        spec.metrics = true;
    }
    // Scenario overrides land after the positionals so --set wins
    // (e.g. --set=hotness.backend=region swaps the tracker backend).
    for (const auto &[key, value] : opt.sets) {
        if (!core::applyScenarioParam(spec, key, value, &err))
            return rejectValue("--set=" + key + "=" + value + ": " + err);
    }

    // Baseline for the gain column (runs untraced — its events would
    // only pollute the main run's timeline).
    auto base_spec = spec;
    base_spec.approach = core::Approach::SlowMemOnly;
    base_spec.profiling = false;
    base_spec.xray = false;
    base_spec.metrics = false;
    const auto base = core::run(base_spec);

    const bool tracing =
        !opt.trace_file.empty() || !opt.trace_csv_file.empty();

    auto sys = core::systemFor(spec);
    auto &slot = sys->slot(0);
    if (tracing)
        sys->enableTracing(trace::parseCategories(opt.trace_categories));

    const auto res =
        sys->runOne(slot, workload::makeApp(spec.app, spec.scale));

    sim::Table t("Result: " + res.workload + " under " +
                 core::approachName(spec.approach));
    t.header({"metric", "value"});
    t.row({"runtime (s)", sim::Table::num(res.seconds())});
    t.row({res.metric_name, sim::Table::num(res.metric)});
    t.row({"gain vs SlowMem-only",
           sim::Table::pct(core::gainPercent(base, res))});
    t.row({"phases", sim::Table::num(res.phases)});
    t.row({"MPKI", sim::Table::num(res.mpki, 1)});
    t.print();

    auto &k = *slot.kernel;
    sim::Table ov("Management overhead breakdown");
    ov.header({"account", "ms"});
    for (int i = 0; i < static_cast<int>(guestos::numOverheadKinds); ++i) {
        const auto kind = static_cast<guestos::OverheadKind>(i);
        const double ms =
            sim::toMilliseconds(k.overheadTotal(kind));
        if (ms > 0.005)
            ov.row({guestos::overheadKindName(kind),
                    sim::Table::num(ms, 2)});
    }
    ov.print();

    sim::Table pg("Page allocations by type");
    pg.header({"type", "pages"});
    for (int i = 1; i < static_cast<int>(guestos::numPageTypes); ++i) {
        const auto type = static_cast<guestos::PageType>(i);
        const auto n = k.allocCount(type);
        if (n > 0)
            pg.row({guestos::pageTypeName(type), sim::Table::num(n)});
    }
    pg.row({"FastMem alloc miss ratio",
            sim::Table::num(k.allocator().overallFastMissRatio(), 3)});
    pg.print();

    prof::ProfileReport profile;
    if (opt.prof) {
        profile = sys->profiler().report();
        sim::Table pt("Span-profiler cost attribution");
        pt.header({"subsystem", "ms", "share"});
        const double total =
            static_cast<double>(profile.simGrandTotal());
        for (const auto &[kind, sim_ns] : profile.kindTotals()) {
            const double ms =
                sim::toMilliseconds(static_cast<sim::Duration>(sim_ns));
            const double share =
                total > 0.0 ? static_cast<double>(sim_ns) / total * 100.0
                            : 0.0;
            pt.row({kind, sim::Table::num(ms, 2),
                    sim::Table::pct(share)});
        }
        pt.print();
    }

    xray::XrayReport xr_report;
    if (opt.xray) {
        xr_report = sys->xrayRecorder().report();
        sim::Table xt("Placement x-ray (per VM)");
        xt.header({"vm", "hot", "hot misplaced", "cold in fast",
                   "ping-pongs"});
        for (const auto &vm : xr_report.vms) {
            xt.row({sim::Table::num(std::uint64_t{vm.vm}),
                    sim::Table::num(vm.hotTotal()),
                    sim::Table::num(vm.hotMisplaced()),
                    sim::Table::num(vm.coldInFast()),
                    sim::Table::num(vm.pingpong_events)});
        }
        xt.print();
    }

    metrics::MetricsReport mx_report;
    if (opt.metrics) {
        mx_report = sys->metricsCollector().report();
    }
    if (!mx_report.empty()) {
        sim::Table mt("Windowed metrics: slowdown vs all-fast ideal");
        mt.header({"vm", "windows", "p50", "p99", "max", "overhead ms"});
        for (const auto &vm : mx_report.vms) {
            const auto x = [](std::uint64_t ppm) {
                return sim::Table::num(
                    static_cast<double>(ppm) /
                        static_cast<double>(metrics::ppmScale),
                    3);
            };
            mt.row({sim::Table::num(std::uint64_t{vm.vm}),
                    sim::Table::num(vm.windows),
                    x(vm.slowdown.valueAtPermyriad(5000)),
                    x(vm.slowdown.valueAtPermyriad(9900)),
                    x(vm.slowdown.maxValue()),
                    sim::Table::num(
                        sim::toMilliseconds(static_cast<sim::Duration>(
                            vm.overhead_ns)),
                        2)});
        }
        mt.print();
    }

    // --- Observability exports -------------------------------------
    trace::Tracer &sink = sys->traceSink();
    if (!opt.trace_file.empty() &&
        trace::writeChromeJson(sink, opt.trace_file)) {
        std::printf("trace: %s (%llu events, %llu dropped)\n",
                    opt.trace_file.c_str(),
                    static_cast<unsigned long long>(sink.size()),
                    static_cast<unsigned long long>(sink.dropped()));
    }
    if (!opt.trace_csv_file.empty() &&
        trace::writeCsv(sink, opt.trace_csv_file)) {
        std::printf("trace csv: %s\n", opt.trace_csv_file.c_str());
    }
    if (!opt.prof_collapsed_file.empty() &&
        prof::writeCollapsed(profile, opt.prof_collapsed_file)) {
        std::printf("prof collapsed: %s (%zu rows)\n",
                    opt.prof_collapsed_file.c_str(),
                    profile.entries.size());
    }
    if (!opt.results_file.empty()) {
        auto record =
            core::makeRunRecord(res, core::approachName(spec.approach));
        record.gain_pct = core::gainPercent(base, res);
        for (int i = 0; i < static_cast<int>(guestos::numOverheadKinds);
             ++i) {
            const auto kind = static_cast<guestos::OverheadKind>(i);
            record.extra.emplace_back(
                std::string("overhead_ms.") +
                    guestos::overheadKindName(kind),
                sim::toMilliseconds(k.overheadTotal(kind)));
        }
        record.extra.emplace_back("fast_miss_ratio",
                                  k.allocator().overallFastMissRatio());
        record.profile = profile;
        record.xray = xr_report;
        record.metrics = mx_report;
        if (core::writeResultsJson(opt.results_file, record))
            std::printf("results: %s\n", opt.results_file.c_str());
    }
    return 0;
}
