/**
 * @file
 * Declarative sweep runner: expand a scenario × axes product and run
 * it across a thread pool, writing one aggregate results.json.
 *
 * Usage:
 *   run_sweep [options]
 *   run_sweep --list
 *
 *   --scenario=FILE    base scenario JSON (see DESIGN.md schema)
 *   --sweep=FILE       sweep JSON: {"base": {...}, "axes": {...}}
 *   --set=KEY=VALUE    override one base-scenario field (repeatable)
 *   --axis=KEY=V1,V2   add one sweep axis (repeatable)
 *   --jobs=N           worker threads (default 1; 0 = all cores)
 *   --results=FILE     aggregate results JSON (default results.json)
 *   --log-level=N      0 quiet, 1 inform, 2 debug
 *
 * Examples:
 *   # Figure-9-style matrix, 8 points, all cores:
 *   run_sweep --set=scale=0.1 --axis=approach=od,lru,vmm,coord \
 *             --axis=slow_lat_factor=2,5 --jobs=0
 *
 * Results are bit-identical for any --jobs value: every point is an
 * isolated simulation with a spec-derived seed, so parallelism only
 * changes the wall-clock, never a byte of results.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "sim/log.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: run_sweep [options]\n"
        "  --scenario=FILE    base scenario JSON\n"
        "  --sweep=FILE       sweep JSON ({\"base\":{...},\"axes\":{...}})\n"
        "  --set=KEY=VALUE    override a base scenario field (repeatable)\n"
        "  --axis=KEY=V1,V2   add a sweep axis (repeatable)\n"
        "  --jobs=N           worker threads (default 1; 0 = all cores)\n"
        "  --results=FILE     aggregate results JSON (default results.json)\n"
        "  --log-level=N      0 quiet, 1 inform, 2 debug\n"
        "  --list             print the sweepable keys and values");
}

void
listKeys()
{
    std::puts("scenario keys (all sweepable via --axis / --set):\n"
              "  app approach slow_lat_factor slow_bw_factor fast_bytes\n"
              "  slow_bytes llc_bytes scale seed cpus name\n"
              "hotness spec keys (hotness.<key>):\n"
              "  backend (pte_scan|region) interval_ms pages_per_scan\n"
              "  hot_threshold adaptive region_min region_max\n"
              "  region_probes region_min_pages region_split_threshold\n"
              "  region_merge_heat_delta\n"
              "  e.g. --axis=hotness.backend=pte_scan,region");
    std::fputs("approaches:", stdout);
    for (core::Approach a : core::allApproaches)
        std::printf(" %s", core::approachKey(a));
    std::fputs("\napps:", stdout);
    for (workload::AppId id : workload::allApps)
        std::printf(" %s", core::appKey(id));
    std::puts("");
}

/** Split "KEY=V1,V2,V3" into key and values. */
bool
splitAxis(const std::string &arg, std::string &key,
          std::vector<std::string> &values)
{
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = arg.substr(0, eq);
    values.clear();
    std::size_t pos = eq + 1;
    while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > pos)
            values.push_back(arg.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return !values.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario_file, sweep_file;
    std::string results_file = "results.json";
    std::vector<std::pair<std::string, std::string>> sets;
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    unsigned jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (arg == "--list") {
            listKeys();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (const char *v = value("--scenario=")) {
            scenario_file = v;
        } else if (const char *v = value("--sweep=")) {
            sweep_file = v;
        } else if (const char *v = value("--results=")) {
            results_file = v;
        } else if (const char *v = value("--jobs=")) {
            jobs = static_cast<unsigned>(std::atoi(v));
        } else if (const char *v = value("--log-level=")) {
            sim::setLogLevel(std::atoi(v));
        } else if (const char *v = value("--set=")) {
            const std::string kv = v;
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr, "bad --set '%s'\n", v);
                return 1;
            }
            sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (const char *v = value("--axis=")) {
            std::string key;
            std::vector<std::string> values;
            if (!splitAxis(v, key, values)) {
                std::fprintf(stderr, "bad --axis '%s'\n", v);
                return 1;
            }
            axes.emplace_back(std::move(key), std::move(values));
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage();
            return 1;
        }
    }

    // --- Assemble the sweep ----------------------------------------
    std::string error;
    core::Sweep sweep;
    if (!sweep_file.empty()) {
        auto loaded = core::loadSweep(sweep_file, &error);
        if (!loaded) {
            std::fprintf(stderr, "cannot load sweep '%s': %s\n",
                         sweep_file.c_str(), error.c_str());
            return 1;
        }
        sweep = std::move(*loaded);
    } else if (!scenario_file.empty()) {
        auto base = core::loadScenario(scenario_file, &error);
        if (!base) {
            std::fprintf(stderr, "cannot load scenario '%s': %s\n",
                         scenario_file.c_str(), error.c_str());
            return 1;
        }
        sweep = core::Sweep(*base);
    }

    for (const auto &[key, value] : sets) {
        if (!core::applyScenarioParam(sweep.base(), key, value,
                                      &error)) {
            std::fprintf(stderr, "--set %s: %s\n", key.c_str(),
                         error.c_str());
            return 1;
        }
    }
    for (auto &[key, values] : axes)
        sweep.axis(key, std::move(values));

    const auto points = sweep.points(&error);
    if (points.empty()) {
        std::fprintf(stderr, "sweep expansion failed: %s\n",
                     error.c_str());
        return 1;
    }

    std::printf("sweep: %zu point%s", points.size(),
                points.size() == 1 ? "" : "s");
    for (const auto &a : sweep.axes())
        std::printf(" × %s[%zu]", a.key.c_str(), a.values.size());
    std::printf(", --jobs %u\n", jobs);

    // --- Run --------------------------------------------------------
    core::SweepRunner runner(sweep);
    runner.onPointDone([&](const core::SweepResult &r) {
        std::string params;
        for (const auto &[key, value] : r.point.params) {
            if (!params.empty())
                params += " ";
            params += key + "=" + value;
        }
        std::printf("  [%zu/%zu] %-40s %8.2fs sim\n", r.point.index + 1,
                    points.size(), params.c_str(), r.record.runtime_s);
        std::fflush(stdout);
    });

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runner.run(jobs);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_s =
        std::chrono::duration<double>(t1 - t0).count();

    // Wall-clock goes to stdout only; results.json stays free of it
    // so identical sweeps produce identical bytes.
    std::printf("completed %zu points in %.2fs wall\n", results.size(),
                wall_s);

    if (!core::writeSweepResultsJson(results_file, sweep, results))
        return 1;
    std::printf("results: %s\n", results_file.c_str());
    return 0;
}
