/**
 * @file
 * Scenario & Sweep API: JSON round-trips, cartesian expansion order,
 * the parallel runner's bit-identity guarantee, and per-system
 * telemetry session isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "check/check_error.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "metrics/report.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "test_helpers.hh"
#include "trace/session.hh"
#include "trace/trace.hh"

namespace {

using namespace hos;

core::Scenario
tinyBase()
{
    return core::Scenario{}
        .withCapacity(128 * mem::mib, 512 * mem::mib)
        .withScale(0.02);
}

TEST(Scenario, JsonRoundTripPreservesEveryField)
{
    auto s = core::Scenario{}
                 .withApp(workload::AppId::Redis)
                 .withApproach(core::Approach::Coordinated)
                 .withThrottle(3.0, 7.0)
                 .withCapacity(1 * mem::gib, 1024 * mem::gib)
                 .withLlcBytes(48 * mem::mib)
                 .withScale(0.37)
                 .withSeed(12345)
                 .withCpus(8)
                 .withName("round-trip");

    std::string error;
    const auto doc = sim::jsonParse(core::scenarioToJson(s), &error);
    ASSERT_TRUE(doc) << error;
    const auto back = core::scenarioFromJson(*doc, &error);
    ASSERT_TRUE(back) << error;

    EXPECT_EQ(back->app, s.app);
    EXPECT_EQ(back->approach, s.approach);
    EXPECT_DOUBLE_EQ(back->slow_lat_factor, s.slow_lat_factor);
    EXPECT_DOUBLE_EQ(back->slow_bw_factor, s.slow_bw_factor);
    // 1 TiB has 13 decimal digits — catches float-formatted sizes.
    EXPECT_EQ(back->fast_bytes, s.fast_bytes);
    EXPECT_EQ(back->slow_bytes, s.slow_bytes);
    EXPECT_EQ(back->llc_bytes, s.llc_bytes);
    EXPECT_DOUBLE_EQ(back->scale, s.scale);
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->cpus, s.cpus);
    EXPECT_EQ(back->name, s.name);
    EXPECT_FALSE(back->slow_override);

    // And a second serialization is byte-identical.
    EXPECT_EQ(core::scenarioToJson(*back), core::scenarioToJson(s));
}

TEST(Scenario, SlowOverrideRoundTrips)
{
    auto nvm = mem::throttledSpec(5.0, 8.0, 0);
    nvm.name = "NVM";
    const auto s = tinyBase().withSlowSpec(nvm);

    std::string error;
    const auto doc = sim::jsonParse(core::scenarioToJson(s), &error);
    ASSERT_TRUE(doc) << error;
    const auto back = core::scenarioFromJson(*doc, &error);
    ASSERT_TRUE(back) << error;
    ASSERT_TRUE(back->slow_override);
    EXPECT_EQ(back->slow_override->name, "NVM");
    EXPECT_DOUBLE_EQ(back->slow_override->load_latency_ns,
                     nvm.load_latency_ns);
    EXPECT_DOUBLE_EQ(back->slow_override->bandwidth_gbps,
                     nvm.bandwidth_gbps);

    // The override drives the host's slow tier; capacity still comes
    // from slow_bytes.
    const auto host = back->host();
    EXPECT_EQ(host.slow.name, "NVM");
    EXPECT_EQ(host.slow.capacity_bytes, back->slow_bytes);
}

TEST(Scenario, LoadScenarioAcceptsCommentsAndTrailingCommas)
{
    const std::string path = "scenario_tmp_test.json";
    {
        std::ofstream os(path);
        os << "// tiny testbed\n"
              "{\n"
              "  \"app\": \"leveldb\",\n"
              "  \"approach\": \"coord\",\n"
              "  \"scale\": 0.05,\n"
              "}\n";
    }
    std::string error;
    const auto s = core::loadScenario(path, &error);
    std::remove(path.c_str());
    ASSERT_TRUE(s) << error;
    EXPECT_EQ(s->app, workload::AppId::LevelDb);
    EXPECT_EQ(s->approach, core::Approach::Coordinated);
    EXPECT_DOUBLE_EQ(s->scale, 0.05);
}

TEST(Scenario, BadParamsAreRejectedWithContext)
{
    core::Scenario s;
    std::string error;
    EXPECT_FALSE(core::applyScenarioParam(s, "no_such_key", "1", &error));
    EXPECT_NE(error.find("no_such_key"), std::string::npos);
    EXPECT_FALSE(core::applyScenarioParam(s, "approach", "bogus", &error));
    EXPECT_FALSE(core::applyScenarioParam(s, "scale", "fast", &error));
    // Out-of-range numbers, each of which would crash the run later
    // (bad_alloc, an empty machine, a full address space, a throttle
    // assertion) or cast out of its field's range.
    const std::pair<const char *, const char *> out_of_range[] = {
        {"scale", "nan"},          {"scale", "inf"},
        {"scale", "0"},            {"scale", "1.5"},
        {"slow_lat_factor", "nan"}, {"slow_lat_factor", "inf"},
        {"slow_lat_factor", "0.5"}, {"slow_bw_factor", "nan"},
        {"cpus", "-1"},            {"cpus", "0"},
        {"cpus", "2.5"},           {"cpus", "1e9"},
        {"fast_bytes", "nan"},     {"fast_bytes", "inf"},
        {"fast_bytes", "-1"},      {"slow_bytes", "1e300"},
        {"llc_bytes", "0.5"},      {"seed", "nan"},
        // Tiers the machine cannot boot: no frame at all, or frame
        // arrays past maxTierBytes; and an LLC with no capacity.
        {"fast_bytes", "0"},       {"fast_bytes", "100"},
        {"slow_bytes", "0"},       {"slow_bytes", "4095"},
        {"fast_bytes", "1099511627777"},
        {"fast_bytes", "18446744073709551615"},
        {"llc_bytes", "0"},
    };
    for (const auto &[key, value] : out_of_range) {
        error.clear();
        EXPECT_FALSE(core::applyScenarioParam(s, key, value, &error))
            << key << "=" << value;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    // The tier bounds themselves are bootable sizes.
    core::Scenario edge;
    EXPECT_TRUE(core::applyScenarioParam(edge, "fast_bytes", "4096"));
    EXPECT_TRUE(core::applyScenarioParam(edge, "slow_bytes",
                                         "1099511627776"));
    EXPECT_EQ(edge.slow_bytes, core::maxTierBytes);
    EXPECT_TRUE(core::applyScenarioParam(edge, "llc_bytes", "1"));
    // The failed applications left the scenario untouched.
    EXPECT_DOUBLE_EQ(s.scale, 1.0);
    EXPECT_EQ(s.approach, core::Approach::HeteroLru);
    EXPECT_EQ(core::scenarioToJson(s),
              core::scenarioToJson(core::Scenario{}));
}

TEST(Scenario, BadSlowOverrideIsRejected)
{
    // A zero or negative bandwidth or latency would trip MemDevice's
    // assertions mid-boot; an unknown key is refused as it is at the
    // top level. Each reports the key it rejects.
    const std::pair<const char *, const char *> bad[] = {
        {R"({"bandwidth_gbps": 0})", "slow_override.bandwidth_gbps"},
        {R"({"bandwidth_gbps": -3})", "slow_override.bandwidth_gbps"},
        {R"({"bandwidth_gbps": "nan"})", "slow_override.bandwidth_gbps"},
        {R"({"load_latency_ns": 0})", "slow_override.load_latency_ns"},
        {R"({"load_latency_ns": "inf"})", "slow_override.load_latency_ns"},
        {R"({"store_latency_ns": -1})", "slow_override.store_latency_ns"},
        {R"({"store_latency_ns": true})", "slow_override.store_latency_ns"},
        {R"({"name": 7})", "slow_override.name"},
        {R"({"latency_ns": 300})", "unknown slow_override key 'latency_ns'"},
        {R"([1])", "slow_override must be an object"},
    };
    for (const auto &[spec, what] : bad) {
        const auto doc = sim::jsonParse(
            std::string(R"({"app": "graphchi", "slow_override": )") + spec +
            "}");
        ASSERT_TRUE(doc) << spec;
        std::string error;
        EXPECT_FALSE(core::scenarioFromJson(*doc, &error)) << spec;
        EXPECT_NE(error.find(what), std::string::npos) << error;
    }

    // A partial override keeps the custom tier's other fields.
    const auto doc =
        sim::jsonParse(R"({"slow_override": {"bandwidth_gbps": 2.5}})");
    ASSERT_TRUE(doc);
    std::string error;
    const auto s = core::scenarioFromJson(*doc, &error);
    ASSERT_TRUE(s) << error;
    ASSERT_TRUE(s->slow_override);
    EXPECT_EQ(s->slow_override->name, "custom");
    EXPECT_DOUBLE_EQ(s->slow_override->bandwidth_gbps, 2.5);
    EXPECT_DOUBLE_EQ(s->slow_override->load_latency_ns,
                     mem::MemTierSpec{}.load_latency_ns);
}

TEST(Sweep, ExpansionIsRowMajor)
{
    core::Sweep sweep(tinyBase());
    sweep.approaches({core::Approach::SlowMemOnly,
                      core::Approach::HeteroLru})
        .axis("slow_lat_factor", std::vector<double>{2.0, 5.0, 8.0});

    EXPECT_EQ(sweep.numPoints(), 6u);
    std::string error;
    const auto points = sweep.points(&error);
    ASSERT_EQ(points.size(), 6u) << error;

    // First axis varies slowest: slow×{2,5,8}, then lru×{2,5,8}.
    EXPECT_EQ(points[0].scenario.approach, core::Approach::SlowMemOnly);
    EXPECT_DOUBLE_EQ(points[0].scenario.slow_lat_factor, 2.0);
    EXPECT_DOUBLE_EQ(points[2].scenario.slow_lat_factor, 8.0);
    EXPECT_EQ(points[3].scenario.approach, core::Approach::HeteroLru);
    EXPECT_DOUBLE_EQ(points[3].scenario.slow_lat_factor, 2.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        ASSERT_EQ(points[i].params.size(), 2u);
        EXPECT_EQ(points[i].params[0].first, "approach");
        EXPECT_EQ(points[i].params[1].first, "slow_lat_factor");
    }
}

TEST(Sweep, ReplicasAddDerivedSeedAxis)
{
    core::Sweep sweep(tinyBase().withSeed(7));
    sweep.replicas(3);
    ASSERT_EQ(sweep.axes().size(), 1u);
    EXPECT_EQ(sweep.axes()[0].key, "seed");
    ASSERT_EQ(sweep.axes()[0].values.size(), 3u);

    std::string error;
    const auto points = sweep.points(&error);
    ASSERT_EQ(points.size(), 3u) << error;
    for (unsigned r = 0; r < 3; ++r)
        EXPECT_EQ(points[r].scenario.seed, sim::deriveSeed(7, r));
    EXPECT_NE(points[0].scenario.seed, points[1].scenario.seed);
}

TEST(Sweep, UnknownAxisKeyFailsExpansion)
{
    core::Sweep sweep(tinyBase());
    sweep.axis("not_a_field", std::vector<std::string>{"1", "2"});
    std::string error;
    EXPECT_TRUE(sweep.points(&error).empty());
    EXPECT_NE(error.find("not_a_field"), std::string::npos);
}

TEST(Sweep, JsonRoundTrip)
{
    core::Sweep sweep(tinyBase().withApp(workload::AppId::Metis));
    sweep.approaches({core::Approach::HeteroLru,
                      core::Approach::Coordinated})
        .axis("scale", std::vector<double>{0.02, 0.04});

    std::ostringstream os;
    {
        sim::JsonWriter w(os);
        core::sweepToJson(w, sweep);
    }
    std::string error;
    const auto doc = sim::jsonParse(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const auto back = core::sweepFromJson(*doc, &error);
    ASSERT_TRUE(back) << error;

    EXPECT_EQ(back->base().app, workload::AppId::Metis);
    ASSERT_EQ(back->axes().size(), 2u);
    EXPECT_EQ(back->axes()[0].key, "approach");
    EXPECT_EQ(back->axes()[1].key, "scale");
    EXPECT_EQ(back->numPoints(), 4u);

    std::ostringstream os2;
    {
        sim::JsonWriter w(os2);
        core::sweepToJson(w, *back);
    }
    EXPECT_EQ(os2.str(), os.str());
}

/**
 * The tentpole invariant: a 12-point sweep on 8 threads produces the
 * same bytes as the serial run — every RunRecord, in the same order.
 */
TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial)
{
    core::Sweep sweep(tinyBase());
    sweep.apps({workload::AppId::GraphChi, workload::AppId::Redis})
        .approaches({core::Approach::SlowMemOnly,
                     core::Approach::HeteroLru,
                     core::Approach::Coordinated})
        .axis("slow_lat_factor", std::vector<double>{2.0, 5.0});
    ASSERT_EQ(sweep.numPoints(), 12u);

    core::SweepRunner runner(sweep);
    const auto serial = runner.run(1);
    const auto parallel = runner.run(8);
    ASSERT_EQ(serial.size(), 12u);
    ASSERT_EQ(parallel.size(), 12u);

    std::ostringstream serial_os, parallel_os;
    core::writeSweepResultsJson(serial_os, sweep, serial);
    core::writeSweepResultsJson(parallel_os, sweep, parallel);
    EXPECT_GT(serial_os.str().size(), 100u);
    EXPECT_EQ(serial_os.str(), parallel_os.str())
        << "parallel execution must not change a single byte";
    EXPECT_TRUE(hos::test::jsonWellFormed(serial_os.str()));
}

TEST(SweepRunner, ProgressCallbackSeesEveryPoint)
{
    core::Sweep sweep(tinyBase());
    sweep.approaches({core::Approach::SlowMemOnly,
                      core::Approach::HeteroLru});
    core::SweepRunner runner(sweep);
    std::vector<std::size_t> seen;
    runner.onPointDone([&](const core::SweepResult &r) {
        seen.push_back(r.point.index);
    });
    const auto results = runner.run(2);
    ASSERT_EQ(results.size(), 2u);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
}

/**
 * Two systems in one process must not interleave trace events.
 * Tracing is per-system opt-in, and a tracer installed around the
 * runs stays cold: each run installs its own session in its place.
 */
TEST(TraceIsolation, PerSystemSinksDoNotInterleave)
{
    auto traced_spec = tinyBase().withApproach(core::Approach::HeteroLru);
    auto quiet_spec = traced_spec;

    auto traced = core::systemFor(traced_spec);
    auto quiet = core::systemFor(quiet_spec);
    traced->enableTracing();
    EXPECT_TRUE(traced->tracingEnabled());
    EXPECT_FALSE(quiet->tracingEnabled());

    trace::Tracer outer;
    outer.enable(static_cast<std::uint32_t>(trace::Category::All));
    {
        const obs::Scope scope({.tracer = &outer});
        traced->runOne(traced->slot(0),
                       workload::makeApp(workload::AppId::GraphChi, 0.02));
        quiet->runOne(quiet->slot(0),
                      workload::makeApp(workload::AppId::GraphChi, 0.02));
        EXPECT_EQ(obs::current()->tracer, &outer)
            << "each run restored the enclosing session";
    }

    EXPECT_GT(traced->traceSink().recorded(), 0u)
        << "the opted-in system captured its own events";
    EXPECT_EQ(quiet->traceSink().recorded(), 0u)
        << "the quiet system stayed quiet";
    EXPECT_EQ(outer.recorded(), 0u)
        << "per-system tracing never leaks into the enclosing session";
}

TEST(TraceIsolation, ScopeNestsAndRestores)
{
    const auto all = static_cast<std::uint32_t>(trace::Category::All);
    trace::Tracer outer, inner;
    outer.enable(all);
    inner.enable(all);
    {
        const obs::Scope a({.tracer = &outer});
        trace::emit(trace::EventType::PageAlloc, 1);
        {
            const obs::Scope b({.tracer = &inner});
            trace::emit(trace::EventType::PageAlloc, 2);
        }
        trace::emit(trace::EventType::PageAlloc, 3);
        {
            // An empty session installs nothing: the hooks go dark.
            const obs::Scope off({});
            EXPECT_EQ(obs::current(), nullptr);
            trace::emit(trace::EventType::PageAlloc, 4);
        }
    }
    EXPECT_EQ(obs::current(), nullptr);
    EXPECT_EQ(outer.recorded(), 2u);
    EXPECT_EQ(inner.recorded(), 1u);
}

/**
 * A run that fails an end-of-run check leaves no session behind on
 * the thread, and two systems with different consumer sets, run back
 * to back on one thread, each feed only their own consumers.
 */
TEST(TraceIsolation, RunsLeaveNoSessionAndFeedOnlyTheirOwn)
{
    const auto app = workload::makeApp(workload::AppId::GraphChi, 0.02);
    const auto base = tinyBase().withApproach(core::Approach::Coordinated);
    ASSERT_EQ(obs::current(), nullptr);
    {
        auto failing = core::systemFor(base);
        failing->enableTracing();
        failing->enableProfiling();
        // A span left open fails auditProf when the run ends.
        failing->profiler().beginSpan(prof::SpanKind::MigrationEpoch, 0,
                                      0, prof::noTier);
        check::ScopedThrowMode throw_mode;
        EXPECT_THROW(failing->runOne(failing->slot(0), app),
                     check::CheckError);
    }
    EXPECT_EQ(obs::current(), nullptr)
        << "the failed run's session was uninstalled while unwinding";

    // A: trace + metrics. B: prof + x-ray.
    auto a = core::systemFor(base);
    a->enableTracing();
    a->enableMetrics();
    auto b = core::systemFor(base);
    b->enableProfiling();
    b->enableXray();

    const auto metricsJson = [](core::HeteroSystem &sys) {
        std::ostringstream os;
        sim::JsonWriter w(os);
        metrics::writeMetricsReport(w, sys.metricsCollector().report());
        return os.str();
    };
    a->runOne(a->slot(0), app);
    const std::uint64_t a_events = a->traceSink().recorded();
    const std::string a_metrics = metricsJson(*a);
    b->runOne(b->slot(0), app);
    EXPECT_EQ(obs::current(), nullptr);

    EXPECT_GT(a_events, 0u);
    EXPECT_EQ(a->traceSink().recorded(), a_events)
        << "B's run fed A's tracer";
    EXPECT_EQ(metricsJson(*a), a_metrics) << "B's run fed A's collector";
    EXPECT_EQ(a->profiler().spansOpened(), 0u) << "A fed a profiler";
    EXPECT_EQ(a->xrayRecorder().numVms(), 0u) << "A fed a recorder";

    EXPECT_EQ(b->traceSink().recorded(), 0u) << "B fed a tracer";
    EXPECT_TRUE(b->metricsCollector().report().empty())
        << "B fed a collector";
    if (prof::profilingCompiled) {
        EXPECT_GT(b->profiler().spansOpened(), 0u);
    }
    if (xray::xrayCompiled) {
        EXPECT_GT(b->xrayRecorder().numVms(), 0u);
    }
    if (metrics::metricsCompiled) {
        EXPECT_FALSE(a->metricsCollector().report().empty());
    }
}

} // namespace
