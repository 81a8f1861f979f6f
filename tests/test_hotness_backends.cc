/**
 * @file
 * Pluggable hotness backends: region-tracker invariants (bounded
 * count, full coverage, no overlap), the flat-cost sampling property,
 * split/merge adaptation, backend selection through the Scenario
 * hotness spec (JSON round-trip, rejected loose keys and values,
 * sweep axes), and region-backend determinism.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/sweep.hh"
#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "vmm/hotness_pte.hh"
#include "vmm/hotness_region.hh"
#include "vmm/vmm.hh"

namespace {

using namespace hos;

/** A guest + VMM pair sized by the SlowMem capacity. */
struct BackendFixture
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;
    std::unique_ptr<guestos::GuestKernel> guest;
    vmm::VmId id = 0;

    explicit BackendFixture(std::uint64_t slow_bytes = 32 * mem::mib)
    {
        machine.addNode(mem::MemType::FastMem,
                        mem::dramSpec(8 * mem::mib));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(slow_bytes));
        hypervisor = std::make_unique<vmm::Vmm>(machine);

        guestos::GuestConfig cfg;
        cfg.name = "guest";
        cfg.cpus = 2;
        cfg.nodes = {{mem::MemType::FastMem, 8 * mem::mib, 8 * mem::mib},
                     {mem::MemType::SlowMem, slow_bytes, slow_bytes}};
        guest = std::make_unique<guestos::GuestKernel>(cfg);
        id = hypervisor->registerVm(*guest, {});
    }

    vmm::VmContext &vm() { return hypervisor->vm(id); }

    std::vector<guestos::Gpfn>
    allocPages(std::uint64_t n)
    {
        auto &as = guest->createProcess("p");
        const auto va = as.mmap(n * mem::pageSize, guestos::VmaKind::Anon,
                                guestos::MemHint::SlowMem);
        std::vector<guestos::Gpfn> out;
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(as.touch(va + i * mem::pageSize, true));
        return out;
    }
};

/** Full-VM regions must tile the gpfn space exactly, within bounds. */
void
expectTilesFullVm(const vmm::RegionTracker &tracker, std::uint64_t span,
                  const vmm::HotnessConfig &cfg)
{
    const auto &rs = tracker.regions();
    ASSERT_FALSE(rs.empty());
    EXPECT_LE(rs.size(), cfg.region_max);
    EXPECT_EQ(rs.front().lo, 0u);
    EXPECT_EQ(rs.back().hi, span);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_LT(rs[i].lo, rs[i].hi) << "empty region " << i;
        if (i > 0) {
            EXPECT_EQ(rs[i].lo, rs[i - 1].hi)
                << "gap or overlap before region " << i;
        }
    }
}

TEST(RegionTracker, TilesCoverTheVmWithinBounds)
{
    BackendFixture f;
    f.allocPages(2048);
    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    vmm::RegionTracker tracker(f.vm(), cfg);

    const std::uint64_t span = f.guest->pages().size();
    for (int round = 0; round < 8; ++round) {
        tracker.scanOnce();
        expectTilesFullVm(tracker, span, cfg);
        EXPECT_GE(tracker.regions().size(), cfg.region_min);
    }
}

TEST(RegionTracker, SplitsWhereAccessPatternsDisagree)
{
    BackendFixture f;
    auto pages = f.allocPages(2048);
    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    vmm::RegionTracker tracker(f.vm(), cfg);

    // First kilopage hot every scan, the rest cold: regions
    // straddling the boundary accumulate disagreeing half evidence.
    std::uint64_t splits = 0;
    for (int round = 0; round < 12; ++round) {
        for (std::uint64_t i = 0; i < 1024; ++i)
            f.guest->pageMeta(pages[i]).setPteAccessed(true);
        auto res = tracker.scanOnce();
        splits += res.splits;
        expectTilesFullVm(tracker, f.guest->pages().size(), cfg);
    }
    EXPECT_GT(splits, 0u) << "hot/cold boundary never split a region";
}

TEST(RegionTracker, MergesWhenPatternsAgreeAgain)
{
    BackendFixture f;
    auto pages = f.allocPages(2048);
    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    vmm::RegionTracker tracker(f.vm(), cfg);

    for (int round = 0; round < 12; ++round) {
        for (std::uint64_t i = 0; i < 1024; ++i)
            f.guest->pageMeta(pages[i]).setPteAccessed(true);
        tracker.scanOnce();
    }
    const std::size_t grown = tracker.regions().size();

    // Everything cold now: heats converge to 0 and neighbors merge
    // back toward the floor.
    std::uint64_t merges = 0;
    for (int round = 0; round < 20; ++round) {
        auto res = tracker.scanOnce();
        merges += res.merges;
        expectTilesFullVm(tracker, f.guest->pages().size(), cfg);
    }
    if (grown > cfg.region_min) {
        EXPECT_GT(merges, 0u) << "agreeing neighbors never re-merged";
    }
    EXPECT_LE(tracker.regions().size(), grown);
}

TEST(RegionTracker, ScanCostIsFlatAcrossFootprints)
{
    // The whole point of the backend: a 16x larger guest must not
    // cost more to scan. Probe volume is regions * region_probes,
    // bounded by configuration alone.
    BackendFixture small(32 * mem::mib);
    BackendFixture large(512 * mem::mib);
    small.allocPages(1024);
    large.allocPages(16 * 1024);

    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    vmm::RegionTracker ts(small.vm(), cfg);
    vmm::RegionTracker tl(large.vm(), cfg);

    const std::uint64_t probe_cap =
        static_cast<std::uint64_t>(cfg.region_max) * cfg.region_probes;
    for (int round = 0; round < 6; ++round) {
        const auto rs = ts.scanOnce();
        const auto rl = tl.scanOnce();
        EXPECT_EQ(rs.pages_scanned,
                  rs.regions * cfg.region_probes);
        EXPECT_EQ(rl.pages_scanned,
                  rl.regions * cfg.region_probes);
        EXPECT_LE(rs.pages_scanned, probe_cap);
        EXPECT_LE(rl.pages_scanned, probe_cap);
    }

    // Contrast: the per-PTE scanner's work grows with the footprint.
    vmm::HotnessConfig pte;
    pte.pages_per_scan = 1'000'000;
    vmm::PteScanTracker ps(small.vm(), pte);
    vmm::PteScanTracker pl(large.vm(), pte);
    EXPECT_GT(pl.scanOnce().pages_scanned,
              ps.scanOnce().pages_scanned);
}

TEST(RegionTracker, GuidedRegionsSurviveDirectiveRepublish)
{
    BackendFixture f;
    auto pages = f.allocPages(2048);

    vmm::SharedRing ring;
    auto publish = [&] {
        vmm::TrackingDirectives d;
        f.guest->process(0).forEachVma([&](const guestos::Vma &vma) {
            d.ranges.push_back({0, vma.start, vma.end()});
        });
        ring.publishDirectives(std::move(d));
    };
    publish();

    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    cfg.region_min_pages = 32;
    vmm::RegionTracker tracker(f.vm(), cfg);
    tracker.guideWith(&ring);

    // Build up split structure under a skewed pattern.
    for (int round = 0; round < 12; ++round) {
        for (std::uint64_t i = 0; i < 512; ++i)
            f.guest->pageMeta(pages[i]).setPteAccessed(true);
        tracker.scanOnce();
    }
    auto boundaries = [&] {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> b;
        for (const auto &r : tracker.regions())
            b.emplace_back(r.lo, r.hi);
        return b;
    };
    const auto before = boundaries();

    // The coordinated policy republishes identical directives every
    // 200ms; the version bumps but the learned regions must survive.
    publish();
    for (std::uint64_t i = 0; i < 512; ++i)
        f.guest->pageMeta(pages[i]).setPteAccessed(true);
    auto res = tracker.scanOnce();
    EXPECT_EQ(res.splits + res.merges, 0u)
        << "republish wiped adaptation state";
    EXPECT_EQ(boundaries(), before);
}

TEST(RegionTracker, EmitsHotRegionPagesWithinBudget)
{
    BackendFixture f;
    auto pages = f.allocPages(1024);
    vmm::HotnessConfig cfg;
    cfg.backend = vmm::HotnessBackend::Region;
    vmm::RegionTracker tracker(f.vm(), cfg);

    std::uint64_t emitted = 0;
    const std::uint64_t budget = cfg.promoteBudget(tracker.interval());
    for (int round = 0; round < 10; ++round) {
        for (auto pfn : pages)
            f.guest->pageMeta(pfn).setPteAccessed(true);
        auto res = tracker.scanOnce();
        EXPECT_LE(res.hot.size(), budget);
        for (auto pfn : res.hot) {
            const auto p = f.guest->pageMeta(pfn);
            EXPECT_TRUE(p.allocated());
            EXPECT_GE(p.heat(), cfg.hot_threshold);
        }
        emitted += res.hot.size();
    }
    EXPECT_GT(emitted, 0u) << "uniformly hot VM produced no candidates";
}

TEST(HotnessSpec, FactorySelectsBackends)
{
    BackendFixture f;
    vmm::HotnessConfig cfg;
    EXPECT_STREQ(vmm::makeHotnessTracker(f.vm(), cfg)->backendName(),
                 "pte_scan");
    cfg.backend = vmm::HotnessBackend::Region;
    EXPECT_STREQ(vmm::makeHotnessTracker(f.vm(), cfg)->backendName(),
                 "region");
}

TEST(HotnessSpec, AppliesOverBaseConfig)
{
    core::HotnessSpec spec;
    spec.backend = "region";
    spec.interval_ms = 50.0;
    spec.region_probes = 16;

    vmm::HotnessConfig base;
    base.pages_per_scan = 8192;
    base.per_pte_ns = 350.0;
    const auto cfg = spec.apply(base);
    EXPECT_EQ(cfg.backend, vmm::HotnessBackend::Region);
    EXPECT_EQ(cfg.interval, sim::milliseconds(50));
    EXPECT_EQ(cfg.region_probes, 16u);
    // Unset fields keep the approach's base tuning.
    EXPECT_EQ(cfg.pages_per_scan, 8192u);
    EXPECT_DOUBLE_EQ(cfg.per_pte_ns, 350.0);
}

TEST(HotnessSpec, ScenarioJsonRoundTrip)
{
    core::HotnessSpec spec;
    spec.backend = "region";
    spec.interval_ms = 50.0;
    spec.hot_threshold = 80;
    spec.region_max = 128;
    spec.region_split_threshold = 0.5;
    const core::Scenario s = core::Scenario{}.withHotness(spec);

    const std::string json = core::scenarioToJson(s);
    const auto doc = sim::jsonParse(json);
    ASSERT_TRUE(doc.has_value());
    std::string err;
    const auto parsed = core::scenarioFromJson(*doc, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->hotness.backend, "region");
    ASSERT_TRUE(parsed->hotness.interval_ms.has_value());
    EXPECT_DOUBLE_EQ(*parsed->hotness.interval_ms, 50.0);
    EXPECT_EQ(parsed->hotness.hot_threshold, 80u);
    EXPECT_EQ(parsed->hotness.region_max, 128u);
    ASSERT_TRUE(parsed->hotness.region_split_threshold.has_value());
    EXPECT_DOUBLE_EQ(*parsed->hotness.region_split_threshold, 0.5);
    // Unset knobs stay unset (so approach defaults still apply).
    EXPECT_FALSE(parsed->hotness.pages_per_scan.has_value());
    EXPECT_FALSE(parsed->hotness.adaptive.has_value());

    // A default spec is elided entirely.
    EXPECT_EQ(core::scenarioToJson(core::Scenario{}).find("hotness"),
              std::string::npos);
}

TEST(HotnessSpec, SweepAxisKeysAndDeprecatedShims)
{
    core::Scenario s;
    std::string err;
    EXPECT_TRUE(core::applyScenarioParam(s, "hotness.backend", "region",
                                         &err))
        << err;
    EXPECT_EQ(s.hotness.backend, "region");
    EXPECT_FALSE(
        core::applyScenarioParam(s, "hotness.backend", "hmm_v", &err));
    EXPECT_TRUE(core::applyScenarioParam(s, "hotness.region_probes",
                                         "32", &err));
    EXPECT_EQ(s.hotness.region_probes, 32u);
    EXPECT_FALSE(
        core::applyScenarioParam(s, "hotness.bogus", "1", &err));

    // The pre-`hotness` loose spellings are gone: each one, and the
    // top-level spellings of the two deleted knobs, is an unknown
    // scenario key and leaves the spec untouched.
    const char *const retired[] = {
        // hos-analyze: loose-hotness-key (rejection under test)
        "interval",
        // hos-analyze: loose-hotness-key (rejection under test)
        "pages_per_scan",
        // hos-analyze: loose-hotness-key (rejection under test)
        "hot_threshold",
        // hos-analyze: loose-hotness-key (rejection under test)
        "adaptive",
        "free_run_skip",
        "legacy_placement_sampling",
    };
    core::Scenario old;
    for (const char *key : retired) {
        for (const char *value : {"1", "true"}) {
            err.clear();
            EXPECT_FALSE(core::applyScenarioParam(old, key, value, &err))
                << key << "=" << value;
            EXPECT_EQ(err,
                      std::string("unknown scenario key '") + key + "'");
        }
    }
    EXPECT_TRUE(old.hotness.isDefault());
    EXPECT_FALSE(core::applyScenarioParam(
        old, "hotness.free_run_skip", "true", &err));
    EXPECT_EQ(err, "unknown hotness key 'free_run_skip'");
    // A known key still reports the bad value itself.
    EXPECT_FALSE(core::applyScenarioParam(old, "hotness.interval_ms",
                                          "soon", &err));
    EXPECT_EQ(err, "bad value 'soon' for 'hotness.interval_ms'");
    EXPECT_FALSE(core::applyScenarioParam(old, "seed", "soon", &err));
    EXPECT_EQ(err, "bad value 'soon' for 'seed'");

    // And the old top-level JSON shape no longer loads.
    const auto doc = sim::jsonParse(
        R"({"app": "graphchi", "legacy_placement_sampling": true})");
    ASSERT_TRUE(doc.has_value());
    err.clear();
    EXPECT_FALSE(core::scenarioFromJson(*doc, &err).has_value());
    EXPECT_EQ(err, "unknown scenario key 'legacy_placement_sampling'");
}

TEST(HotnessSpec, RejectsValuesTheConfigCannotHold)
{
    // Each would panic in the event queue (a zero scan period), wrap
    // the 16-bit heat threshold, or cast a negative to an unsigned
    // field; every one is rejected with a diagnostic instead.
    const std::pair<std::string, const char *> bad[] = {
        {"hotness.interval_ms", "0"},
        {"hotness.interval_ms", "0.5"},
        {"hotness.interval_ms", "-100"},
        {"hotness.interval_ms", "nan"},
        {"hotness.hot_threshold", "70000"},
        {"hotness.hot_threshold", "-1"},
        {"hotness.hot_threshold", "96.5"},
        {"hotness.pages_per_scan", "-1"},
        {"hotness.pages_per_scan", "1e30"},
        {"hotness.region_probes", "-8"},
        {"hotness.region_merge_heat_delta", "65536"},
    };
    for (const auto &[key, value] : bad) {
        const std::string sub = key.substr(std::string("hotness.").size());
        core::Scenario s;
        std::string err;
        EXPECT_FALSE(core::applyScenarioParam(s, key, value, &err))
            << key << "=" << value;
        EXPECT_EQ(err.rfind(std::string("bad value '") + value +
                                "' for '" + key + "': ",
                            0),
                  0u)
            << err;
        EXPECT_TRUE(s.hotness.isDefault()) << key << "=" << value;

        // The Scenario JSON spelling goes through the same check.
        const auto doc = sim::jsonParse(std::string(R"({"hotness": {")") +
                                        sub + R"(": ")" + value + R"("}})");
        ASSERT_TRUE(doc.has_value());
        std::string jerr;
        EXPECT_FALSE(core::scenarioFromJson(*doc, &jerr).has_value())
            << key << "=" << value;
        EXPECT_EQ(jerr, err);

        // So does a sweep axis: the point never expands.
        core::Sweep sweep{core::Scenario{}};
        sweep.axis(key, std::vector<std::string>{"1", value});
        std::string serr;
        EXPECT_TRUE(sweep.points(&serr).empty()) << key << "=" << value;
        EXPECT_NE(serr.find(err), std::string::npos) << serr;
    }

    // The edges of each range still load.
    core::Scenario s;
    std::string err;
    for (const auto &[key, value] :
         std::initializer_list<std::pair<const char *, const char *>>{
             {"hotness.interval_ms", "1"},
             {"hotness.hot_threshold", "0"},
             {"hotness.hot_threshold", "65535"},
             {"hotness.pages_per_scan", "0"},
             {"hotness.pages_per_scan", "18446744073709551615"}}) {
        EXPECT_TRUE(core::applyScenarioParam(s, key, value, &err))
            << key << "=" << value << ": " << err;
    }
    EXPECT_EQ(s.hotness.hot_threshold, 65535u);
    EXPECT_EQ(s.hotness.pages_per_scan, ~std::uint64_t(0));
}

TEST(HotnessSpec, RegionBackendRunsDeterministically)
{
    const auto scenario = [] {
        return core::Scenario{}
            .withApp(workload::AppId::GraphChi)
            .withApproach(core::Approach::VmmExclusive)
            .withScale(0.02)
            .withCapacity(24 * mem::mib, 96 * mem::mib)
            .withSeed(3)
            .withHotnessBackend("region");
    };
    const auto a = core::run(scenario());
    const auto b = core::run(scenario());
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.metric, b.metric);
}

} // namespace
