/**
 * @file
 * Golden determinism: simulated results are pinned fingerprints, so
 * host-time optimizations are held to them instead of to a retained
 * copy of the code they replaced. A pinned scenario matrix and a
 * two-VM DRF run compare the full Result (elapsed ticks, phases,
 * metric, instruction and LLC-miss counts) field for field against
 * fingerprints captured before each optimization landed. Double runs
 * pin plain determinism, and profiled / xrayed runs pin that the
 * telemetry layers observe without perturbing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "prof/report.hh"
#include "vmm/drf.hh"
#include "workload/apps.hh"
#include "xray/report.hh"

namespace {

using namespace hos;

/** Every simulated field of a Result, rendered exactly. */
std::string
fingerprint(const workload::Workload::Result &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.workload << '|' << r.elapsed << '|' << r.phases << '|'
       << r.metric << '|' << r.metric_name << '|' << r.instructions
       << '|' << r.llc_misses << '|' << r.mpki;
    return os.str();
}

/** The pinned matrix: one scenario per approach under test. */
std::vector<core::Scenario>
goldenMatrix()
{
    std::vector<core::Scenario> matrix;
    for (const core::Approach a :
         {core::Approach::HeteroLru, core::Approach::VmmExclusive,
          core::Approach::Coordinated}) {
        matrix.push_back(core::Scenario{}
                             .withApp(workload::AppId::GraphChi)
                             .withApproach(a)
                             .withScale(0.02)
                             .withCapacity(24 * mem::mib, 96 * mem::mib)
                             .withSeed(3));
    }
    return matrix;
}

TEST(GoldenDeterminism, PteScanMatchesPrePluggableBackends)
{
    // Fingerprints captured at the commit immediately before the
    // HotnessTracker interface extraction. The pte_scan backend is a
    // pure code motion of the old concrete tracker, so the refactor
    // (and backend selection via the scenario hotness spec) must not
    // move a single bit of any golden-matrix result.
    const char *pinned[] = {
        "GraphChi|34468671|8|0.034468670999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
        "GraphChi|45152182|8|0.045152181999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
        "GraphChi|34468671|8|0.034468670999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
    };
    const auto matrix = goldenMatrix();
    ASSERT_EQ(matrix.size(), std::size(pinned));
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        core::Scenario s = matrix[i];
        // Selecting pte_scan explicitly must be a no-op vs default.
        s.withHotnessBackend("pte_scan");
        EXPECT_EQ(fingerprint(core::run(s)), pinned[i])
            << "pte_scan diverged from the pre-interface tracker: "
            << s.label();
    }
}

TEST(GoldenDeterminism, SoaPageMetadataMatchesPreSoaStruct)
{
    // Fingerprints captured at the commit immediately before the
    // struct-of-arrays PageArray conversion (equal to the
    // pre-pluggable-backend pins above: every intervening PR held
    // the matrix bit-stable). The SoA columns, the PageRef accessor
    // facade, the lazy-reversal balloon stack, and the timer-wheel
    // event queue change memory layout and host time only — not one
    // bit of any simulated result.
    const char *pinned[] = {
        "GraphChi|34468671|8|0.034468670999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
        "GraphChi|45152182|8|0.045152181999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
        "GraphChi|34468671|8|0.034468670999999999|time(sec)"
        "|240000000|317304|1.3221000000000001",
    };
    const auto matrix = goldenMatrix();
    ASSERT_EQ(matrix.size(), std::size(pinned));
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        EXPECT_EQ(fingerprint(core::run(matrix[i])), pinned[i])
            << "SoA page metadata diverged from the AoS layout: "
            << matrix[i].label();
    }
}

TEST(GoldenDeterminism, TwoVmDrfMatchesPinnedFingerprint)
{
    // Ballooning only churns under overcommit, so this pins the two-VM
    // DRF configuration: balloon grant order, DRF arbitration and
    // lockstep interleaving. Captured at the commit before the
    // take/return balloon protocol and the residency index were
    // deleted, when both balloon paths produced this same string.
    const char *pinned =
        "GraphChi|207661524|8|0.20766152399999999|time(sec)"
        "|240000000|868448|3.6185333333333332;"
        "Metis|786383797|4|0.78638379700000005|time(sec)"
        "|152000000|1563136|10.283789473684211;";

    core::HostConfig host;
    host.fast = mem::dramSpec(24 * mem::mib);
    host.slow = mem::defaultSlowMemSpec(96 * mem::mib);
    core::HeteroSystem sys(host);
    sys.vmm().setFairness(std::make_unique<vmm::DrfFairness>());

    core::GuestSizing g;
    g.name = "graphchi-vm";
    g.fast_max = 24 * mem::mib;
    g.fast_initial = 8 * mem::mib;
    g.slow_max = 96 * mem::mib;
    g.slow_initial = 48 * mem::mib;
    core::GuestSizing m = g;
    m.name = "metis-vm";
    m.fast_initial = 16 * mem::mib;
    m.seed = 7;

    auto &g_slot =
        sys.addVm(core::makePolicy(core::Approach::Coordinated), g);
    auto &m_slot =
        sys.addVm(core::makePolicy(core::Approach::Coordinated), m);
    const auto results =
        sys.runMany({{&g_slot, workload::makeGraphchiTwitter(0.02)},
                     {&m_slot, workload::makeMetisLarge(0.02)}});
    std::string f;
    for (const auto &r : results)
        f += fingerprint(r) + ";";
    EXPECT_EQ(f, pinned) << "two-VM DRF run diverged from its pin";
}

TEST(GoldenDeterminism, SameScenarioTwiceIsBitIdentical)
{
    for (const core::Scenario &s : goldenMatrix()) {
        const auto first = core::run(s);
        const auto second = core::run(s);
        EXPECT_EQ(fingerprint(first), fingerprint(second))
            << "non-deterministic: " << s.label();
    }
}

TEST(GoldenDeterminism, ProfilingIsBitIdentical)
{
    // The span profiler observes charges; it must never create,
    // reorder, or resize them. Prof-on and prof-off runs of the
    // matrix must agree on every simulated field, and two prof-on
    // runs must serialize identical ledgers.
    for (const core::Scenario &s : goldenMatrix()) {
        const auto plain = core::run(s);

        auto profiled = [&] {
            core::Scenario p = s;
            p.withProfiling();
            auto sys = core::systemFor(p);
            auto result = sys->runOne(
                sys->slot(0), workload::makeApp(p.app, p.scale));
            std::ostringstream os;
            sim::JsonWriter w(os);
            prof::writeProfileReport(w, sys->profiler().report());
            return std::make_pair(fingerprint(result), os.str());
        };

        const auto first = profiled();
        EXPECT_EQ(fingerprint(plain), first.first)
            << "profiling perturbed the simulation: " << s.label();

        const auto second = profiled();
        EXPECT_EQ(first.first, second.first)
            << "profiled run non-deterministic: " << s.label();
        EXPECT_EQ(first.second, second.second)
            << "ledger non-deterministic: " << s.label();
    }
}

TEST(GoldenDeterminism, XrayIsBitIdentical)
{
    // xray shadows decisions; it must never make them. Xray-on and
    // xray-off runs of the matrix must agree on every simulated
    // field, and two xray-on runs must serialize identical reports.
    for (const core::Scenario &s : goldenMatrix()) {
        const auto plain = core::run(s);

        auto xrayed = [&] {
            core::Scenario x = s;
            x.withXray();
            auto sys = core::systemFor(x);
            auto result = sys->runOne(
                sys->slot(0), workload::makeApp(x.app, x.scale));
            std::ostringstream os;
            sim::JsonWriter w(os);
            xray::writeXrayReport(w, sys->xrayRecorder().report());
            return std::make_pair(fingerprint(result), os.str());
        };

        const auto first = xrayed();
        EXPECT_EQ(fingerprint(plain), first.first)
            << "xray perturbed the simulation: " << s.label();

        const auto second = xrayed();
        EXPECT_EQ(first.first, second.first)
            << "xrayed run non-deterministic: " << s.label();
        EXPECT_EQ(first.second, second.second)
            << "xray report non-deterministic: " << s.label();
    }
}

} // namespace
