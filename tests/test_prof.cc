/**
 * @file
 * hos::prof — span profiler, attribution ledger, exporters, diff.
 *
 * The load-bearing test is LedgerMatchesKernelCounters: for every
 * golden-matrix scenario, the profiler's per-kind sim-time sums must
 * equal the kernel's OverheadKind counters bit for bit — attribution
 * may slice costs by span, it must never invent or lose a
 * nanosecond. The rest pins the path algebra, the serialization
 * round-trip, the collapsed-stack and Chrome span exports, and the
 * profdiff regression verdicts both ways.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "guestos/kernel.hh"
#include "prof/diff.hh"
#include "prof/prof.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "trace/exporters.hh"
#include "trace/session.hh"
#include "trace/trace.hh"

namespace {

using namespace hos;
using prof::ProfileReport;
using prof::Profiler;
using prof::SpanKind;

/**
 * Pin the cost-kind label table regardless of test order (first
 * registration wins; the content matches the kernel's table, so a
 * kernel constructed earlier registers the same labels).
 */
void
registerKindNames()
{
    static constexpr const char *names[] = {
        "alloc", "reclaim", "migration", "hotscan",
        "balloon", "writeback", "io", "swap"};
    prof::registerCostKindNames(names, 8);
}

/** A small hand-built ledger used by the exporter/diff tests. */
ProfileReport
sampleReport()
{
    ProfileReport r;
    r.entries.push_back(
        {"migration_epoch", 0, "-", "-", 2, 0, 0});
    r.entries.push_back(
        {"migration_epoch;batch_copy", 0, "fast", "migration", 4,
         120000, 0});
    r.entries.push_back(
        {"migration_epoch;tlb_shootdown", 0, "fast", "migration", 4,
         8000, 0});
    r.entries.push_back(
        {"scan_pass", 1, "-", "hotscan", 7, 56000, 0});
    return r;
}

// --- Path tree and attribution (direct Profiler driving) -------------

TEST(ProfPaths, NestedSpansProduceJoinedPaths)
{
    registerKindNames();
    Profiler p;
    p.beginSpan(SpanKind::MigrationEpoch, 0, 0, prof::noTier);
    p.beginSpan(SpanKind::BatchCopy, 10, 0, 0);
    p.recordCharge(2, 500); // "migration" under the inner span
    p.endSpan(20);
    p.recordCharge(2, 300); // under the outer span
    p.endSpan(30);
    p.recordCharge(2, 100); // outside every span

    const auto report = p.report();
    auto find = [&](const std::string &path) -> const auto * {
        for (const auto &e : report.entries)
            if (e.path == path && e.kind == "migration")
                return &e;
        return static_cast<const prof::ProfileEntry *>(nullptr);
    };
    const auto *inner = find("migration_epoch;batch_copy");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->sim_ns, 500u);
    EXPECT_EQ(inner->tier, "fast");
    const auto *outer = find("migration_epoch");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->sim_ns, 300u);
    const auto *stray = find("(unattributed)");
    ASSERT_NE(stray, nullptr);
    EXPECT_EQ(stray->sim_ns, 100u);

    EXPECT_EQ(report.simTotalForKind("migration"), 900u);
    EXPECT_EQ(report.simGrandTotal(), 900u);
}

TEST(ProfPaths, ReenteredSpansShareOneNode)
{
    Profiler p;
    for (int i = 0; i < 3; ++i) {
        p.beginSpan(SpanKind::ScanPass, i * 10, 0, prof::noTier);
        p.endSpan(i * 10 + 5);
    }
    const auto report = p.report();
    std::size_t scan_rows = 0;
    for (const auto &e : report.entries)
        if (e.path == "scan_pass") {
            ++scan_rows;
            EXPECT_EQ(e.count, 3u); // one row, three occurrences
        }
    EXPECT_EQ(scan_rows, 1u);
    EXPECT_EQ(p.spansOpened(), 3u);
    EXPECT_EQ(p.spansClosed(), 3u);
    EXPECT_EQ(p.depth(), 0u);
}

// --- The cross-check: ledger vs kernel overhead counters -------------

TEST(ProfLedger, LedgerMatchesKernelCounters)
{
    if (!prof::profilingCompiled)
        GTEST_SKIP() << "spans compiled out (HOS_PROF=off)";

    for (const core::Approach a :
         {core::Approach::HeteroLru, core::Approach::VmmExclusive,
          core::Approach::Coordinated}) {
        core::Scenario s = core::Scenario{}
                               .withApp(workload::AppId::GraphChi)
                               .withApproach(a)
                               .withScale(0.02)
                               .withCapacity(24 * mem::mib,
                                             96 * mem::mib)
                               .withSeed(3)
                               .withProfiling();
        auto sys = core::systemFor(s);
        auto &slot = sys->slot(0);
        sys->runOne(slot, workload::makeApp(s.app, s.scale));

        const auto report = sys->profiler().report();
        std::uint64_t kernel_total = 0;
        for (int i = 0;
             i < static_cast<int>(guestos::numOverheadKinds); ++i) {
            const auto kind = static_cast<guestos::OverheadKind>(i);
            const auto counter = static_cast<std::uint64_t>(
                slot.kernel->overheadTotal(kind));
            EXPECT_EQ(report.simTotalForKind(
                          guestos::overheadKindName(kind)),
                      counter)
                << s.label() << ": ledger diverges for "
                << guestos::overheadKindName(kind);
            kernel_total += counter;
        }
        EXPECT_EQ(report.simGrandTotal(), kernel_total) << s.label();
    }
}

// --- Serialization ---------------------------------------------------

TEST(ProfReport, JsonRoundTripIsLossless)
{
    const ProfileReport original = sampleReport();
    std::ostringstream os;
    {
        sim::JsonWriter w(os);
        prof::writeProfileReport(w, original);
    }
    std::string error;
    const auto doc = sim::jsonParse(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const auto parsed = prof::profileReportFromJson(*doc, &error);
    ASSERT_TRUE(error.empty()) << error;

    ASSERT_EQ(parsed.entries.size(), original.entries.size());
    for (std::size_t i = 0; i < parsed.entries.size(); ++i) {
        const auto &a = original.entries[i];
        const auto &b = parsed.entries[i];
        EXPECT_EQ(a.path, b.path);
        EXPECT_EQ(a.vm, b.vm);
        EXPECT_EQ(a.tier, b.tier);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.sim_ns, b.sim_ns);
    }
}

TEST(ProfReport, CollapsedStackGolden)
{
    std::ostringstream os;
    prof::writeCollapsed(sampleReport(), os);
    // Span-occurrence rows (kind "-") are skipped: they carry no cost
    // and would double-count the flame widths.
    EXPECT_EQ(os.str(),
              "vm0;migration_epoch;batch_copy;migration 120000\n"
              "vm0;migration_epoch;tlb_shootdown;migration 8000\n"
              "vm1;scan_pass;hotscan 56000\n");
}

// --- Chrome span export ----------------------------------------------

TEST(ProfTrace, ChromeExportNestsBeginEndPairs)
{
    if (!prof::profilingCompiled)
        GTEST_SKIP() << "spans compiled out (HOS_PROF=off)";

    trace::Tracer tracer;
    tracer.enable(static_cast<std::uint32_t>(trace::Category::All));
    Profiler p;
    const obs::Scope scope({.tracer = &tracer, .profiler = &p});
    sim::EventQueue q;
    {
        HOS_PROF_SPAN(epoch, SpanKind::MigrationEpoch, q, 2);
        HOS_PROF_SPAN(copy, SpanKind::BatchCopy, q, 2, 0);
    }

    std::ostringstream os;
    trace::writeChromeJson(tracer, os);
    std::string error;
    const auto doc = sim::jsonParse(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Expect B(migration_epoch) B(batch_copy) E E, properly nested.
    std::vector<std::pair<std::string, std::string>> spans;
    for (const auto &e : events->array) {
        const auto *ph = e.find("ph");
        if (ph == nullptr)
            continue;
        const std::string phase = ph->asString("");
        if (phase != "B" && phase != "E")
            continue;
        const auto *name = e.find("name");
        ASSERT_NE(name, nullptr);
        spans.emplace_back(phase, name->asString(""));
    }
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0],
              (std::pair<std::string, std::string>{
                  "B", "migration_epoch"}));
    EXPECT_EQ(spans[1],
              (std::pair<std::string, std::string>{"B", "batch_copy"}));
    EXPECT_EQ(spans[2].first, "E");
    EXPECT_EQ(spans[3].first, "E");
}

// --- Diff / regression gate ------------------------------------------

TEST(ProfDiff, SelfDiffIsQuiet)
{
    const ProfileReport r = sampleReport();
    const auto diff = prof::diffProfiles(r, r);
    EXPECT_TRUE(diff.identical());
    EXPECT_FALSE(prof::hasRegression(diff, 0.0));
    EXPECT_EQ(diff.before_total, diff.after_total);
}

TEST(ProfDiff, InjectedRegressionIsDetected)
{
    const ProfileReport before = sampleReport();
    ProfileReport after = before;
    for (auto &e : after.entries)
        if (e.kind == "migration") // +10% on every migration cell
            e.sim_ns += e.sim_ns / 10;

    const auto diff = prof::diffProfiles(before, after);
    EXPECT_FALSE(diff.identical());
    EXPECT_TRUE(prof::hasRegression(diff, 5.0));
    EXPECT_FALSE(prof::hasRegression(diff, 15.0));
    EXPECT_NEAR(diff.maxKindGrowthPct(), 10.0, 0.2);

    // The shrunk direction is not a regression.
    const auto improved = prof::diffProfiles(after, before);
    EXPECT_FALSE(prof::hasRegression(improved, 5.0));
}

TEST(ProfDiff, DisjointCellsCompareAgainstZero)
{
    ProfileReport before = sampleReport();
    ProfileReport after = sampleReport();
    after.entries.push_back(
        {"drf_round", 0, "-", "balloon", 1, 999, 0});

    const auto diff = prof::diffProfiles(before, after);
    EXPECT_FALSE(diff.identical());
    EXPECT_TRUE(prof::hasRegression(diff, 50.0)); // 0 -> 999 grows
}

// --- Merging (the sweep-aggregate path) ------------------------------

TEST(ProfReport, MergeAccumulatesMatchingCells)
{
    ProfileReport dst = sampleReport();
    prof::mergeInto(dst, sampleReport());
    ASSERT_EQ(dst.entries.size(), sampleReport().entries.size());
    EXPECT_EQ(dst.simTotalForKind("migration"), 2u * 128000u);
    EXPECT_EQ(dst.simTotalForKind("hotscan"), 2u * 56000u);
}

} // namespace
