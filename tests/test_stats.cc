/**
 * @file
 * Stats framework: counters, gauges, distributions, histograms,
 * stat groups, the stat registry, GuestKernel::syncStats, and the
 * table printer.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"
#include "sim/table.hh"
#include "test_helpers.hh"

namespace {

using namespace hos::sim;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, MovesBothWays)
{
    Gauge g;
    g.add(10);
    g.sub(3);
    EXPECT_EQ(g.value(), 7);
    g.sub(10);
    EXPECT_EQ(g.value(), -3);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(0.5);
    h.sample(9.5);
    h.sample(-1.0);  // clamps into bucket 0
    h.sample(100.0); // clamps into the last bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.bucketLo(5), 5.0);
}

TEST(StatGroup, NamedAccessAndDump)
{
    StatGroup g("guest0");
    g.counter("alloc").inc(3);
    g.gauge("resident").set(5);
    EXPECT_TRUE(g.hasCounter("alloc"));
    EXPECT_FALSE(g.hasCounter("nope"));
    EXPECT_EQ(g.findCounter("alloc").value(), 3u);
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("guest0.alloc 3"), std::string::npos);
    g.resetAll();
    EXPECT_EQ(g.findCounter("alloc").value(), 0u);
}

TEST(StatGroup, HistogramRegistrationIsIdempotent)
{
    StatGroup g("hist");
    Histogram &h = g.histogram("lat", 0.0, 100.0, 10);
    h.sample(5.0);
    // A second fetch must return the same histogram regardless of the
    // (ignored) shape parameters.
    Histogram &again = g.histogram("lat", 0.0, 1.0, 2);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.samples(), 1u);
    EXPECT_EQ(again.buckets(), 10u);
}

TEST(StatGroup, FindMirrorsEveryKind)
{
    StatGroup g("all");
    g.counter("c").inc(1);
    g.gauge("g").set(-4);
    g.distribution("d").sample(2.5);
    g.histogram("h", 0.0, 10.0, 5).sample(3.0);

    EXPECT_EQ(g.findGauge("g").value(), -4);
    EXPECT_EQ(g.findDistribution("d").count(), 1u);
    EXPECT_EQ(g.findHistogram("h").samples(), 1u);
    EXPECT_TRUE(g.hasGauge("g"));
    EXPECT_TRUE(g.hasDistribution("d"));
    EXPECT_TRUE(g.hasHistogram("h"));
    EXPECT_FALSE(g.hasGauge("c"));
    EXPECT_FALSE(g.hasDistribution("nope"));
    EXPECT_FALSE(g.hasHistogram("nope"));
}

TEST(StatGroup, DumpCoversAllKinds)
{
    StatGroup g("grp");
    g.counter("c").inc(2);
    g.gauge("res").set(7);
    g.distribution("d").sample(4.0);
    g.histogram("h", 0.0, 10.0, 2).sample(9.0);

    const std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.c 2"), std::string::npos);
    EXPECT_NE(dump.find("grp.res 7"), std::string::npos);
    EXPECT_NE(dump.find("grp.d.mean 4"), std::string::npos);
    EXPECT_NE(dump.find("grp.h.samples 1"), std::string::npos);
    EXPECT_NE(dump.find("grp.h.bucket1 1"), std::string::npos);
}

TEST(StatGroup, ResetAllCoversAllKinds)
{
    StatGroup g("grp");
    g.counter("c").inc(2);
    g.gauge("res").set(7);
    g.distribution("d").sample(4.0);
    g.histogram("h", 0.0, 10.0, 2).sample(9.0);

    g.resetAll();
    EXPECT_EQ(g.findCounter("c").value(), 0u);
    EXPECT_EQ(g.findGauge("res").value(), 0);
    EXPECT_EQ(g.findDistribution("d").count(), 0u);
    EXPECT_EQ(g.findHistogram("h").samples(), 0u);
    EXPECT_EQ(g.findHistogram("h").bucketCount(1), 0u);
}

TEST(StatGroup, ForEachScalarFlattens)
{
    StatGroup g("f");
    g.counter("c").inc(3);
    g.distribution("d").sample(1.0);
    g.distribution("d").sample(3.0);

    std::map<std::string, double> seen;
    g.forEachScalar(
        [&](const std::string &name, double v) { seen[name] = v; });
    EXPECT_EQ(seen.at("c"), 3.0);
    EXPECT_EQ(seen.at("d.count"), 2.0);
    EXPECT_EQ(seen.at("d.mean"), 2.0);
    EXPECT_EQ(seen.at("d.min"), 1.0);
    EXPECT_EQ(seen.at("d.max"), 3.0);
}

TEST(StatRegistry, FindAndRemove)
{
    StatGroup a("alpha"), b("beta");
    StatRegistry reg;
    reg.add(&a);
    reg.add(&b);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.find("alpha"), &a);
    EXPECT_EQ(reg.find("gamma"), nullptr);
    reg.remove("alpha");
    EXPECT_EQ(reg.find("alpha"), nullptr);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, RefreshHooksRunOnDump)
{
    StatGroup g("live");
    std::uint64_t source = 0;
    StatRegistry reg;
    reg.add(&g, [&] { g.counter("sampled").set(source); });

    source = 7;
    const std::string dump = reg.dumpAll();
    EXPECT_NE(dump.find("live.sampled 7"), std::string::npos);
}

TEST(StatsSnapshotter, GuestKernelSyncStatsPopulatesGroup)
{
    auto kernel = hos::test::standaloneGuest();
    hos::guestos::AllocRequest req;
    req.type = hos::guestos::PageType::Anon;
    for (int i = 0; i < 100; ++i)
        kernel->allocPage(req);

    kernel->syncStats();
    auto &stats = kernel->stats();
    EXPECT_EQ(stats.findCounter("alloc.requests").value(), 100u);
    EXPECT_EQ(stats
                  .findCounter(std::string("alloc.") +
                               hos::guestos::pageTypeName(
                                   hos::guestos::PageType::Anon))
                  .value(),
              100u);
    EXPECT_TRUE(stats.hasGauge("node.FastMem.free_pages"));
    EXPECT_TRUE(stats.hasCounter("overhead_ns.migration"));
}

TEST(Table, RendersAlignedRows)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", Table::num(std::uint64_t(1))});
    t.row({"long-name", Table::pct(12.345)});
    const std::string s = t.render();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(std::uint64_t(42)), "42");
    EXPECT_EQ(Table::pct(50.0, 0), "50%");
}

} // namespace
