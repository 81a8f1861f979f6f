/**
 * @file
 * Event tracing: ring-buffer semantics, category filtering, exporter
 * well-formedness, timestamp ordering, and run-to-run determinism.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "test_helpers.hh"
#include "trace/exporters.hh"
#include "trace/session.hh"
#include "trace/trace.hh"

namespace {

using namespace hos;
using trace::EventType;
using trace::Record;
using trace::Tracer;

TEST(TraceRing, FillsThenWrapsOverwritingOldest)
{
    Tracer t;
    t.setCapacity(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(EventType::PageAlloc, /*ts=*/i * 100, /*a0=*/i);

    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);

    // Survivors are the newest four, visited oldest-first.
    std::vector<std::uint64_t> seen;
    t.forEach([&](const Record &r) { seen.push_back(r.a0); });
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(TraceRing, ClearResetsCounters)
{
    Tracer t;
    t.setCapacity(2);
    t.record(EventType::PageFree, 1);
    t.record(EventType::PageFree, 2);
    t.record(EventType::PageFree, 3);
    EXPECT_EQ(t.dropped(), 1u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceCategories, ParseNamesAndAll)
{
    using trace::Category;
    EXPECT_EQ(trace::parseCategories(""),
              static_cast<std::uint32_t>(Category::All));
    EXPECT_EQ(trace::parseCategories("all"),
              static_cast<std::uint32_t>(Category::All));
    EXPECT_EQ(trace::parseCategories("migration"),
              static_cast<std::uint32_t>(Category::Migration));
    EXPECT_EQ(trace::parseCategories("migration,scan"),
              static_cast<std::uint32_t>(Category::Migration) |
                  static_cast<std::uint32_t>(Category::Scan));
    // Unknown names are skipped (with a warning), known ones kept.
    EXPECT_EQ(trace::parseCategories("bogus,swap"),
              static_cast<std::uint32_t>(Category::Swap));
}

TEST(TraceCategories, MaskFiltersEmit)
{
    Tracer t;
    t.setCapacity(64);
    t.enable(static_cast<std::uint32_t>(trace::Category::Migration));
    const obs::Scope scope({.tracer = &t});

    trace::emit(EventType::PageAlloc, 10);       // alloc: filtered
    trace::emit(EventType::MigrationStart, 20);  // migration: kept
    trace::emit(EventType::SwapOut, 30);         // swap: filtered
    trace::emit(EventType::MigrationComplete, 40);

    EXPECT_EQ(t.size(), 2u);
    t.forEach([](const Record &r) {
        EXPECT_EQ(trace::eventTypeInfo(r.type).category,
                  trace::Category::Migration);
    });

    t.disable();
    trace::emit(EventType::MigrationStart, 50); // disabled: dropped
    EXPECT_EQ(t.size(), 2u);
}

TEST(TraceExport, ChromeJsonIsWellFormed)
{
    Tracer t;
    t.setCapacity(16);
    t.record(EventType::PageAlloc, 1000, 1, 42, 0);
    t.record(EventType::HotnessScan, 2000, 512, 33, 7,
             /*dur=*/1500, /*vm=*/1);
    t.record(EventType::MigrationComplete, 3000, 8, 2, 0, /*dur=*/24000);

    std::ostringstream os;
    trace::writeChromeJson(t, os);
    const std::string json = os.str();

    EXPECT_TRUE(hos::test::jsonWellFormed(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"page_alloc\""), std::string::npos);
    EXPECT_NE(json.find("\"hotness_scan\""), std::string::npos);
    // Events with a duration become complete ("X") events, others
    // instants ("i").
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"scanned\""), std::string::npos);
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerRecord)
{
    Tracer t;
    t.setCapacity(8);
    t.record(EventType::SwapOut, 500, 16, 16);
    t.record(EventType::SwapIn, 900, 4, 12);

    std::ostringstream os;
    trace::writeCsv(t, os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("ts_ns,dur_ns,type,category,vm,a0,a1,a2"),
              std::string::npos);
    EXPECT_NE(csv.find("swap_out"), std::string::npos);
    EXPECT_NE(csv.find("swap_in"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(TraceExport, TimestampsMonotonicallyNonDecreasing)
{
    // Interleaved clocks (multi-VM lockstep): records arrive out of
    // global time order; the exporter must still emit sorted ts.
    Tracer t;
    t.setCapacity(16);
    t.record(EventType::PageAlloc, 5000);
    t.record(EventType::PageAlloc, 1000, 0, 0, 0, 0, 1);
    t.record(EventType::PageAlloc, 3000);
    t.record(EventType::PageAlloc, 1000, 0, 0, 0, 0, 2);

    std::ostringstream os;
    trace::writeChromeJson(t, os);
    const std::string json = os.str();

    double last = -1.0;
    std::size_t pos = 0;
    int count = 0;
    while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        const double ts = std::stod(json.substr(pos));
        EXPECT_GE(ts, last);
        last = ts;
        ++count;
    }
    EXPECT_EQ(count, 4);
}

TEST(TraceDeterminism, IdenticalRunsProduceIdenticalTraces)
{
    auto run = [] {
        Tracer t;
        t.setCapacity(1u << 12);
        t.enable(static_cast<std::uint32_t>(trace::Category::All));
        const obs::Scope scope({.tracer = &t});

        auto kernel = hos::test::standaloneGuest(8 * mem::mib,
                                                 32 * mem::mib);
        kernel->startDaemons();
        guestos::AllocRequest req;
        req.type = guestos::PageType::Anon;
        for (int burst = 0; burst < 4; ++burst) {
            for (int i = 0; i < 1500; ++i)
                kernel->allocPage(req);
            kernel->events().runUntil(
                sim::milliseconds(60) * (burst + 1));
        }

        t.disable();
        std::ostringstream os;
        trace::writeChromeJson(t, os);
        return os.str();
    };

    const std::string first = run();
    const std::string second = run();
    EXPECT_GT(first.size(), 100u);
    EXPECT_EQ(first, second);
}

} // namespace
