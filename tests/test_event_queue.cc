/**
 * @file
 * EventQueue: ordering, FIFO ties, periodic self-adaptive events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using namespace hos::sim;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&] { fired.push_back(3); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] { fired.push_back(2); });
    q.runUntil(25);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 25u);
    q.runUntil(100);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&fired, i] { fired.push_back(i); });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule(5, [&] {
        ++count;
        q.scheduleAfter(5, [&] { ++count; });
    });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PeriodicRunsAtPeriod)
{
    EventQueue q;
    int fires = 0;
    q.schedulePeriodic(10, [&](Duration p) {
        ++fires;
        return p;
    });
    q.runUntil(100);
    EXPECT_EQ(fires, 10);
}

TEST(EventQueue, PeriodicCanAdaptAndStop)
{
    EventQueue q;
    std::vector<Tick> at;
    q.schedulePeriodic(10, [&](Duration p) -> Duration {
        at.push_back(q.now());
        if (at.size() == 1)
            return p * 2; // slow down
        if (at.size() == 2)
            return 0; // stop
        return p;
    });
    q.runUntil(1000);
    ASSERT_EQ(at.size(), 2u);
    EXPECT_EQ(at[0], 10u);
    EXPECT_EQ(at[1], 30u);
}

TEST(EventQueue, CoarseEventOutranksLaterFineEvent)
{
    // An event filed while the clock was far away lands in a coarse
    // wheel level. After the clock advances into its block, a newer
    // event filed at fine granularity must not shadow it.
    EventQueue q;
    std::vector<Tick> fired;
    q.runUntil(100);
    q.schedule(4100, [&] { fired.push_back(4100); }); // coarse level
    q.runUntil(4097); // enter the 4096-block without dispatching
    q.schedule(4200, [&] { fired.push_back(4200); }); // fine level
    q.runUntil(5000);
    EXPECT_EQ(fired, (std::vector<Tick>{4100, 4200}));
}

TEST(EventQueue, FarJumpsAcrossLevels)
{
    EventQueue q;
    std::vector<Tick> fired;
    const std::vector<Tick> when = {20000000, 1, 300000, 70, 5000};
    for (Tick w : when)
        q.schedule(w, [&fired, w] { fired.push_back(w); });
    q.runUntil(30000000);
    EXPECT_EQ(fired, (std::vector<Tick>{1, 70, 5000, 300000, 20000000}));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.now(), 30000000u);
}

TEST(EventQueue, FarJumpWithPeriodicKeepsWhenSeqOrder)
{
    // A sampling daemon (periodic, fine cadence) coexists with
    // one-shot events filed across several wheel levels, and the
    // clock jumps far past all of them in a single runUntil — the
    // cascade path that redistributes coarse blocks while a periodic
    // event keeps refiling itself. Dispatch must stay in strict
    // (when, seq) order: every firing time non-decreasing, the
    // periodic hitting every multiple of its period exactly once, and
    // one-shots landing at their scheduled ticks relative to the
    // periodic stream.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired; // (when, source id)
    q.schedulePeriodic(700, [&](Duration p) {
        fired.emplace_back(q.now(), 0);
        return p;
    });
    const std::vector<Tick> oneshots = {70000000, 1400, 3,
                                        250000,   699,  4096};
    for (Tick w : oneshots)
        q.schedule(w, [&fired, w] { fired.emplace_back(w, 1); });

    q.runUntil(70000001); // one jump across every wheel level

    // Strictly time-ordered, with FIFO ties (periodic filed first
    // fires before a one-shot at the same tick).
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LE(fired[i - 1].first, fired[i].first)
            << "out of order at dispatch " << i;

    Tick next_periodic = 700;
    std::size_t next_oneshot = 0;
    std::vector<Tick> sorted = oneshots;
    std::sort(sorted.begin(), sorted.end());
    for (const auto &[when, src] : fired) {
        if (src == 0) {
            ASSERT_EQ(when, next_periodic);
            next_periodic += 700;
        } else {
            ASSERT_LT(next_oneshot, sorted.size());
            ASSERT_EQ(when, sorted[next_oneshot]);
            ++next_oneshot;
            // The interleave is pinned: every strictly-earlier
            // periodic tick already fired when a one-shot lands. At a
            // shared tick the one-shot wins the FIFO tie — it was
            // scheduled at t=0, before the periodic refiled itself —
            // so the periodic's firing at `when` is still due.
            EXPECT_GE(next_periodic, when);
        }
    }
    EXPECT_EQ(next_oneshot, sorted.size());
    EXPECT_EQ(next_periodic, 70000700u); // 100000 periodic firings
    EXPECT_EQ(q.pending(), 1u);          // the refiled periodic
}

TEST(EventQueue, SameTickRescheduleFiresWithinTick)
{
    // An action that schedules for the current tick must still fire
    // inside the same runUntil, after the already-queued batch.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&] {
        fired.push_back(0);
        q.scheduleAfter(0, [&] { fired.push_back(2); });
    });
    q.schedule(10, [&] { fired.push_back(1); });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, PastEventsClampToNow)
{
    EventQueue q;
    q.runUntil(50);
    bool fired = false;
    q.schedule(10, [&] { fired = true; });
    q.runUntil(50);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, ClearDropsPending)
{
    EventQueue q;
    bool fired = false;
    q.schedule(10, [&] { fired = true; });
    q.clear();
    q.runUntil(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PeriodicActionIsFreedWithTheQueue)
{
    auto sentinel = std::make_shared<int>(0);
    {
        EventQueue q;
        q.schedulePeriodic(10, [sentinel](Duration p) {
            ++*sentinel;
            return p;
        });
        q.schedulePeriodic(15, [sentinel](Duration) -> Duration {
            return 0; // stops after one firing
        });
        q.runUntil(100);
        EXPECT_EQ(*sentinel, 10);
        EXPECT_GT(sentinel.use_count(), 1);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

} // namespace
