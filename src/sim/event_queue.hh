/**
 * @file
 * Discrete-event queue.
 *
 * The simulation is largely phase-driven (workloads advance simulated
 * time in chunks), but periodic daemons — hotness-tracking scans, LRU
 * reclaim passes, balloon adjustments, writeback — are scheduled as
 * events so their cadence interleaves correctly with workload progress.
 *
 * The scheduler is a hierarchical timer wheel over an intrusive slab
 * of event nodes rather than a binary heap: the steady state here is
 * a handful of periodic daemons rescheduling themselves every epoch,
 * and a wheel makes that reschedule an O(1) list push with no
 * per-event allocation (freed nodes recycle through a free list,
 * reusing their std::function capacity). Same-tick events dispatch as
 * one batch, ordered by their schedule sequence number, so the
 * observable firing order is bit-identical to the former heap's
 * (when, seq) order.
 */

#ifndef HOS_SIM_EVENT_QUEUE_HH
#define HOS_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace hos::sim {

/**
 * A minimal discrete-event scheduler.
 *
 * Time only moves via runUntil(): the workload engine advances its own
 * clock and calls runUntil(now) so that daemons due before `now` fire
 * in order. Events may schedule further events.
 */
class EventQueue
{
  public:
    EventQueue() { resetWheel(); }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule an action at absolute tick `when` (>= now). */
    void schedule(Tick when, std::function<void()> action);

    /** Schedule an action `delay` after now. */
    void scheduleAfter(Duration delay, std::function<void()> action);

    /**
     * Schedule `action` every `period`, starting one period from now.
     * The action returns the next period (0 = stop), which lets daemons
     * adapt their own cadence (Equation 1 in the paper). The queue
     * owns the action until it is cleared or destroyed.
     */
    void schedulePeriodic(Duration period,
                          std::function<Duration(Duration)> action);

    /** Fire all events due at or before `t`, and advance now to `t`. */
    void runUntil(Tick t);

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /**
     * Drop all pending events and periodic tasks (end of run). Not
     * callable from inside an event action.
     */
    void clear();

  private:
    /// 64 slots per level; 11 levels * 6 bits cover the full Tick
    /// range (the top level absorbs any remaining high bits).
    static constexpr unsigned slotBits = 6;
    static constexpr unsigned numSlots = 1u << slotBits;
    static constexpr unsigned numLevels = 11;
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** Slab-resident event node, chained intrusively per slot. */
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0; ///< FIFO tie-break among same-tick events
        std::function<void()> action;
        std::uint32_t next = npos; ///< slot chain / free list link
    };

    /**
     * A schedulePeriodic task. The queue owns it; each firing is an
     * ordinary event that captures only the task's index.
     */
    struct Periodic
    {
        Duration period = 0; ///< the period the next firing passes
        std::function<Duration(Duration)> action;
    };

    /** Run periodic task `idx` and reschedule it by index. */
    void firePeriodic(std::size_t idx);

    /// Tick shifted by a possibly >= 64 bit count (level 10 uses 66).
    static Tick shr(Tick x, unsigned bits)
    {
        return bits >= 64 ? 0 : x >> bits;
    }

    std::uint32_t allocNode();
    void freeNode(std::uint32_t idx);
    /** File a node into the wheel relative to the current now_. */
    void placeNode(std::uint32_t idx);
    /**
     * Move now_ to `nt` and cascade each level's newly-current slot
     * down so lower levels regain their "due soon" resolution.
     */
    void advanceTo(Tick nt);
    /** Earliest pending event time, or false if the wheel is empty. */
    bool earliestEvent(Tick &out) const;
    void resetWheel();

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::size_t pending_ = 0;
    std::vector<Node> slab_;
    std::uint32_t free_ = npos;
    std::array<std::uint64_t, numLevels> occupied_;
    std::array<std::array<std::uint32_t, numSlots>, numLevels> slots_;
    /// A deque: a running action may add tasks without moving itself.
    std::deque<Periodic> periodic_;
};

} // namespace hos::sim

#endif // HOS_SIM_EVENT_QUEUE_HH
