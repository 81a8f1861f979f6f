#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace hos::sim {

void
EventQueue::resetWheel()
{
    slab_.clear();
    free_ = npos;
    pending_ = 0;
    occupied_.fill(0);
    for (auto &level : slots_)
        level.fill(npos);
}

std::uint32_t
EventQueue::allocNode()
{
    if (free_ != npos) {
        const std::uint32_t idx = free_;
        free_ = slab_[idx].next;
        return idx;
    }
    hos_assert(slab_.size() < npos, "event slab exhausted");
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
EventQueue::freeNode(std::uint32_t idx)
{
    Node &n = slab_[idx];
    n.action = nullptr; // release closure storage for reuse
    n.next = free_;
    free_ = idx;
}

void
EventQueue::placeNode(std::uint32_t idx)
{
    Node &n = slab_[idx];
    // Lowest level whose parent block still contains both now_ and
    // the deadline; within it the slot is the deadline's digit.
    unsigned level = 0;
    while (shr(n.when ^ now_, slotBits * (level + 1)) != 0)
        ++level;
    hos_assert(level < numLevels, "tick outside wheel range");
    const auto slot =
        static_cast<unsigned>(shr(n.when, slotBits * level) &
                              (numSlots - 1));
    n.next = slots_[level][slot];
    slots_[level][slot] = idx;
    occupied_[level] |= std::uint64_t{1} << slot;
}

void
EventQueue::advanceTo(Tick nt)
{
    const Tick old = now_;
    now_ = nt;
    setCurrentTick(now_);
    if (old == nt)
        return;
    // Each level whose current block changed must push the contents
    // of its newly-current slot down to finer levels; otherwise an
    // event filed coarsely in the past could hide behind a later
    // event filed finely after the clock moved.
    for (unsigned level = 1; level < numLevels; ++level) {
        if (shr(old, slotBits * level) == shr(nt, slotBits * level))
            break; // higher levels unchanged too
        const auto slot =
            static_cast<unsigned>(shr(nt, slotBits * level) &
                                  (numSlots - 1));
        std::uint32_t idx = slots_[level][slot];
        if (idx == npos)
            continue;
        slots_[level][slot] = npos;
        occupied_[level] &= ~(std::uint64_t{1} << slot);
        while (idx != npos) {
            const std::uint32_t next = slab_[idx].next;
            placeNode(idx); // lands at a finer level now
            idx = next;
        }
    }
}

bool
EventQueue::earliestEvent(Tick &out) const
{
    // Levels are radix-ordered: every pending event at a finer level
    // is due before any event at a coarser one, and within a level
    // slots are time-ordered from the current position up.
    for (unsigned level = 0; level < numLevels; ++level) {
        if (occupied_[level] == 0)
            continue;
        const auto pos =
            static_cast<unsigned>(shr(now_, slotBits * level) &
                                  (numSlots - 1));
        const std::uint64_t mask =
            occupied_[level] & ~((std::uint64_t{1} << pos) - 1);
        hos_assert(mask != 0, "stale wheel slot behind the clock");
        const auto slot =
            static_cast<unsigned>(std::countr_zero(mask));
        if (level == 0) {
            // All events in a level-0 slot share one exact tick.
            out = (now_ & ~Tick{numSlots - 1}) | slot;
            return true;
        }
        // A coarse slot spans many ticks; the chain minimum decides.
        Tick best = 0;
        bool have = false;
        for (std::uint32_t idx = slots_[level][slot]; idx != npos;
             idx = slab_[idx].next) {
            if (!have || slab_[idx].when < best) {
                best = slab_[idx].when;
                have = true;
            }
        }
        hos_assert(have, "occupied wheel slot with empty chain");
        out = best;
        return true;
    }
    return false;
}

void
EventQueue::schedule(Tick when, std::function<void()> action)
{
    if (when < now_)
        when = now_;
    const std::uint32_t idx = allocNode();
    Node &n = slab_[idx];
    n.when = when;
    n.seq = next_seq_++;
    n.action = std::move(action);
    placeNode(idx);
    ++pending_;
}

void
EventQueue::scheduleAfter(Duration delay, std::function<void()> action)
{
    schedule(now_ + delay, std::move(action));
}

void
EventQueue::schedulePeriodic(Duration period,
                             std::function<Duration(Duration)> action)
{
    hos_assert(period > 0, "periodic event needs a nonzero period");
    const std::size_t idx = periodic_.size();
    periodic_.push_back({period, std::move(action)});
    scheduleAfter(period, [this, idx] { firePeriodic(idx); });
}

void
EventQueue::firePeriodic(std::size_t idx)
{
    Periodic &task = periodic_[idx];
    const Duration next = task.action(task.period);
    if (next > 0) {
        task.period = next;
        scheduleAfter(next, [this, idx] { firePeriodic(idx); });
    }
}

void
EventQueue::runUntil(Tick t)
{
    // One entry per same-tick event: (seq, action) pulled out of the
    // slab before running, so actions are free to schedule (and grow
    // the slab) without invalidating anything.
    std::vector<std::pair<std::uint64_t, std::function<void()>>> batch;
    Tick due;
    while (earliestEvent(due) && due <= t) {
        advanceTo(due);
        const auto slot = static_cast<unsigned>(due & (numSlots - 1));
        const std::uint64_t bit = std::uint64_t{1} << slot;
        // Re-check after each batch: actions may schedule for the
        // current tick, and those must still fire inside this tick.
        while (occupied_[0] & bit) {
            batch.clear();
            std::uint32_t idx = slots_[0][slot];
            slots_[0][slot] = npos;
            occupied_[0] &= ~bit;
            while (idx != npos) {
                Node &n = slab_[idx];
                hos_assert(n.when == due, "mistimed level-0 event");
                batch.emplace_back(n.seq, std::move(n.action));
                const std::uint32_t next = n.next;
                freeNode(idx);
                idx = next;
            }
            pending_ -= batch.size();
            // Slot chains are LIFO; restore schedule (FIFO) order.
            std::sort(batch.begin(), batch.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (auto &[seq, action] : batch)
                action();
        }
    }
    if (t > now_)
        advanceTo(t);
    else
        setCurrentTick(now_);
}

void
EventQueue::clear()
{
    resetWheel();
    periodic_.clear();
}

} // namespace hos::sim
