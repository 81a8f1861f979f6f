/**
 * @file
 * Simulation-wide structured event tracing.
 *
 * Every interesting internal event — page allocations, migrations,
 * hotness scans, balloon resizes, swap traffic, hypercalls, DRF
 * reallocations, device batches — can be recorded as a fixed-size,
 * sim-tick-timestamped record into a bounded ring buffer. Exporters
 * (trace/exporters.hh) turn the ring into a Chrome trace_event JSON
 * (chrome://tracing / Perfetto) or a compact CSV.
 *
 * Design constraints, in order:
 *  1. Zero measurable cost when disabled: the emit() fast path is a
 *     thread-local session check and a branch. Benches run with
 *     tracing off and must not pay for its existence.
 *  2. Bounded memory: a fixed-capacity ring; when full, the oldest
 *     records are overwritten and counted as dropped.
 *  3. Determinism: two identical runs produce identical traces — no
 *     wall-clock anywhere, only sim ticks.
 *  4. Isolation: emit() records into the tracer of the calling
 *     thread's obs::Session (trace/session.hh) and nowhere else. Two
 *     HeteroSystems running on different sweep threads each collect
 *     their own events; nothing interleaves.
 *
 * Records carry up to three uint64 arguments whose meaning is fixed
 * per event type (see eventTypeInfo) so exporters can name them.
 */

#ifndef HOS_TRACE_TRACE_HH
#define HOS_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "trace/session.hh"

namespace hos::trace {

/** Event categories (bit flags; --trace-categories selects a set). */
enum class Category : std::uint32_t {
    None = 0,
    Alloc = 1u << 0,     ///< page allocation / free
    Migration = 1u << 1, ///< guest and VMM page migration
    Scan = 1u << 2,      ///< hotness scans and LRU reclaim passes
    Balloon = 1u << 3,   ///< balloon inflate / deflate / reclaim
    Swap = 1u << 4,      ///< swap-in / swap-out
    Hypercall = 1u << 5, ///< populate / unpopulate hypercalls
    Fairness = 1u << 6,  ///< DRF reallocation decisions
    Device = 1u << 7,    ///< memory-device service batches
    Stats = 1u << 8,     ///< stats snapshots (nothing emits these)
    Check = 1u << 9,     ///< invariant-check failures (hos::check)
    Prof = 1u << 10,     ///< profiler span begin/end (hos::prof)
    Xray = 1u << 11,     ///< placement-quality telemetry (hos::xray)
    All = 0xfffu,
};

/** Typed event records. The a0/a1/a2 meanings are per-type. */
enum class EventType : std::uint16_t {
    PageAlloc = 0,      ///< a0=page type, a1=pfn, a2=tier
    PageFree,           ///< a0=pfn, a1=tier
    MigrationStart,     ///< a0=candidates, a1=dst tier
    MigrationComplete,  ///< a0=migrated, a1=skipped, a2=dst tier
    HotnessScan,        ///< a0=scanned, a1=accessed, a2=hot
    LruReclaim,         ///< a0=target, a1=freed, a2=scanned
    BalloonInflate,     ///< a0=tier, a1=asked, a2=surrendered
    BalloonDeflate,     ///< a0=tier, a1=asked, a2=granted
    BalloonReclaim,     ///< a0=victim vm, a1=tier, a2=freed
    SwapOut,            ///< a0=pages, a1=swap used after
    SwapIn,             ///< a0=pages, a1=swap used after
    HypercallPopulate,  ///< a0=guest node, a1=asked, a2=granted
    HypercallUnpopulate,///< a0=guest node, a1=pages
    DrfReclaim,         ///< a0=victim vm, a1=tier, a2=reclaimed
    DeviceBatch,        ///< a0=loads, a1=stores, a2=bytes
    StatsSnapshot,      ///< unused; holds later types' numbers
    CheckFailure,       ///< a0=CheckKind, a1=subject pfn/mfn
    SpanBegin,          ///< a0=prof::SpanKind, a1=depth after open
    SpanEnd,            ///< a0=prof::SpanKind, a1=depth before close
    XrayHotCross,       ///< a0=gpfn, a1=heat, a2=threshold
    XrayMove,           ///< a0=xray::EventKind, a1=gpfn, a2=heat
    XrayPingPong,       ///< a0=gpfn, a1=bounces, a2=gap ns
    XrayDecision,       ///< a0=xray::EventKind, a1/a2=kind-specific
};

constexpr std::size_t numEventTypes = 23;

/** Static description of one event type. */
struct EventTypeInfo
{
    const char *name;
    Category category;
    const char *a0, *a1, *a2; ///< argument names ("" = unused)
};

const EventTypeInfo &eventTypeInfo(EventType t);
const char *categoryName(Category single_bit);

/**
 * Install the hook that turns a SpanBegin/SpanEnd a0 value back into
 * a span name. hos::prof sits above trace, so trace cannot name
 * prof::SpanKind itself; the profiler registers its table here and
 * exporters call spanName(). Idempotent and thread-safe.
 */
void setSpanNameResolver(const char *(*resolver)(std::uint64_t));

/** Span name for a SpanBegin/SpanEnd a0, or nullptr if unresolved. */
const char *spanName(std::uint64_t kind);

/**
 * Parse a comma-separated category list ("migration,scan,balloon")
 * into a mask; "all" selects everything. Unknown names are reported
 * via warn() and skipped. Empty input means All.
 */
std::uint32_t parseCategories(const std::string &csv);

/** One trace record (fixed size; args are typed per EventType). */
struct Record
{
    sim::Tick ts = 0;       ///< sim time the event happened
    sim::Duration dur = 0;  ///< modelled cost, when the event has one
    EventType type = EventType::PageAlloc;
    std::uint16_t vm = 0;   ///< VM id (0 when single-VM / unknown)
    std::uint32_t seq = 0;  ///< tie-breaker among same-tick records
    std::uint64_t a0 = 0, a1 = 0, a2 = 0;
};

/**
 * Fixed-capacity ring buffer of trace records, with its own category
 * mask. emit() reaches it through the calling thread's obs::Session.
 */
class Tracer
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;

    /** Enable recording for the categories in `mask`. */
    void enable(std::uint32_t mask);
    /** Stop recording (buffered records stay exportable). */
    void disable();
    std::uint32_t mask() const { return mask_; }

    /** Resize the ring (drops all buffered records). */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    /** Drop all buffered records and the drop/sequence counters. */
    void clear();

    /** Slow path: append one record (call through emit()). */
    void record(EventType type, sim::Tick ts, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                sim::Duration dur = 0, std::uint16_t vm = 0);

    /** Records currently buffered. */
    std::size_t size() const { return ring_.size(); }
    /** Records ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }
    /** Records lost to ring wraparound. */
    std::uint64_t dropped() const
    {
        return recorded_ - ring_.size();
    }

    /** Visit buffered records oldest-first. */
    void forEach(const std::function<void(const Record &)> &fn) const;

  private:
    std::uint32_t mask_ = 0; ///< categories this tracer records
    std::size_t capacity_ = defaultCapacity;
    std::vector<Record> ring_;
    std::size_t head_ = 0; ///< next write position once full
    std::uint64_t recorded_ = 0;
};

namespace detail {
/** The tracer of this thread's session, or nullptr. */
inline Tracer *
activeTracer()
{
    const obs::Session *s = obs::current();
    return s ? s->tracer : nullptr;
}

/** The categories recorded on this thread (0 with no tracer). */
inline std::uint32_t
activeMask()
{
    const Tracer *t = activeTracer();
    return t ? t->mask() : 0;
}
} // namespace detail

/** True when `c` is being recorded on this thread. */
inline bool
enabled(Category c)
{
    return (detail::activeMask() & static_cast<std::uint32_t>(c)) != 0;
}

/** True when any category is being recorded on this thread. */
inline bool
anyEnabled()
{
    return detail::activeMask() != 0;
}

/**
 * Record an event if its category is enabled. This is the only call
 * hot paths make; when tracing is off it costs a thread-local session
 * check and a branch.
 */
inline void
emit(EventType type, sim::Tick ts, std::uint64_t a0 = 0,
     std::uint64_t a1 = 0, std::uint64_t a2 = 0, sim::Duration dur = 0,
     std::uint16_t vm = 0)
{
    Tracer *sink = detail::activeTracer();
    if (sink == nullptr || sink->mask() == 0)
        return;
    if (!(sink->mask() &
          static_cast<std::uint32_t>(eventTypeInfo(type).category)))
        return;
    sink->record(type, ts, a0, a1, a2, dur, vm);
}

} // namespace hos::trace

#endif // HOS_TRACE_TRACE_HH
