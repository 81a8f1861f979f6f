/**
 * @file
 * hos::prof — deterministic hierarchical span profiler.
 *
 * Answers the question the flat tracer cannot: *which mechanism* ate
 * the simulated time. RAII spans (HOS_PROF_SPAN) mark the paper's
 * cost centers — migration epoch → candidate-select → batch-copy →
 * remap → TLB-shootdown; scan pass → per-chunk walk; DRF round →
 * reallocation → balloon op — and every GuestKernel::charge() made
 * while a span is open is attributed to the innermost open span's
 * ledger cell, keyed by (span path, VM, tier, overhead kind). The
 * per-kind ledger sums therefore equal the kernel's OverheadKind
 * counters *by construction*, bit for bit — the cross-check
 * test_prof.cc pins.
 *
 * Design constraints, in order:
 *  1. Zero cost when compiled out: HOS_PROF_LEVEL=0 turns
 *     HOS_PROF_SPAN into an empty declaration and onCharge() into a
 *     no-op (mirroring HOS_CHECK's level scheme).
 *  2. Deterministic: span begin/end and charge attribution read only
 *     sim ticks. Host time (steady_clock) exists solely at
 *     HOS_PROF_LEVEL=2 and is never included in determinism-checked
 *     output (writeProfileReport drops it unless explicitly asked).
 *  3. Bit-identical simulation: profiling observes charges, it never
 *     creates or reorders them. Golden-determinism tests run the
 *     pinned matrix prof-on and prof-off and compare Results.
 *  4. Isolation: spans and charges go to the profiler of the calling
 *     thread's obs::Session (trace/session.hh), so parallel sweep
 *     points never interleave; HeteroSystem installs its session
 *     around runOne/runMany.
 *
 * Layering: prof sits between trace and guestos, so it cannot name
 * guestos::OverheadKind. Charges carry the kind as a plain index;
 * GuestKernel registers the label table once (registerCostKindNames)
 * and exporters resolve indices back to "migration"/"hotscan"/...
 */

#ifndef HOS_PROF_PROF_HH
#define HOS_PROF_PROF_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/time.hh"
#include "trace/session.hh"

#ifndef HOS_PROF_LEVEL
#define HOS_PROF_LEVEL 1
#endif

namespace hos::prof {

/** Compile-time profiling level (CMake HOS_PROF=off/sim/host). */
constexpr int compiledLevel = HOS_PROF_LEVEL;
/** Spans and charge attribution compiled in (level >= 1). */
constexpr bool profilingCompiled = HOS_PROF_LEVEL >= 1;
/** Spans additionally sample host steady_clock time (level >= 2). */
constexpr bool hostTimeCompiled = HOS_PROF_LEVEL >= 2;

/** "off", "sim", or "host". */
const char *levelName();

/**
 * The span taxonomy: one kind per mechanism of the paper's Fig. 8 /
 * Table 6 overhead decomposition (see DESIGN.md §8 for the mapping).
 */
enum class SpanKind : std::uint8_t {
    MigrationEpoch = 0, ///< one promote/evict round (engine or guest)
    CandidateSelect,    ///< choosing what to move (sampling, sorting)
    BatchCopy,          ///< modelled page-copy cost of a batch
    Remap,              ///< P2M / page-table remap walk
    TlbShootdown,       ///< invalidation cost after remaps or scans
    ScanPass,           ///< one hotness-tracker scan invocation
    ChunkWalk,          ///< one contiguous range/chunk inside a scan
    ReclaimPass,        ///< HeteroOS-LRU demotion / direct reclaim
    WritebackPass,      ///< dirty-page flusher batch
    DrfRound,           ///< one DRF approve() arbitration
    Reallocation,       ///< DRF reclaim loop redistributing frames
    BalloonOp,          ///< one balloon inflate/deflate/reclaim op
    SwapOp,             ///< swap-out fallback inside a balloon op
    RegionSample,       ///< region-backend probe sampling inside a scan
    RegionAdjust,       ///< region split/merge bookkeeping inside a scan
    IoFill,             ///< file-backed page fill from modelled storage
};

constexpr std::size_t numSpanKinds = 16;

/** Stable lower-case name ("migration_epoch"), used in span paths. */
const char *spanKindName(SpanKind k);

/** Tier index values mirror mem::MemType; noTier = not tier-specific. */
constexpr std::uint8_t noTier = 0xff;
/** Cost-kind sentinel marking a span-occurrence ledger row. */
constexpr std::uint8_t noCostKind = 0xff;
/** Upper bound on registered cost kinds (guest OverheadKinds). */
constexpr std::size_t maxCostKinds = 16;

/**
 * Register the cost-kind label table (the guest's overheadKindName
 * strings). First registration wins; later calls are no-ops. The
 * pointers must stay valid for the process lifetime (string
 * literals). Thread-safe: sweep workers may construct kernels
 * concurrently.
 */
void registerCostKindNames(const char *const *names, std::size_t count);

/** Label for a cost kind, or nullptr when none was registered. */
const char *costKindName(std::uint8_t kind);

/** Short tier label ("fast"/"slow"/"medium"; "-" for noTier). */
const char *tierLabel(std::uint8_t tier);

/**
 * One aggregated ledger row. Rows with kind "-" count span
 * occurrences (and carry host time at level 2); all other rows hold
 * the simulated time charged to (path, vm, tier) under that overhead
 * kind. Paths are ';'-joined span names, innermost last;
 * "(unattributed)" collects charges made outside any span.
 */
struct ProfileEntry
{
    std::string path;
    std::uint16_t vm = 0;
    std::string tier;          ///< "fast"/"slow"/"medium"/"-"
    std::string kind;          ///< overhead kind label; "-" = span row
    std::uint64_t count = 0;   ///< charges, or span occurrences
    std::uint64_t sim_ns = 0;  ///< simulated time charged
    std::uint64_t host_ns = 0; ///< host time (level 2 only; never
                               ///< in deterministic output)
};

/** The attribution ledger, flattened for export (sorted rows). */
struct ProfileReport
{
    std::vector<ProfileEntry> entries;

    bool empty() const { return entries.empty(); }

    /** Sum of sim_ns over charge rows of one kind label. */
    std::uint64_t simTotalForKind(const std::string &kind) const;
    /** Per-kind sim_ns totals over all charge rows, by label. */
    std::map<std::string, std::uint64_t> kindTotals() const;
    /** Sum of sim_ns over every charge row. */
    std::uint64_t simGrandTotal() const;
};

/**
 * The span stack plus attribution ledger for one run (or one
 * HeteroSystem). All bookkeeping is per-instance and single-threaded;
 * cross-thread isolation comes from the per-thread obs::Session.
 */
class Profiler
{
  public:
    Profiler();

    /** Drop the ledger, the path tree, and the span counters. */
    void clear();

    /**
     * Open a span (the RAII Span calls this). Returns the interned
     * path-tree node id. Emits trace::EventType::SpanBegin.
     */
    std::uint32_t beginSpan(SpanKind kind, sim::Tick now,
                            std::uint16_t vm, std::uint8_t tier);

    /** Close the innermost span; host_ns is 0 below level 2. */
    void endSpan(sim::Tick now, std::uint64_t host_ns = 0);

    /** Attribute one kernel charge to the innermost open span. */
    void recordCharge(std::uint8_t cost_kind, sim::Duration d);

    /** Currently open spans (0 between events; audited at run end). */
    std::size_t depth() const { return stack_.size(); }
    std::uint64_t spansOpened() const { return spans_opened_; }
    std::uint64_t spansClosed() const { return spans_closed_; }

    /** The "prof" stat group (span_depth/live_spans gauges). */
    sim::StatGroup &stats() { return stats_; }
    /** Refresh the gauges from live state (registry refresh hook). */
    void syncStats();

    /** Flatten the ledger into sorted, labelled rows. */
    ProfileReport report() const;

  private:
    struct Node
    {
        std::uint32_t parent; ///< noNode for roots
        SpanKind kind;
    };
    struct Frame
    {
        std::uint32_t node;
        std::uint16_t vm;
        std::uint8_t tier;
    };
    struct CellKey
    {
        std::uint32_t node; ///< noNode = charged outside any span
        std::uint16_t vm;
        std::uint8_t tier;
        std::uint8_t cost_kind; ///< noCostKind = span-occurrence row

        bool operator<(const CellKey &o) const
        {
            if (node != o.node)
                return node < o.node;
            if (vm != o.vm)
                return vm < o.vm;
            if (tier != o.tier)
                return tier < o.tier;
            return cost_kind < o.cost_kind;
        }
    };
    struct Cell
    {
        std::uint64_t count = 0;
        std::uint64_t sim_ns = 0;
        std::uint64_t host_ns = 0;
    };

    static constexpr std::uint32_t noNode = 0xffffffffu;

    std::string pathOf(std::uint32_t node) const;

    std::vector<Node> nodes_;
    /** (parent, kind) -> interned node id. */
    std::map<std::pair<std::uint32_t, std::uint8_t>, std::uint32_t>
        children_;
    std::vector<Frame> stack_;
    std::map<CellKey, Cell> cells_;
    std::uint64_t spans_opened_ = 0;
    std::uint64_t spans_closed_ = 0;
    sim::StatGroup stats_{"prof"};
};

namespace detail {
/** The profiler of this thread's session, or nullptr. */
inline Profiler *
activeProfiler()
{
    const obs::Session *s = obs::current();
    return s ? s->profiler : nullptr;
}

/** Host steady_clock in ns (defined in prof.cc — the one sanctioned
 * wall-clock site in the tree; see tools/lint.sh). */
std::uint64_t hostNow();
} // namespace detail

/**
 * Forward one kernel charge to the active profiler, if any. The
 * disabled fast path is one thread-local load and a branch; at
 * HOS_PROF_LEVEL=0 it compiles away entirely.
 */
inline void
onCharge(std::uint8_t cost_kind, sim::Duration d)
{
#if HOS_PROF_LEVEL >= 1
    if (Profiler *p = detail::activeProfiler())
        p->recordCharge(cost_kind, d);
#else
    (void)cost_kind;
    (void)d;
#endif
}

#if HOS_PROF_LEVEL >= 1

/**
 * One profiled span. Opens against the active profiler (no-op when
 * none); reads sim time from the event queue at both ends, and host
 * time only at HOS_PROF_LEVEL=2. Use via HOS_PROF_SPAN.
 */
class Span
{
  public:
    Span(SpanKind kind, sim::EventQueue &q, std::uint16_t vm = 0,
         std::uint8_t tier = noTier)
    {
        prof_ = detail::activeProfiler();
        if (prof_ == nullptr)
            return;
        queue_ = &q;
        prof_->beginSpan(kind, q.now(), vm, tier);
#if HOS_PROF_LEVEL >= 2
        host_start_ = detail::hostNow();
#endif
    }

    ~Span()
    {
        if (prof_ == nullptr)
            return;
        std::uint64_t host_ns = 0;
#if HOS_PROF_LEVEL >= 2
        host_ns = detail::hostNow() - host_start_;
#endif
        prof_->endSpan(queue_->now(), host_ns);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Profiler *prof_ = nullptr;
    sim::EventQueue *queue_ = nullptr;
#if HOS_PROF_LEVEL >= 2
    std::uint64_t host_start_ = 0;
#endif
};

#define HOS_PROF_SPAN(var, ...) ::hos::prof::Span var(__VA_ARGS__)

#else // HOS_PROF_LEVEL == 0

/** Level-0 stand-in: construction compiles to nothing; the macro
 * never evaluates its arguments. */
class Span
{
  public:
    Span() = default;
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

#define HOS_PROF_SPAN(var, ...) \
    [[maybe_unused]] ::hos::prof::Span var

#endif // HOS_PROF_LEVEL

} // namespace hos::prof

#endif // HOS_PROF_PROF_HH
