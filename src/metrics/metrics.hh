/**
 * @file
 * hos::metrics — windowed time-series telemetry with deterministic
 * HDR-style percentiles and per-VM slowdown SLO reporting.
 *
 * trace says *what happened*, prof *what it cost*, xray *how good
 * placement is*; metrics says *how the run is going over time* — the
 * continuous signals a fleet operator would watch: tier occupancy,
 * migration and balloon flow, scan cost, and above all each VM's
 * slowdown relative to an ideal all-fast-tier execution (the paper's
 * headline metric, HeteroOS vs everything-in-DRAM, computed every
 * sampling window instead of once at the end).
 *
 * Three pieces:
 *
 *  1. WindowedSeries (sim/series.hh): registered signals sampled
 *     every sample_interval of simulated time into fixed-capacity
 *     rings with deterministic stride-decimation.
 *  2. HdrHistogram: a log-bucketed integer histogram (power-of-2
 *     octaves, 2^subBucketBits sub-buckets each, HdrHistogram-style)
 *     with exact integer P50/P90/P99/P99.9 queries and a mergeable
 *     layout so sweep/fleet runs aggregate percentiles across rows.
 *  3. A per-VM slowdown estimator: each workload phase reports its
 *     actual duration (cpu + placement-aware memory service + exposed
 *     I/O + drained kernel overhead) alongside the ideal duration the
 *     same phase would have cost with every access serviced by the
 *     fastest tier and zero management overhead. Every sampling
 *     window the ratio (ppm) feeds the VM's slowdown histogram.
 *
 * Design constraints mirror hos::xray:
 *  1. Zero cost compiled out: HOS_METRICS_LEVEL=0 makes active()
 *     constant-null so hook sites fold away, and enableMetrics is a
 *     no-op flag.
 *  2. Integer-only and deterministic: ticks, counts and ppm ratios;
 *     reports serialize bit-identically across runs. The hos-analyze
 *     `metrics-purity` rule bans float/double in this directory.
 *  3. Bit-identical simulation: metrics observes, it never steers.
 *     Sampling events ride the guest event queues but their actions
 *     are read-only, so metrics-on runs produce byte-identical
 *     simulation results.
 *  4. Isolation: hooks feed the collector of the calling thread's
 *     obs::Session (trace/session.hh), which keeps parallel sweep
 *     points apart.
 *
 * Layering: metrics sits between trace and guestos (like prof/xray),
 * so it cannot name guestos or core types. VM ids and signal values
 * cross the boundary as integers; signal callbacks are opaque
 * std::functions registered by core.
 */

#ifndef HOS_METRICS_METRICS_HH
#define HOS_METRICS_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/series.hh"
#include "sim/stats.hh"
#include "sim/time.hh"
#include "trace/session.hh"

#ifndef HOS_METRICS_LEVEL
#define HOS_METRICS_LEVEL 1
#endif

namespace hos::metrics {

/** Compile-time metrics level (CMake HOS_METRICS=off/on). */
constexpr int compiledLevel = HOS_METRICS_LEVEL;
/** Hooks and the collector compiled in (level >= 1). */
constexpr bool metricsCompiled = HOS_METRICS_LEVEL >= 1;

/** "off" or "on". */
const char *levelName();

/** Slowdown ratios are recorded in parts-per-million (1.0x = 1e6). */
constexpr std::uint64_t ppmScale = 1000000;

/**
 * Log-bucketed integer histogram in the HdrHistogram mold: values
 * below 2^subBucketBits index exactly; above, each power-of-2 octave
 * splits into 2^subBucketBits sub-buckets, so relative error is
 * bounded by 2^-subBucketBits everywhere. All state is integer
 * counts; merge() is element-wise addition, which makes percentiles
 * aggregatable across sweep rows and fleet members.
 */
class HdrHistogram
{
  public:
    static constexpr unsigned subBucketBits = 5;
    static constexpr std::uint64_t subBucketCount = 1ull << subBucketBits;
    static constexpr std::uint64_t subBucketMask = subBucketCount - 1;
    /** Octaves 5..63 each contribute subBucketCount buckets. */
    static constexpr std::size_t numBuckets =
        (64 - subBucketBits) * subBucketCount + subBucketCount;

    /** Bucket index of a value (deterministic, branch-light). */
    static std::size_t bucketIndex(std::uint64_t v);
    /** Largest value mapping to bucket `i` (percentile upper bound). */
    static std::uint64_t bucketHigh(std::size_t i);
    /** Smallest value mapping to bucket `i`. */
    static std::uint64_t bucketLow(std::size_t i);

    void record(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t totalCount() const { return total_; }
    /** Exact sum of every recorded value (sum-preserving: recording
     *  is lossy per-value but the aggregate sum is kept exactly). */
    std::uint64_t valueSum() const { return sum_; }
    std::uint64_t minValue() const { return total_ ? min_ : 0; }
    std::uint64_t maxValue() const { return total_ ? max_ : 0; }
    std::uint64_t countAt(std::size_t i) const { return counts_[i]; }

    /**
     * Value at the q/10000 quantile (P50 = 5000, P99.9 = 9990):
     * the upper bound of the bucket holding the ceil-rank sample,
     * clamped to the exact recorded maximum. 0 when empty.
     */
    std::uint64_t valueAtPermyriad(std::uint64_t q) const;

    /** Element-wise accumulate `other` into this histogram. */
    void merge(const HdrHistogram &other);

    /**
     * Rebuild from serialized state: sparse buckets plus the exact
     * sum/min/max (which per-bucket counts alone cannot recover).
     * Replaces the current contents.
     */
    void restore(
        const std::vector<std::pair<std::size_t, std::uint64_t>> &buckets,
        std::uint64_t sum, std::uint64_t min, std::uint64_t max);

    /** Nonzero (index, count) pairs, index ascending. */
    std::vector<std::pair<std::size_t, std::uint64_t>> nonzero() const;

    void clear();

    bool operator==(const HdrHistogram &other) const;

  private:
    std::vector<std::uint64_t> counts_ =
        std::vector<std::uint64_t>(numBuckets, 0);
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/** How a registered signal's samples enter its series. */
enum class SignalKind : std::uint8_t {
    Gauge = 0, ///< record the callback value as-is
    Rate,      ///< record the delta since the previous sample
};

const char *signalKindName(SignalKind k);

/** Integer-valued signal callback (registered by core). */
using SignalFn = std::function<std::int64_t()>;

/** Runtime knobs; every field is integer state. */
struct MetricsConfig
{
    /** Simulated time between samples (per VM). */
    sim::Duration sample_interval = sim::milliseconds(10);
    /** Ring capacity per series before stride-decimation kicks in. */
    std::uint32_t series_capacity = 512;
};

struct MetricsReport;

/**
 * The per-run collector: signal registry, sampling, and the slowdown
 * estimator. Single-threaded per instance; cross-thread isolation
 * comes from the per-thread obs::Session.
 */
class Collector
{
  public:
    Collector();

    void enable(MetricsConfig cfg = {});
    bool enabled() const { return enabled_; }

    /** Drop all per-VM state, series and histograms. */
    void clear();

    const MetricsConfig &config() const { return cfg_; }

    // --- Registration (core wires the lambdas) --------------------

    /**
     * Register one named signal for `vm`. Signals are sampled in
     * registration order; names must be unique per VM. The callback
     * must be read-only with respect to simulation state — sampling
     * must never perturb the run.
     */
    void registerSignal(std::uint16_t vm, std::string name,
                        SignalKind kind, SignalFn fn);

    // --- Hooks -----------------------------------------------------

    /**
     * One workload phase completed on `vm` at sim-time `now`:
     * `actual` is the full phase duration (including `overhead`, the
     * management overhead drained from the kernel this phase);
     * `ideal` is the counterfactual duration with every memory batch
     * serviced by the fastest tier and zero management overhead.
     */
    void onPhase(std::uint16_t vm, sim::Tick now, sim::Duration actual,
                 sim::Duration ideal, sim::Duration overhead);

    /**
     * Periodic sample for `vm` (core schedules this on the VM's event
     * queue every config().sample_interval): polls every registered
     * signal into its series and closes the current slowdown window.
     * Read-only with respect to simulation state.
     */
    void sampleVm(std::uint16_t vm, sim::Tick now);

    // --- Queries (audit and tests) --------------------------------

    std::size_t numVms() const { return vms_.size(); }
    /** VM tag of the i-th tracked VM (registration order). */
    std::uint16_t vmAt(std::size_t i) const { return vms_[i].vm; }
    bool tracks(std::uint16_t vm) const;

    std::uint64_t samples(std::uint16_t vm) const;
    std::uint64_t phases(std::uint16_t vm) const;
    /** Closed slowdown windows == slowdown histogram total count. */
    std::uint64_t windowsClosed(std::uint16_t vm) const;
    std::uint64_t totalActualNs(std::uint16_t vm) const;
    std::uint64_t totalIdealNs(std::uint16_t vm) const;
    /** Management overhead folded into phases so far (drained). */
    std::uint64_t totalOverheadNs(std::uint16_t vm) const;
    /** Sum of every recorded per-window slowdown sample (ppm). */
    std::uint64_t slowdownPpmSum(std::uint16_t vm) const;
    const HdrHistogram *slowdownHistogram(std::uint16_t vm) const;

    /** The "metrics" stat group (registered with the StatRegistry). */
    sim::StatGroup &stats() { return stats_; }
    /** Refresh the gauges from live state (registry refresh hook). */
    void syncStats();

    /** Flatten everything into the deterministic report form. */
    MetricsReport report() const;

  private:
    struct Signal
    {
        std::string name;
        SignalKind kind = SignalKind::Gauge;
        SignalFn fn;
        std::int64_t last = 0;        ///< value at the previous sample
        std::int64_t rate_total = 0;  ///< sum of all recorded deltas
        sim::WindowedSeries<std::int64_t> series;

        Signal(std::string n, SignalKind k, SignalFn f,
               std::size_t capacity)
            : name(std::move(n)), kind(k), fn(std::move(f)),
              series(capacity)
        {
        }
    };

    struct VmMetrics
    {
        std::uint16_t vm = 0;
        std::vector<Signal> signals;

        // Slowdown-window accumulators (cleared at each sample) and
        // monotonic run totals.
        std::uint64_t win_actual = 0;
        std::uint64_t win_ideal = 0;
        std::uint64_t total_actual = 0;
        std::uint64_t total_ideal = 0;
        std::uint64_t total_overhead = 0;
        std::uint64_t phase_count = 0;
        std::uint64_t sample_count = 0;
        std::uint64_t window_count = 0;
        std::uint64_t slowdown_ppm_sum = 0;
        HdrHistogram slowdown;
        sim::WindowedSeries<std::int64_t> slowdown_series;

        VmMetrics(std::uint16_t tag, std::size_t capacity)
            : vm(tag), slowdown_series(capacity)
        {
        }
    };

    VmMetrics &vmState(std::uint16_t vm);
    const VmMetrics *findVm(std::uint16_t vm) const;

    bool enabled_ = false;
    MetricsConfig cfg_;
    std::vector<VmMetrics> vms_;
    sim::StatGroup stats_{"metrics"};
};

/**
 * The collector hooks should feed, or nullptr when metrics is off.
 * At HOS_METRICS_LEVEL=0 this is constant-null and every
 * `if (auto *mx = metrics::active())` hook site folds away.
 */
inline Collector *
active()
{
#if HOS_METRICS_LEVEL >= 1
    const obs::Session *s = obs::current();
    return s ? s->collector : nullptr;
#else
    return nullptr;
#endif
}

} // namespace hos::metrics

#endif // HOS_METRICS_METRICS_HH
