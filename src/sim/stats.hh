/**
 * @file
 * Lightweight statistics framework.
 *
 * Modules register named statistics into a StatGroup; experiments and
 * benches read them back by name or dump them wholesale. The design is
 * a small, allocation-light take on gem5's stats package: scalar
 * counters, formulas evaluated at read time, and fixed-bucket
 * histograms.
 */

#ifndef HOS_SIM_STATS_HH
#define HOS_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hos::sim {

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A scalar that can move both ways (e.g., bytes currently resident). */
class Gauge
{
  public:
    Gauge() = default;

    void add(std::int64_t by) { value_ += by; }
    void sub(std::int64_t by) { value_ -= by; }
    void set(std::int64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

/** Running mean/min/max/total over a stream of samples. */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double total() const { return total_; }
    double mean() const { return count_ ? total_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double total_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width-bucket histogram. */
class Histogram
{
  public:
    /** Buckets cover [lo, hi) split into nbuckets; outliers clamp. */
    Histogram(double lo, double hi, std::size_t nbuckets);

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_.at(i); }
    double bucketLo(std::size_t i) const;
    std::uint64_t samples() const { return samples_; }

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t samples_ = 0;
};

/**
 * A named collection of statistics. Groups nest by name with '.'
 * separators purely by convention ("guest0.alloc.fastmem_miss").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register (or fetch) a counter under this group. */
    Counter &counter(const std::string &stat);
    /** Register (or fetch) a gauge under this group. */
    Gauge &gauge(const std::string &stat);
    /** Register (or fetch) a distribution under this group. */
    Distribution &distribution(const std::string &stat);
    /**
     * Register (or fetch) a histogram under this group. The shape
     * parameters apply only on first registration; later fetches
     * return the existing histogram unchanged.
     */
    Histogram &histogram(const std::string &stat, double lo, double hi,
                         std::size_t nbuckets);

    /** Look up a counter; panics if absent (catches stat-name typos). */
    const Counter &findCounter(const std::string &stat) const;
    /** Look up a gauge; panics if absent. */
    const Gauge &findGauge(const std::string &stat) const;
    /** Look up a distribution; panics if absent. */
    const Distribution &findDistribution(const std::string &stat) const;
    /** Look up a histogram; panics if absent. */
    const Histogram &findHistogram(const std::string &stat) const;

    bool hasCounter(const std::string &stat) const;
    bool hasGauge(const std::string &stat) const;
    bool hasDistribution(const std::string &stat) const;
    bool hasHistogram(const std::string &stat) const;

    const std::string &name() const { return name_; }

    /** Reset every statistic in the group. */
    void resetAll();

    /** Render "name.stat value" lines, sorted, for dumps. */
    std::string dump() const;

    /**
     * Visit every statistic as a named scalar sample — counters and
     * gauges by value, distributions as .count/.mean/.min/.max,
     * histograms as .samples plus per-bucket counts. This is the
     * one flattening the export machinery relies on.
     */
    void
    forEachScalar(const std::function<void(const std::string &, double)>
                      &fn) const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Distribution> dists_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * A central directory of StatGroups, discoverable by name. Components
 * register their group (optionally with a refresh hook that syncs the
 * group from live subsystem state); the audit and dump paths walk
 * the registry instead of knowing each component.
 */
class StatRegistry
{
  public:
    using Refresh = std::function<void()>;

    /**
     * Register a group under its own name. The registry does not own
     * the group; callers must remove() it before the group dies.
     * Re-registering a name replaces the entry (VM slots rebuild).
     */
    void add(StatGroup *group, Refresh refresh = nullptr);
    void remove(const std::string &name);

    /** Look up a group by name; nullptr when absent. */
    StatGroup *find(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }

    /** Run every registered refresh hook (before sampling/dumping). */
    void refreshAll() const;

    /** Visit groups in name order (deterministic exports). */
    void forEach(const std::function<void(StatGroup &)> &fn) const;

    /** refreshAll + concatenated dump() of every group. */
    std::string dumpAll() const;

  private:
    struct Entry
    {
        StatGroup *group = nullptr;
        Refresh refresh;
    };
    std::map<std::string, Entry> entries_;
};

} // namespace hos::sim

#endif // HOS_SIM_STATS_HH
