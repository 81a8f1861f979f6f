#include "metrics/metrics.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace hos::metrics {

const char *
levelName()
{
    return metricsCompiled ? "on" : "off";
}

const char *
signalKindName(SignalKind k)
{
    switch (k) {
      case SignalKind::Gauge:
        return "gauge";
      case SignalKind::Rate:
        return "rate";
    }
    return "?";
}

// --- HdrHistogram ----------------------------------------------------

std::size_t
HdrHistogram::bucketIndex(std::uint64_t v)
{
    if (v < subBucketCount)
        return static_cast<std::size_t>(v);
    const unsigned m = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (m - subBucketBits)) & subBucketMask;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(m - subBucketBits + 1)
         << subBucketBits) +
        sub);
}

std::uint64_t
HdrHistogram::bucketLow(std::size_t i)
{
    if (i < subBucketCount)
        return i;
    const unsigned shift =
        static_cast<unsigned>(i >> subBucketBits) - 1;
    const std::uint64_t sub = i & subBucketMask;
    return (subBucketCount + sub) << shift;
}

std::uint64_t
HdrHistogram::bucketHigh(std::size_t i)
{
    if (i < subBucketCount)
        return i;
    const unsigned shift =
        static_cast<unsigned>(i >> subBucketBits) - 1;
    return bucketLow(i) + ((1ull << shift) - 1);
}

void
HdrHistogram::record(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    counts_[bucketIndex(v)] += count;
    total_ += count;
    sum_ += v * count;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

std::uint64_t
HdrHistogram::valueAtPermyriad(std::uint64_t q) const
{
    if (total_ == 0)
        return 0;
    // Ceil rank: the q/10000 quantile is the smallest value with at
    // least that fraction of samples at or below it.
    std::uint64_t rank = (total_ * q + 9999) / 10000;
    rank = std::max<std::uint64_t>(1, std::min(rank, total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            // The bucket's upper bound, but never past the exact
            // recorded maximum (keeps P100 == maxValue()).
            return std::min(bucketHigh(i), max_);
        }
    }
    return max_;
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    for (std::size_t i = 0; i < numBuckets; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    if (other.total_ > 0) {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
}

void
HdrHistogram::restore(
    const std::vector<std::pair<std::size_t, std::uint64_t>> &buckets,
    std::uint64_t sum, std::uint64_t min, std::uint64_t max)
{
    clear();
    for (const auto &[idx, count] : buckets) {
        hos_assert(idx < numBuckets, "histogram bucket out of range");
        counts_[idx] = count;
        total_ += count;
    }
    sum_ = sum;
    if (total_ > 0) {
        min_ = min;
        max_ = max;
    }
}

std::vector<std::pair<std::size_t, std::uint64_t>>
HdrHistogram::nonzero() const
{
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        if (counts_[i] != 0)
            out.emplace_back(i, counts_[i]);
    }
    return out;
}

void
HdrHistogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

bool
HdrHistogram::operator==(const HdrHistogram &other) const
{
    return counts_ == other.counts_ && total_ == other.total_ &&
           sum_ == other.sum_ &&
           (total_ == 0 || (min_ == other.min_ && max_ == other.max_));
}

// --- Collector -------------------------------------------------------

Collector::Collector() = default;

void
Collector::enable(MetricsConfig cfg)
{
    hos_assert(cfg.sample_interval > 0,
               "metrics sample interval must be nonzero");
    hos_assert(cfg.series_capacity >= 2,
               "metrics series capacity too small");
    enabled_ = true;
    cfg_ = cfg;
}

void
Collector::clear()
{
    vms_.clear();
}

Collector::VmMetrics &
Collector::vmState(std::uint16_t vm)
{
    for (auto &s : vms_) {
        if (s.vm == vm)
            return s;
    }
    vms_.emplace_back(vm, cfg_.series_capacity);
    return vms_.back();
}

const Collector::VmMetrics *
Collector::findVm(std::uint16_t vm) const
{
    for (const auto &s : vms_) {
        if (s.vm == vm)
            return &s;
    }
    return nullptr;
}

bool
Collector::tracks(std::uint16_t vm) const
{
    return findVm(vm) != nullptr;
}

void
Collector::registerSignal(std::uint16_t vm, std::string name,
                          SignalKind kind, SignalFn fn)
{
    hos_assert(fn != nullptr, "metrics signal needs a callback");
    VmMetrics &s = vmState(vm);
    for (const auto &sig : s.signals) {
        hos_assert(sig.name != name, "duplicate metrics signal '%s'",
                   name.c_str());
    }
    s.signals.emplace_back(std::move(name), kind, std::move(fn),
                           cfg_.series_capacity);
    // Rate signals measure flow from registration time: prime the
    // baseline so the first sample reports a delta, not a lifetime
    // total.
    Signal &sig = s.signals.back();
    if (sig.kind == SignalKind::Rate)
        sig.last = sig.fn();
}

void
Collector::onPhase(std::uint16_t vm, sim::Tick now, sim::Duration actual,
                   sim::Duration ideal, sim::Duration overhead)
{
    (void)now;
    VmMetrics &s = vmState(vm);
    s.phase_count += 1;
    s.win_actual += actual;
    s.win_ideal += ideal;
    s.total_actual += actual;
    s.total_ideal += ideal;
    s.total_overhead += overhead;
}

void
Collector::sampleVm(std::uint16_t vm, sim::Tick now)
{
    VmMetrics &s = vmState(vm);
    s.sample_count += 1;

    for (auto &sig : s.signals) {
        const std::int64_t v = sig.fn();
        if (sig.kind == SignalKind::Gauge) {
            sig.series.push(now, v);
        } else {
            const std::int64_t delta = v - sig.last;
            sig.last = v;
            sig.rate_total += delta;
            sig.series.push(now, delta);
        }
    }

    // Close the slowdown window. Windows with no guest progress
    // (ideal == 0) produce no sample: a VM that did nothing was not
    // slowed down, and 0/0 has no defensible value.
    if (s.win_ideal > 0) {
        const std::uint64_t ppm =
            (s.win_actual * ppmScale) / s.win_ideal;
        s.slowdown.record(ppm);
        s.slowdown_ppm_sum += ppm;
        s.window_count += 1;
        s.slowdown_series.push(now, static_cast<std::int64_t>(ppm));
    }
    s.win_actual = 0;
    s.win_ideal = 0;
}

std::uint64_t
Collector::samples(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->sample_count : 0;
}

std::uint64_t
Collector::phases(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->phase_count : 0;
}

std::uint64_t
Collector::windowsClosed(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->window_count : 0;
}

std::uint64_t
Collector::totalActualNs(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->total_actual : 0;
}

std::uint64_t
Collector::totalIdealNs(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->total_ideal : 0;
}

std::uint64_t
Collector::totalOverheadNs(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->total_overhead : 0;
}

std::uint64_t
Collector::slowdownPpmSum(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? s->slowdown_ppm_sum : 0;
}

const HdrHistogram *
Collector::slowdownHistogram(std::uint16_t vm) const
{
    const VmMetrics *s = findVm(vm);
    return s ? &s->slowdown : nullptr;
}

void
Collector::syncStats()
{
    for (const auto &s : vms_) {
        const std::string prefix = "vm" + std::to_string(s.vm);
        stats_.gauge(prefix + ".samples")
            .set(static_cast<std::int64_t>(s.sample_count));
        stats_.gauge(prefix + ".windows")
            .set(static_cast<std::int64_t>(s.window_count));
        stats_.gauge(prefix + ".slowdown_p50_ppm")
            .set(static_cast<std::int64_t>(
                s.slowdown.valueAtPermyriad(5000)));
        stats_.gauge(prefix + ".slowdown_p99_ppm")
            .set(static_cast<std::int64_t>(
                s.slowdown.valueAtPermyriad(9900)));
        stats_.gauge(prefix + ".overhead_ns")
            .set(static_cast<std::int64_t>(s.total_overhead));
    }
}

} // namespace hos::metrics
