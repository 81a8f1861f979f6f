/**
 * @file
 * WindowedSeries: a fixed-capacity time-series ring with deterministic
 * stride-decimation.
 *
 * A series accepts (tick, value) samples on some cadence and never
 * grows past its capacity: when full it compacts by keeping every
 * other retained sample (even offsets) and doubling its stride, so
 * from then on only every stride-th *offered* sample is recorded.
 * The retained set is therefore a pure function of (capacity, number
 * of samples offered) — two runs offering the same samples keep the
 * same subset, which is what lets exported time-series stay
 * byte-identical across runs and machines.
 *
 * The long-run shape is a uniform thinning of the whole run rather
 * than a sliding window: convergence plots want the early transient
 * as much as the steady state. Memory is O(capacity) regardless of
 * run length.
 *
 * The value type is a template parameter; hos::metrics instantiates
 * std::int64_t (its integer-only rule).
 */

#ifndef HOS_SIM_SERIES_HH
#define HOS_SIM_SERIES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace hos::sim {

template <typename V>
class WindowedSeries
{
  public:
    explicit WindowedSeries(std::size_t capacity = 512)
        : capacity_(capacity < 2 ? 2 : capacity)
    {
    }

    /**
     * Offer one sample. Records it only when the offer index lands on
     * the current stride; compacts (and doubles the stride) when the
     * buffer is full.
     */
    void
    push(Tick t, V v)
    {
        const std::uint64_t idx = offered_++;
        if (idx % stride_ != 0)
            return;
        if (times_.size() == capacity_)
            compact();
        // Compaction doubled the stride; this sample may no longer
        // be on it.
        if (idx % stride_ != 0)
            return;
        times_.push_back(t);
        values_.push_back(std::move(v));
    }

    std::size_t size() const { return times_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Offered samples between retained ones (power of two). */
    std::uint64_t stride() const { return stride_; }
    /** Total samples offered, retained or not. */
    std::uint64_t offered() const { return offered_; }

    Tick timeAt(std::size_t i) const { return times_[i]; }
    const V &valueAt(std::size_t i) const { return values_[i]; }

    const std::vector<Tick> &times() const { return times_; }
    const std::vector<V> &values() const { return values_; }

    void
    clear()
    {
        times_.clear();
        values_.clear();
        stride_ = 1;
        offered_ = 0;
    }

  private:
    void
    compact()
    {
        // Keep even offsets: retained sample k was offered at index
        // k * stride, so the survivors sit exactly on the doubled
        // stride.
        std::size_t out = 0;
        for (std::size_t i = 0; i < times_.size(); i += 2, ++out) {
            times_[out] = times_[i];
            values_[out] = std::move(values_[i]);
        }
        times_.resize(out);
        values_.resize(out);
        stride_ *= 2;
    }

    std::size_t capacity_;
    std::uint64_t stride_ = 1;
    std::uint64_t offered_ = 0;
    std::vector<Tick> times_;
    std::vector<V> values_;
};

} // namespace hos::sim

#endif // HOS_SIM_SERIES_HH
