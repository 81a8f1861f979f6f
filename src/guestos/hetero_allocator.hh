/**
 * @file
 * The HeteroOS page allocator: demand-based FastMem prioritization.
 *
 * This is the paper's central guest-OS mechanism (Section 3.2).
 * Instead of Linux's static heap-first priority, the allocator tracks
 * per-page-type allocation demand in short epochs (100 ms by default):
 * total requests, FastMem hits, FastMem misses. When FastMem is
 * plentiful, any eligible page type allocates from it on demand
 * (avoiding migrations entirely); under contention, the type with the
 * highest recent miss ratio wins, and HeteroOS-LRU is invoked to evict
 * inactive FastMem pages of any other subsystem.
 *
 * The same class implements the evaluation baselines through
 * AllocMode: SlowOnly/FastOnly (the paper's floors/ceilings), Random,
 * and FastPreferred (the existing Linux NUMA-preferred policy).
 */

#ifndef HOS_GUESTOS_HETERO_ALLOCATOR_HH
#define HOS_GUESTOS_HETERO_ALLOCATOR_HH

#include <array>
#include <cstdint>

#include "guestos/page.hh"
#include "guestos/vma.hh"
#include "mem/mem_spec.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace hos::xray {
class Recorder;
}

namespace hos::guestos {

class GuestKernel;
class NumaNode;

/** Placement strategy the allocator runs. */
enum class AllocMode : std::uint8_t {
    SlowOnly,      ///< baseline: everything in SlowMem
    FastOnly,      ///< baseline: everything in FastMem (unlimited)
    Random,        ///< heterogeneity-oblivious random placement
    FastPreferred, ///< Linux NUMA-preferred: FastMem until exhausted
    OnDemand,      ///< HeteroOS demand-based prioritization
};

const char *allocModeName(AllocMode m);

/** Allocator policy knobs (set by the policy layer). */
struct AllocConfig
{
    AllocMode mode = AllocMode::OnDemand;
    /** Page types allowed to claim FastMem on demand (OD modes). */
    std::array<bool, numPageTypes> od_eligible{};
    /** Invoke HeteroOS-LRU reclaim when FastMem runs dry. */
    bool active_reclaim = false;
    /** Ask the balloon for more FastMem before falling back. */
    bool balloon_on_pressure = true;
    /** Honor application mmap hints. */
    bool honor_hints = true;
    /** Demand-statistics window (paper: 100 ms, configurable). */
    sim::Duration epoch = sim::milliseconds(100);

    /** Convenience: mark types FastMem-eligible. */
    void makeEligible(std::initializer_list<PageType> types)
    {
        for (PageType t : types)
            od_eligible[pageTypeIndex(t)] = true;
    }
};

/** Heap-OD eligibility (on-demand heap only). */
AllocConfig heapOdConfig();
/** Heap-IO-Slab-OD eligibility (heap + IO caches + slab + netbuf). */
AllocConfig heapIoSlabOdConfig();

/** One page-allocation request. */
struct AllocRequest
{
    PageType type = PageType::Anon;
    MemHint hint = MemHint::None;
    unsigned cpu = 0;
    ProcessId process = noProcess;
    std::uint64_t vaddr = 0;
};

/**
 * The telemetry an allocation or free reports to. Nothing the
 * allocator does installs or removes a sink, so a batch resolves this
 * once instead of once per page.
 */
struct AllocTelemetry
{
    xray::Recorder *xray = nullptr;
    bool trace_alloc = false; ///< PageAlloc events are recorded
    bool trace_free = false;  ///< PageFree events are recorded

    /** The sinks active on this thread now. */
    static AllocTelemetry current();
};

/** Per-page-type demand statistics for one epoch window. */
struct DemandWindow
{
    std::uint64_t requests = 0;
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_misses = 0;

    double missRatio() const
    {
        return requests ? static_cast<double>(fast_misses) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** The HeteroOS page allocator. */
class HeteroAllocator
{
  public:
    HeteroAllocator(GuestKernel &kernel, AllocConfig cfg,
                    std::uint64_t seed);

    const AllocConfig &config() const { return cfg_; }
    void setConfig(const AllocConfig &cfg) { cfg_ = cfg; }

    /** Allocate one page; invalidGpfn when the guest is truly full. */
    Gpfn allocPage(const AllocRequest &req)
    {
        return allocPage(req, AllocTelemetry::current());
    }

    /** allocPage() reporting to telemetry resolved by the caller. */
    Gpfn allocPage(const AllocRequest &req, const AllocTelemetry &tel);

    /** Free pages, in order, back to their nodes via the per-CPU cache. */
    void freePages(const Gpfn *pfns, std::uint64_t n, unsigned cpu,
                   const AllocTelemetry &tel);

    /** Rotate the demand window (call every cfg.epoch). */
    void rotateEpoch();

    /** Last completed window's miss ratio for a type. */
    double windowMissRatio(PageType t) const;

    /** Highest last-window miss ratio across eligible types. */
    double maxWindowMissRatio() const;

    /** Cumulative FastMem allocation miss ratio over all requests. */
    double overallFastMissRatio() const;

    /** Cumulative per-type allocation count (Figure 4 accounting). */
    std::uint64_t allocCount(PageType t) const
    {
        return total_allocs_[pageTypeIndex(t)].value();
    }

    std::uint64_t totalRequests() const { return total_requests_.value(); }
    std::uint64_t totalFastMisses() const
    {
        return total_fast_misses_.value();
    }

    /** The placement RNG (Random / NUMA-preferred coin flips). */
    const sim::Rng &rng() const { return rng_; }

  private:
    /** Pick the node to try first; may trigger balloon/reclaim. */
    unsigned chooseNode(const AllocRequest &req);

    /** True if `t` currently deserves FastMem under contention. */
    bool deservesFastMem(PageType t) const;

    GuestKernel &kernel_;
    /// First node of each type, or nullptr; fixed at kernel boot.
    NumaNode *fast_;
    NumaNode *slow_;
    AllocConfig cfg_;
    sim::Rng rng_;
    std::uint64_t pressure_allocs_ = 0;
    std::uint64_t oom_strikes_ = 0;

    std::array<DemandWindow, numPageTypes> window_;
    std::array<DemandWindow, numPageTypes> prev_window_;
    std::array<sim::Counter, numPageTypes> total_allocs_;
    sim::Counter total_requests_;
    sim::Counter total_fast_misses_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_HETERO_ALLOCATOR_HH
