/**
 * @file
 * Phase-based workload engine.
 *
 * Applications are modelled as sequences of phases. Each phase issues
 * memory accesses over *regions* (heap arenas, mmap'd files, network
 * buffers), performs I/O through the guest's page cache, and consumes
 * CPU. The engine converts that activity into simulated time:
 *
 *   phase time = CPU + memory service + exposed I/O wait
 *              + guest management overhead (alloc/reclaim/migration/
 *                hotness scans, drained from the kernel's accounts)
 *
 * Memory service is placement-aware: the engine samples the actual
 * backing tier (via the guest's placement oracle, which sees through
 * VMM-exclusive hidden placement too) of each region's hot pages and
 * splits the LLC-miss traffic across the tier devices. This is where
 * every placement decision made by the OS/VMM machinery turns into
 * performance.
 *
 * The engine also feeds hotness ground truth: every phase marks a
 * rotating slice of each region's hot window accessed (PTE accessed
 * bits + page reference bits), which is exactly what the hotness
 * trackers harvest and the LRU observes.
 */

#ifndef HOS_WORKLOAD_WORKLOAD_HH
#define HOS_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guestos/kernel.hh"
#include "guestos/slab.hh"
#include "mem/cache_model.hh"
#include "mem/mem_device.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace hos::workload {

/** The environment a workload runs in (provided by core). */
struct VmEnv
{
    guestos::GuestKernel *kernel = nullptr;
    mem::CacheModel *llc = nullptr;
    /** Tier -> the machine device servicing it. */
    std::function<mem::MemDevice &(mem::MemType)> device;
    /** Concurrent VMs contending for the devices. */
    std::function<unsigned()> sharers = [] { return 1u; };
    /** Report cumulative LLC misses (Equation 1 input); optional. */
    std::function<void(std::uint64_t)> report_misses;
};

/** A workload-managed set of pages with a locality profile. */
struct Region
{
    std::string name;
    guestos::PageType type = guestos::PageType::Anon;
    std::uint64_t vma_start = 0;       ///< anon regions: VMA base
    std::vector<guestos::Gpfn> pages;  ///< current page set
    std::uint64_t wss_pages = 0;       ///< hot-window size
    double temporal = 0.3;             ///< LLC temporal locality
    double mlp = 2.0;                  ///< memory-level parallelism
    double write_frac = 0.2;
    /**
     * Access skew inside the hot window: `core_frac` of the window is
     * a very hot core drawing `core_weight` of the accesses, touched
     * every phase; the rest is touched intermittently. The skew is
     * what hotness tracking exploits — without it, promoting any hot
     * page evicts an equally hot one and migration is zero-sum.
     */
    double core_frac = 0.25;
    double core_weight = 0.60;
    /** Per-phase touch probability of non-core hot-window pages. */
    double ref_chance = 0.45;
    /**
     * Hot-set drift: the hot window slides over the region by this
     * fraction of its size every phase (application phase changes).
     * Pages cold at allocation time later turn hot — the situation
     * only migration can repair, and the reason hotness tracking
     * exists at all (Figure 6's "for larger working sets, hotness-
     * tracking and migration are essential").
     */
    double drift_frac = 0.002;
    std::uint64_t window_start = 0;    ///< current hot-window origin
    std::uint64_t mark_cursor = 0;     ///< rotating accessed-bit slice
    bool oom_warned = false;           ///< growRegion warn-once latch
};

/** Base class for application models. */
class Workload
{
  public:
    /** Final outcome of a run. */
    struct Result
    {
        std::string workload;
        sim::Duration elapsed = 0;
        std::uint64_t phases = 0;
        double metric = 0.0;           ///< app-specific figure of merit
        std::string metric_name;
        std::uint64_t instructions = 0;
        std::uint64_t llc_misses = 0;
        double mpki = 0.0;

        double seconds() const { return sim::toSeconds(elapsed); }
    };

    Workload(VmEnv env, std::string name);
    virtual ~Workload();

    const std::string &name() const { return name_; }
    sim::Duration elapsed() const { return elapsed_; }
    bool started() const { return started_; }
    bool done() const { return done_; }

    /** Prepare processes/regions/files (calls setup()). */
    void start();

    /** Run one phase; false once the workload has completed. */
    bool step();

    /** Collect the result (valid once done). */
    Result finish();

    /** start + step to completion + finish. */
    Result run();

  protected:
    /** Create processes, files, initial regions. */
    virtual void setup() = 0;

    /** Execute phase `idx`; return false when the app is finished. */
    virtual bool phase(std::uint64_t idx) = 0;

    /** App-specific figure of merit (default: runtime in seconds). */
    virtual double metricValue() const;
    virtual const char *metricName() const { return "time(sec)"; }

    // --- Environment access -------------------------------------
    guestos::GuestKernel &kernel() { return *env_.kernel; }
    guestos::AddressSpace &mainProcess() { return *main_process_; }
    mem::CacheModel &llc() { return *env_.llc; }
    sim::Rng &rng() { return rng_; }

    // --- Region management ---------------------------------------
    /**
     * Create an anonymous region backed by a fresh VMA. Pages are
     * faulted in by growRegion().
     */
    Region makeAnonRegion(const std::string &name, std::uint64_t bytes,
                          std::uint64_t wss_bytes, double temporal,
                          double mlp, double write_frac,
                          guestos::MemHint hint = guestos::MemHint::None);

    /** Fault in up to `bytes` more of the region's VMA. */
    void growRegion(Region &r, std::uint64_t bytes);

    /** munmap the region's VMA, releasing all its pages. */
    void releaseRegion(Region &r);

    /**
     * Issue `accesses` memory references over the region's hot
     * window: samples tier placement, charges device time, and marks
     * a rotating slice of pages accessed.
     */
    void accessRegion(Region &r, std::uint64_t accesses);

    /**
     * Compute over an explicit page set (mmap'd page-cache data):
     * placement-aware like accessRegion, but the working set is the
     * given pages. This is how the graph engines consume shards and
     * streaming partitions — the page cache IS their working memory.
     */
    void accessPages(const std::vector<guestos::Gpfn> &pages,
                     std::uint64_t accesses, double temporal, double mlp,
                     double write_frac);

    // --- I/O -------------------------------------------------------
    guestos::FileId makeFile(std::uint64_t bytes);

    /**
     * Buffered read; charges exposed I/O wait (scaled by the app's
     * I/O overlap factor) and the placement-aware copy-out traffic.
     * Returns pages touched.
     */
    std::vector<guestos::Gpfn> ioRead(guestos::FileId f,
                                      std::uint64_t offset,
                                      std::uint64_t len);

    /** Buffered write (dirty page-cache pages; flusher does disk). */
    void ioWrite(guestos::FileId f, std::uint64_t offset,
                 std::uint64_t len);

    /**
     * Charge placement-aware memory traffic for touching cache pages
     * (copy to/from user buffers).
     */
    void ioAccessPages(const std::vector<guestos::Gpfn> &pages,
                       bool write);

    // --- Network ----------------------------------------------------
    /**
     * Process `count` network requests of `bytes_per_req` through
     * skbuff slab buffers: alloc, placement-aware copy, free.
     */
    void netRequestBatch(std::uint64_t count,
                         std::uint64_t bytes_per_req);

    // --- Direct accounting -----------------------------------------
    void chargeCpu(sim::Duration d) { phase_cpu_ += d; }
    void chargeInstructions(std::uint64_t n) { instructions_ += n; }
    void chargeIoWait(sim::Duration d);
    void chargeMemTraffic(mem::MemType tier, std::uint64_t loads,
                          std::uint64_t stores, std::uint64_t bytes,
                          double mlp);

    /** Fraction of region hot-window pages backed by FastMem. */
    double sampleFastFraction(Region &r);

    /** Fast fraction of `count` pages starting at index `start`. */
    double sampleWindowFast(Region &r, std::uint64_t start,
                            std::uint64_t count);

    /**
     * The gpfn currently backing region index `idx`. Migration and
     * demotion change a virtual page's frame behind the region's
     * back; this refreshes the cached gpfn from the page table when
     * it went stale (anon regions are VA-contiguous, so the index
     * maps directly to a virtual address).
     */
    guestos::Gpfn regionPage(Region &r, std::uint64_t idx);

    /** Fraction of disk time hidden by prefetch/async I/O. */
    double io_overlap_ = 0.5;

  private:
    /** Mark a rotating slice of the hot window accessed. */
    void markRegionAccessed(Region &r);

    VmEnv env_;
    std::string name_;
    sim::Rng rng_;
    guestos::AddressSpace *main_process_ = nullptr;

    bool started_ = false;
    bool done_ = false;
    std::uint64_t phase_idx_ = 0;

    sim::Duration elapsed_ = 0;
    sim::Duration phase_cpu_ = 0;
    sim::Duration phase_mem_ = 0;
    sim::Duration phase_io_ = 0;
    /**
     * What phase_mem_ would have been with every page on the fast
     * tier — the all-fast counterfactual the metrics slowdown
     * estimator divides by. Only accumulated while a metrics
     * collector is active (MemDevice::estimate is pure, so the
     * accounting never perturbs device state).
     */
    sim::Duration phase_mem_ideal_ = 0;
    std::uint64_t instructions_ = 0;

    guestos::SlabCacheId skb_cache_ = 0;
    bool skb_cache_created_ = false;
    std::vector<guestos::SlabObject> skb_pool_;
};

/** Signature for app factories (core's experiment runner uses it). */
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(VmEnv)>;

} // namespace hos::workload

#endif // HOS_WORKLOAD_WORKLOAD_HH
