/**
 * @file
 * GuestKernel: the heterogeneity-aware guest OS facade.
 *
 * Wires together the paper's guest-side machinery (Section 3): fake-
 * NUMA nodes per memory type, the buddy + per-CPU allocators, the
 * HeteroOS demand-prioritizing page allocator, HeteroOS-LRU, the
 * split balloon and migration front-ends, the page cache, slab, and
 * swap. It also keeps the management-overhead accounts the workload
 * engine folds into simulated runtime.
 *
 * The kernel implements the backing interfaces of its subsystems
 * (MmBacking, PageCacheBacking, SlabBacking), making it the single
 * place where placement policy, LRU bookkeeping, and accounting meet.
 */

#ifndef HOS_GUESTOS_KERNEL_HH
#define HOS_GUESTOS_KERNEL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guestos/address_space.hh"
#include "guestos/balloon_frontend.hh"
#include "guestos/blockdev.hh"
#include "guestos/hetero_allocator.hh"
#include "guestos/hetero_lru.hh"
#include "guestos/migration_frontend.hh"
#include "guestos/numa.hh"
#include "guestos/page.hh"
#include "guestos/page_cache.hh"
#include "guestos/percpu_lists.hh"
#include "guestos/slab.hh"
#include "guestos/swap.hh"
#include "mem/tlb_model.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace hos::guestos {

/** One guest NUMA node's boot configuration. */
struct GuestNodeConfig
{
    mem::MemType type = mem::MemType::SlowMem;
    std::uint64_t max_bytes = 8 * mem::gib;     ///< node span (ceiling)
    std::uint64_t initial_bytes = 8 * mem::gib; ///< boot reservation
};

/** Guest VM configuration. */
struct GuestConfig
{
    std::string name = "guest";
    unsigned cpus = 16;
    std::uint64_t seed = 1;
    std::vector<GuestNodeConfig> nodes;
    AllocConfig alloc;
    HeteroLruConfig lru;
    BlockDeviceConfig disk;
    std::uint64_t swap_bytes = 4 * mem::gib;
    mem::TlbConfig tlb;
    unsigned readahead_pages = 32;
};

/** Categories of guest-side management overhead. */
enum class OverheadKind : std::uint8_t {
    Alloc = 0,  ///< slow-path allocation work
    Reclaim,    ///< HeteroOS-LRU scanning and demotion
    Migration,  ///< page migration walk+copy+shootdown
    HotScan,    ///< hotness-tracking costs charged to this VM
    Balloon,    ///< balloon front-end work
    Writeback,  ///< dirty page write-back
    Io,         ///< synchronous disk waits (faults on mapped files)
    Swap,       ///< swap traffic during ballooning
};

constexpr std::size_t numOverheadKinds = 8;

const char *overheadKindName(OverheadKind k);

/** The guest operating system of one VM. */
class GuestKernel final : public MmBacking,
                          public PageCacheBacking,
                          public SlabBacking
{
  public:
    explicit GuestKernel(GuestConfig cfg);
    ~GuestKernel() override;

    GuestKernel(const GuestKernel &) = delete;
    GuestKernel &operator=(const GuestKernel &) = delete;

    const GuestConfig &config() const { return cfg_; }
    const std::string &name() const { return cfg_.name; }

    /**
     * VM id this kernel is attributed to in xray telemetry. Set by
     * HeteroSystem::addVm from the VMM slot id; standalone kernels
     * (unit tests) keep the default 0.
     */
    void setVmTag(std::uint16_t vm) { vm_tag_ = vm; }
    std::uint16_t vmTag() const { return vm_tag_; }

    // --- Topology -------------------------------------------------
    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }
    // node/nodeOf/zoneOf run on every page alloc, free, and LRU
    // rotation; they are defined inline for the same reason the
    // PageList operations are.
    NumaNode &node(unsigned id)
    {
        hos_assert(id < nodes_.size(), "bad node id");
        return *nodes_[id];
    }
    /** First node of the type, or nullptr if the guest has none. */
    NumaNode *nodeFor(mem::MemType type)
    {
        for (auto &n : nodes_) {
            if (n->memType() == type)
                return n.get();
        }
        return nullptr;
    }
    bool hasType(mem::MemType type) const;
    NumaNode &nodeOf(Gpfn pfn)
    {
        return node(pages_.page(pfn).numa_node());
    }
    Zone &zoneOf(Gpfn pfn) { return nodeOf(pfn).zoneOf(pfn); }

    /**
     * Pages allocatable from a node right now: buddy free pages plus
     * the per-CPU caches (invisible to the buddy but one fast-path
     * call away). Watermark checks must use this, or per-CPU caching
     * masquerades as memory pressure.
     */
    std::uint64_t effectiveFreePages(NumaNode &node);
    PageArray &pages() { return pages_; }
    PageRef pageMeta(Gpfn pfn) { return pages_.page(pfn); }

    // --- Subsystems -----------------------------------------------
    HeteroAllocator &allocator() { return *allocator_; }
    HeteroLru &heteroLru() { return *hetero_lru_; }
    BalloonFrontend &balloon() { return *balloon_; }
    MigrationFrontend &migrator() { return *migrator_; }
    PageCache &pageCache() { return *page_cache_; }
    SlabAllocator &slab() { return *slab_; }
    SwapDevice &swap() { return *swap_; }
    BlockDevice &disk() { return disk_; }
    PerCpuPageLists &percpu() { return *percpu_; }
    sim::EventQueue &events() { return events_; }
    mem::TlbModel &tlb() { return tlb_; }
    sim::StatGroup &stats() { return stats_; }
    sim::Rng &rng() { return rng_; }

    // --- Processes ------------------------------------------------
    AddressSpace &createProcess(const std::string &name);
    AddressSpace &process(ProcessId pid);
    bool hasProcess(ProcessId pid) const;

    // --- Page allocation -----------------------------------------
    /** Policy-driven allocation (the HeteroOS allocator path). */
    Gpfn allocPage(const AllocRequest &req);

    /** Free any allocated page (must be off the LRU). */
    void freePage(Gpfn pfn, unsigned cpu = 0) { freePages(&pfn, 1, cpu); }

    /** freePage() of each page, in order. */
    void freePages(const Gpfn *pfns, std::uint64_t n, unsigned cpu = 0);

    /**
     * Allocate directly from a specific node (reclaim/demotion path;
     * bypasses placement policy and demand statistics).
     */
    Gpfn allocPageOnNode(unsigned node_id, PageType type,
                         unsigned cpu = 0);

    /**
     * Whether allocPageOnNode(node_id, ·, cpu) would find a page: the
     * cpu's cache for the node or the node's buddy is non-empty. O(1),
     * so callers can skip the work around a doomed allocation.
     */
    bool canAllocOnNode(unsigned node_id, unsigned cpu = 0)
    {
        return !percpu_->cacheList(cpu, node_id).empty() ||
               node(node_id).freePages() > 0;
    }

    // --- Balloon bookkeeping --------------------------------------
    /** Pop up to n unpopulated gpfns of a node for the balloon. */
    std::vector<Gpfn> takeUnpopulatedGpfns(unsigned node_id,
                                           std::uint64_t n);
    /** Return gpfns whose population was refused or undone. */
    void returnUnpopulatedGpfns(unsigned node_id,
                                const std::vector<Gpfn> &gpfns);
    /**
     * Zero-copy view of the top `n` unpopulated gpfns of a node, in
     * the exact order takeUnpopulatedGpfns would pop them. Valid
     * until the next mutation of the node's stack (commit/take/
     * return). Pair with commitUnpopulatedGpfns.
     */
    UnpopulatedView peekUnpopulatedGpfns(unsigned node_id,
                                         std::uint64_t n) const;
    /**
     * Settle a populate attempt made over a peeked view of `peeked`
     * entries whose first `granted` were taken (now populated).
     * Equivalent to taking `peeked` gpfns and returning the
     * ungranted tail — including the tail's order reversal — but
     * O(1) in the common cases (nothing granted, a grant against an
     * unreversed top, or a full grant off the boot range).
     */
    void commitUnpopulatedGpfns(unsigned node_id, std::uint64_t peeked,
                                std::uint64_t granted);

    // --- Placement oracle ------------------------------------------
    /**
     * Which memory tier actually backs this gpfn. Defaults to the
     * guest node's type (identity backing); a VMM-exclusive policy
     * overrides it with a P2M lookup, since there the guest's view
     * is a lie. Inline: the workload engine calls this in per-page
     * loops, and the identity path is two loads.
     */
    mem::MemType backingOf(Gpfn pfn) const
    {
        if (backing_oracle_)
            return backing_oracle_(pfn);
        return pages_.page(pfn).mem_type();
    }
    bool hasBackingOracle() const
    {
        return static_cast<bool>(backing_oracle_);
    }
    void setBackingOracle(std::function<mem::MemType(Gpfn)> oracle)
    {
        backing_oracle_ = std::move(oracle);
    }

    // --- LRU helpers ------------------------------------------------
    void lruAdd(Gpfn pfn);
    void lruAddActive(Gpfn pfn);
    void lruRemove(Gpfn pfn);
    void lruTouch(Gpfn pfn);

    // --- Overhead accounting ---------------------------------------
    void charge(OverheadKind kind, sim::Duration d);
    /** Overhead accumulated since the last drain (workload phases). */
    sim::Duration drainPendingOverhead();
    /**
     * Overhead charged but not yet drained into a workload phase.
     * check::auditMetrics reconciles the metrics collector's drained
     * totals against overheadGrandTotal() minus this remainder.
     */
    sim::Duration pendingOverhead() const { return pending_overhead_; }
    sim::Duration overheadTotal(OverheadKind kind) const;
    sim::Duration overheadGrandTotal() const;

    // --- Counters ----------------------------------------------------
    /** Cumulative allocations per page type (Figure 4). */
    std::uint64_t allocCount(PageType t) const
    {
        return allocator_->allocCount(t);
    }
    std::uint64_t pageTablePages() const { return pt_pages_.size(); }

    /** Start periodic daemons (epoch rotation, LRU tick, flusher). */
    void startDaemons();

    /**
     * Refresh stats() from live subsystem state (allocator, LRU,
     * balloon, swap, page cache, per-node occupancy, overhead
     * accounts). Called through the system's StatRegistry refresh
     * hook (audits, stat dumps).
     */
    void syncStats();

    // --- MmBacking ---------------------------------------------------
    std::uint64_t allocUserPages(PageType type, MemHint hint,
                                 ProcessId process, std::uint64_t vaddr,
                                 std::uint64_t n,
                                 UserPageSink &sink) override;
    void freeUserPages(const std::vector<Gpfn> &pfns) override;
    Gpfn fileBackedPage(FileId file, std::uint64_t offset, MemHint hint,
                        ProcessId process, std::uint64_t vaddr) override;
    void onUnmapRelease(const std::vector<Gpfn> &anon_released,
                        const std::vector<Gpfn> &file_released) override;
    void onPageTablePages(std::int64_t delta) override;

    // --- PageCacheBacking ---------------------------------------------
    void allocIoPages(PageType type, MemHint hint, std::uint64_t n,
                      IoPageSink &sink) override;
    void freeIoPage(Gpfn pfn) override;
    void touchIoPage(Gpfn pfn, bool write) override;
    void onIoComplete(const std::vector<Gpfn> &pages,
                      IoKind kind) override;

    // --- SlabBacking ----------------------------------------------------
    Gpfn allocSlabPage(PageType type, MemHint hint) override;
    void freeSlabPage(Gpfn pfn) override;
    void touchSlabPage(Gpfn pfn) override;

  private:
    /**
     * Per-node LIFO of unpopulated gpfns whose top `rev` entries are
     * stored in reversed order. The balloon populate protocol pops
     * the top k, gets a strict prefix g granted, and pushes the
     * remainder back — which nets out to "drop g, reverse the new
     * top k-g". Keeping that reversal as a lazy window makes the
     * dominant futile round trip (g == 0, the DRF pressure storm)
     * cancel in O(1) instead of copying k gpfns twice.
     *
     * A node boots with every gpfn unpopulated, low gpfns on top.
     * That stack is kept implicit as the range [lo, hi) until
     * something has to go on top of it (a return, or the tail of a
     * partial grant); spill() then writes it out. v is empty while
     * the range is not.
     */
    struct UnpopulatedStack
    {
        std::vector<Gpfn> v;
        std::uint64_t rev = 0; ///< top `rev` entries stored reversed
        Gpfn lo = 0;           ///< implicit range [lo, hi), lo on top
        Gpfn hi = 0;

        std::uint64_t size() const { return v.size() + (hi - lo); }
        /** Write the implicit range out onto v, lo on top. */
        void spill()
        {
            v.reserve(v.size() + (hi - lo));
            for (Gpfn pfn = hi; pfn-- > lo;)
                v.push_back(pfn);
            lo = hi;
        }
        /** Rewrite the reversed window in physical order. */
        void materialize()
        {
            if (rev > 0) {
                std::reverse(
                    v.end() - static_cast<std::ptrdiff_t>(rev),
                    v.end());
                rev = 0;
            }
        }
    };

    GuestConfig cfg_;
    std::uint16_t vm_tag_ = 0;
    sim::StatGroup stats_;
    sim::Rng rng_;
    sim::EventQueue events_;
    mem::TlbModel tlb_;
    BlockDevice disk_;

    PageArray pages_;
    std::vector<std::unique_ptr<NumaNode>> nodes_;
    std::vector<UnpopulatedStack> unpopulated_; ///< per node

    std::unique_ptr<PerCpuPageLists> percpu_;
    std::unique_ptr<HeteroAllocator> allocator_;
    std::unique_ptr<HeteroLru> hetero_lru_;
    std::unique_ptr<BalloonFrontend> balloon_;
    std::unique_ptr<MigrationFrontend> migrator_;
    std::unique_ptr<PageCache> page_cache_;
    std::unique_ptr<SlabAllocator> slab_;
    std::unique_ptr<SwapDevice> swap_;

    std::function<mem::MemType(Gpfn)> backing_oracle_;

    std::array<sim::Duration, numOverheadKinds> overhead_total_{};
    sim::Duration pending_overhead_ = 0;

    std::vector<Gpfn> pt_pages_;       ///< backing for page-table nodes
    std::uint64_t pt_unbacked_ = 0;    ///< PT nodes with no page (OOM)

    // Destroyed before the allocator et al. (declared last).
    std::vector<std::unique_ptr<AddressSpace>> processes_;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_KERNEL_HH
