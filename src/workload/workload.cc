#include "workload/workload.hh"

#include <algorithm>

#include "metrics/metrics.hh"
#include "sim/log.hh"

namespace hos::workload {

namespace {
/** Pages marked accessed per region per phase (hotness ground truth). */
constexpr std::uint64_t markSlice = 2048;
/** Pages sampled per region per phase for the placement estimate. */
constexpr std::uint64_t placementSample = 512;
} // namespace

Workload::Workload(VmEnv env, std::string name)
    : env_(std::move(env)), name_(std::move(name)),
      rng_(env_.kernel->config().seed ^ 0x3017ull)
{
    hos_assert(env_.kernel && env_.llc && env_.device,
               "workload environment incomplete");
}

Workload::~Workload() = default;

void
Workload::start()
{
    hos_assert(!started_, "workload already started");
    started_ = true;
    main_process_ = &kernel().createProcess(name_);
    kernel().startDaemons();
    setup();
}

bool
Workload::step()
{
    hos_assert(started_ && !done_, "step() outside an active run");

    phase_cpu_ = 0;
    phase_mem_ = 0;
    phase_io_ = 0;
    phase_mem_ideal_ = 0;

    const bool more = phase(phase_idx_);
    ++phase_idx_;

    const sim::Duration overhead = kernel().drainPendingOverhead();
    const sim::Duration t =
        phase_cpu_ + phase_mem_ + phase_io_ + overhead;
    elapsed_ += t;

    // Progress telemetry: actual phase time vs the all-fast ideal
    // (same CPU and I/O, counterfactual memory service, no management
    // overhead). The collector windows these into per-VM slowdown
    // percentiles; check::auditMetrics reconciles the overhead stream
    // against the kernel's accounts.
    if (auto *mx = metrics::active()) {
        mx->onPhase(kernel().vmTag(), elapsed_, t,
                    phase_cpu_ + phase_mem_ideal_ + phase_io_, overhead);
    }

    // Let periodic daemons (epoch rotation, LRU, flusher, trackers)
    // catch up to the new simulated time. Their costs land in the
    // pending-overhead account and are drained next phase.
    kernel().events().runUntil(elapsed_);

    if (env_.report_misses)
        env_.report_misses(env_.llc->totalMisses());

    if (!more)
        done_ = true;
    return more;
}

Workload::Result
Workload::finish()
{
    hos_assert(done_, "finish() before the workload completed");
    Result res;
    res.workload = name_;
    res.elapsed = elapsed_;
    res.phases = phase_idx_;
    res.instructions = instructions_;
    res.llc_misses = env_.llc->totalMisses();
    res.mpki = env_.llc->mpki(instructions_);
    res.metric_name = metricName();
    res.metric = metricValue();
    return res;
}

Workload::Result
Workload::run()
{
    start();
    while (step()) {
    }
    return finish();
}

double
Workload::metricValue() const
{
    return sim::toSeconds(elapsed_);
}

Region
Workload::makeAnonRegion(const std::string &name, std::uint64_t bytes,
                         std::uint64_t wss_bytes, double temporal,
                         double mlp, double write_frac,
                         guestos::MemHint hint)
{
    Region r;
    r.name = name;
    r.type = guestos::PageType::Anon;
    r.temporal = temporal;
    r.mlp = mlp;
    r.write_frac = write_frac;
    r.wss_pages = mem::bytesToPages(wss_bytes);
    r.vma_start = mainProcess().mmap(bytes, guestos::VmaKind::Anon, hint,
                                     guestos::noFile, 0, name);
    return r;
}

void
Workload::growRegion(Region &r, std::uint64_t bytes)
{
    const std::uint64_t npages = mem::bytesToPages(bytes);
    auto &as = mainProcess();
    const guestos::Vma *vma = as.findVma(r.vma_start);
    hos_assert(vma != nullptr, "region VMA vanished");
    for (std::uint64_t i = 0; i < npages; ++i) {
        const std::uint64_t va =
            r.vma_start +
            (static_cast<std::uint64_t>(r.pages.size())) * mem::pageSize;
        if (va >= vma->end())
            break; // VMA full (chunked growth rounds up)
        const guestos::Gpfn pfn = as.touch(va, /*write=*/true);
        if (pfn == guestos::invalidGpfn) {
            if (!r.oom_warned) {
                sim::warn("%s: guest out of memory growing region %s "
                          "(footprint trimmed to fit)",
                          name_.c_str(), r.name.c_str());
                r.oom_warned = true;
            }
            break;
        }
        r.pages.push_back(pfn);
    }
}

void
Workload::releaseRegion(Region &r)
{
    if (r.vma_start != 0)
        mainProcess().munmap(r.vma_start);
    r.pages.clear();
    r.vma_start = 0;
}

guestos::Gpfn
Workload::regionPage(Region &r, std::uint64_t idx)
{
    guestos::Gpfn pfn = r.pages[idx];
    if (r.type != guestos::PageType::Anon)
        return pfn;
    const std::uint64_t va = r.vma_start + idx * mem::pageSize;
    const guestos::PageRef p = kernel().pageMeta(pfn);
    if (!p.allocated() || p.vaddr() != va ||
        p.owner_process() != mainProcess().pid()) {
        // Stale: the page was demoted/promoted to a different frame.
        if (auto cur = mainProcess().translate(va)) {
            r.pages[idx] = *cur;
            pfn = *cur;
        }
    }
    return pfn;
}

double
Workload::sampleWindowFast(Region &r, std::uint64_t start,
                           std::uint64_t count)
{
    if (count == 0 || r.pages.empty())
        return 0.0;
    const std::uint64_t size = r.pages.size();
    const std::uint64_t n =
        std::min<std::uint64_t>(placementSample, count);
    std::uint64_t fast = 0;
    if (n == count) {
        // Exhaustive window: consecutive indices, so the modulo
        // reduces to a conditional wrap.
        std::uint64_t idx = start % size;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (kernel().backingOf(regionPage(r, idx)) ==
                mem::MemType::FastMem) {
                ++fast;
            }
            if (++idx == size)
                idx = 0;
        }
    } else {
        for (std::uint64_t i = 0; i < n; ++i) {
            // Even sampling keeps the estimate deterministic and
            // unbiased w.r.t. migrations. The window is circular
            // over the region (hot sets drift).
            const std::uint64_t idx =
                (start + (i * count) / n) % size;
            if (kernel().backingOf(regionPage(r, idx)) ==
                mem::MemType::FastMem) {
                ++fast;
            }
        }
    }
    return static_cast<double>(fast) / static_cast<double>(n);
}

double
Workload::sampleFastFraction(Region &r)
{
    if (r.pages.empty())
        return 0.0;
    const std::uint64_t hot =
        std::min<std::uint64_t>(r.wss_pages, r.pages.size());
    if (hot == 0)
        return 0.0;
    return sampleWindowFast(r, r.window_start, hot);
}

void
Workload::markRegionAccessed(Region &r)
{
    if (r.pages.empty())
        return;
    const std::uint64_t hot =
        std::min<std::uint64_t>(r.wss_pages, r.pages.size());

    // Hot-set drift: the window slides over the region phase by
    // phase, so pages cold at allocation time later become hot.
    const auto drift = static_cast<std::uint64_t>(
        static_cast<double>(hot) * r.drift_frac);
    if (hot < r.pages.size())
        r.window_start = (r.window_start + drift) % r.pages.size();

    // The hardware access bit. The very hot core (the leading
    // core_frac of the window) is touched every phase; the rest of
    // the window intermittently — this skew is the signal hotness
    // trackers harvest. The software referenced bit is set too, so
    // LRU reclaim sees recently used pages and second-chances them.
    const std::uint64_t core =
        std::min<std::uint64_t>(hot,
                                static_cast<std::uint64_t>(
                                    static_cast<double>(hot) *
                                    r.core_frac));
    // window_start stays < size (it is only ever assigned mod size),
    // so the circular walks below wrap with a compare instead of a
    // per-iteration modulo.
    const std::uint64_t size = r.pages.size();
    std::uint64_t idx = r.window_start;
    for (std::uint64_t i = 0; i < hot; ++i) {
        const bool in_core = i >= hot - core;
        if (in_core || rng_.chance(r.ref_chance)) {
            guestos::PageRef p = kernel().pageMeta(regionPage(r, idx));
            p.setPteAccessed(true);
            p.setReferenced(true);
            p.setLastTouch(elapsed_ + 1);
        }
        if (++idx == size)
            idx = 0;
    }

    // LRU references and leaf-PTE touches are charged on a rotating
    // slice (real kernels see mark_page_accessed() on a subset too).
    const std::uint64_t n = std::min<std::uint64_t>(markSlice, hot);
    auto &as = mainProcess();
    const bool write = rng_.chance(r.write_frac);
    idx = r.window_start + r.mark_cursor;
    if (idx >= size)
        idx -= size; // both terms are < size
    for (std::uint64_t i = 0; i < n; ++i) {
        const guestos::Gpfn pfn = regionPage(r, idx);
        const guestos::PageRef p = kernel().pageMeta(pfn);
        kernel().lruTouch(pfn);
        if (r.type == guestos::PageType::Anon && p.vaddr() != 0)
            as.pageTable().touch(p.vaddr(), write);
        if (++idx == size)
            idx = 0;
    }
    r.mark_cursor = (r.mark_cursor + n) % std::max<std::uint64_t>(1, hot);
}

void
Workload::chargeMemTraffic(mem::MemType tier, std::uint64_t loads,
                           std::uint64_t stores, std::uint64_t bytes,
                           double mlp)
{
    if (loads + stores == 0 && bytes == 0)
        return;
    mem::AccessBatch batch;
    batch.loads = loads;
    batch.stores = stores;
    batch.bytes = bytes;
    batch.mlp = mlp;
    const unsigned sharers = env_.sharers();
    phase_mem_ += env_.device(tier).service(batch, sharers);
    if (metrics::active()) {
        // All-fast counterfactual for the slowdown estimator. For
        // fast-tier batches estimate() equals the service() charge,
        // so ideal == actual whenever placement is already perfect.
        phase_mem_ideal_ +=
            env_.device(mem::MemType::FastMem).estimate(batch, sharers);
    }
}

void
Workload::accessRegion(Region &r, std::uint64_t accesses)
{
    if (accesses == 0 || r.pages.empty())
        return;

    markRegionAccessed(r);

    const std::uint64_t hot =
        std::min<std::uint64_t>(r.wss_pages, r.pages.size());
    mem::RegionLocality loc;
    loc.wss_bytes = hot * mem::pageSize;
    loc.temporal = r.temporal;
    const std::uint64_t misses = llc().access(loc, accesses);
    if (misses == 0)
        return;

    // Skew-aware placement: the hot core draws core_weight of the
    // misses; the rest of the window the remainder. Each part pays
    // its own tier mix. The window is circular (drift).
    const std::uint64_t core =
        std::min<std::uint64_t>(hot,
                                static_cast<std::uint64_t>(
                                    static_cast<double>(hot) *
                                    r.core_frac));
    const double f_core =
        core > 0 ? sampleWindowFast(r, r.window_start + hot - core, core)
                 : 0.0;
    const double f_rest =
        hot > core ? sampleWindowFast(r, r.window_start, hot - core)
                   : f_core;
    const double cw = core > 0 ? r.core_weight : 0.0;
    const double f_fast = cw * f_core + (1.0 - cw) * f_rest;

    const auto m_fast = static_cast<std::uint64_t>(
        static_cast<double>(misses) * f_fast + 0.5);
    const std::uint64_t m_slow = misses - std::min(misses, m_fast);

    auto charge = [&](mem::MemType tier, std::uint64_t m) {
        if (m == 0)
            return;
        const auto stores = static_cast<std::uint64_t>(
            static_cast<double>(m) * r.write_frac);
        const std::uint64_t loads = m - stores;
        // Fetch traffic plus eventual write-back of dirtied lines.
        const std::uint64_t bytes =
            (m + stores) * mem::cacheLineSize;
        chargeMemTraffic(tier, loads, stores, bytes, r.mlp);
    };
    charge(mem::MemType::FastMem, m_fast);
    charge(mem::MemType::SlowMem, m_slow);
}

void
Workload::accessPages(const std::vector<guestos::Gpfn> &pages,
                      std::uint64_t accesses, double temporal, double mlp,
                      double write_frac)
{
    if (accesses == 0 || pages.empty())
        return;

    // Mark the pages accessed/referenced (hotness + LRU ground truth)
    // and count placements in the same pass.
    std::uint64_t fast = 0;
    std::uint64_t lru_budget = markSlice;
    for (guestos::Gpfn pfn : pages) {
        guestos::PageRef p = kernel().pageMeta(pfn);
        p.setPteAccessed(true);
        p.setReferenced(true);
        p.setLastTouch(elapsed_ + 1);
        if (lru_budget > 0 && p.lru() != guestos::LruState::None) {
            kernel().lruTouch(pfn);
            --lru_budget;
        }
        if (kernel().backingOf(pfn) == mem::MemType::FastMem)
            ++fast;
    }

    mem::RegionLocality loc;
    loc.wss_bytes = pages.size() * mem::pageSize;
    loc.temporal = temporal;
    const std::uint64_t misses = llc().access(loc, accesses);
    if (misses == 0)
        return;

    const double f_fast =
        static_cast<double>(fast) / static_cast<double>(pages.size());
    const auto m_fast = static_cast<std::uint64_t>(
        static_cast<double>(misses) * f_fast + 0.5);
    const std::uint64_t m_slow = misses - std::min(misses, m_fast);
    auto charge = [&](mem::MemType tier, std::uint64_t m) {
        if (m == 0)
            return;
        const auto stores = static_cast<std::uint64_t>(
            static_cast<double>(m) * write_frac);
        chargeMemTraffic(tier, m - stores, stores,
                         (m + stores) * mem::cacheLineSize, mlp);
    };
    charge(mem::MemType::FastMem, m_fast);
    charge(mem::MemType::SlowMem, m_slow);
}

guestos::FileId
Workload::makeFile(std::uint64_t bytes)
{
    return kernel().pageCache().createFile(bytes);
}

void
Workload::chargeIoWait(sim::Duration d)
{
    phase_io_ += static_cast<sim::Duration>(
        static_cast<double>(d) * (1.0 - io_overlap_));
}

std::vector<guestos::Gpfn>
Workload::ioRead(guestos::FileId f, std::uint64_t offset,
                 std::uint64_t len)
{
    auto res = kernel().pageCache().read(f, offset, len);
    chargeIoWait(res.disk_time);
    ioAccessPages(res.pages, /*write=*/false);
    return std::move(res.pages);
}

void
Workload::ioWrite(guestos::FileId f, std::uint64_t offset,
                  std::uint64_t len)
{
    auto res = kernel().pageCache().write(f, offset, len);
    chargeIoWait(res.disk_time);
    ioAccessPages(res.pages, /*write=*/true);
}

void
Workload::ioAccessPages(const std::vector<guestos::Gpfn> &pages,
                        bool write)
{
    if (pages.empty())
        return;
    // Copy between the cache pages and user buffers: the cache side's
    // tier decides the cost. Streaming copies have high MLP and touch
    // every line of the page.
    std::uint64_t fast = 0;
    for (guestos::Gpfn pfn : pages) {
        if (kernel().backingOf(pfn) == mem::MemType::FastMem)
            ++fast;
    }
    const std::uint64_t lines_per_page =
        mem::pageSize / mem::cacheLineSize;
    auto charge = [&](mem::MemType tier, std::uint64_t n) {
        if (n == 0)
            return;
        const std::uint64_t lines = n * lines_per_page;
        chargeMemTraffic(tier, write ? 0 : lines, write ? lines : 0,
                         n * mem::pageSize, /*mlp=*/8.0);
    };
    charge(mem::MemType::FastMem, fast);
    charge(mem::MemType::SlowMem, pages.size() - fast);
}

void
Workload::netRequestBatch(std::uint64_t count, std::uint64_t bytes_per_req)
{
    if (count == 0)
        return;
    auto &slab = kernel().slab();
    if (!skb_cache_created_) {
        skb_cache_ = slab.createCache("skbuff", 2048,
                                      guestos::PageType::NetBuf);
        skb_cache_created_ = true;
    }

    // A warm pool of live skbuffs persists across batches (real
    // stacks keep the slab caches warm); a quarter of the pool still
    // churns through alloc/free every batch, which is what keeps
    // NetBuf pages allocation-active for placement purposes.
    const std::uint64_t live = std::min<std::uint64_t>(count, 4096);
    const std::uint64_t churn = skb_pool_.empty() ? live : live / 4;
    for (std::uint64_t i = 0; i < churn && !skb_pool_.empty(); ++i) {
        slab.free(skb_cache_, skb_pool_.back());
        skb_pool_.pop_back();
    }
    while (skb_pool_.size() < live) {
        auto obj = slab.alloc(skb_cache_);
        if (!obj.valid())
            break;
        skb_pool_.push_back(obj);
    }

    std::uint64_t fast_pages = 0, slow_pages = 0;
    for (const auto &obj : skb_pool_) {
        if (kernel().backingOf(obj.pfn) == mem::MemType::FastMem)
            ++fast_pages;
        else
            ++slow_pages;
    }

    // Copy traffic: every request moves bytes_per_req through an
    // skbuff; scale the sampled tier mix up to the full count.
    const double total = static_cast<double>(fast_pages + slow_pages);
    if (total > 0) {
        const double f_fast = static_cast<double>(fast_pages) / total;
        const std::uint64_t bytes = count * bytes_per_req;
        const std::uint64_t lines = bytes / mem::cacheLineSize;
        const auto b_fast =
            static_cast<std::uint64_t>(static_cast<double>(bytes) * f_fast);
        const auto l_fast = static_cast<std::uint64_t>(
            static_cast<double>(lines) * f_fast);
        chargeMemTraffic(mem::MemType::FastMem, l_fast / 2, l_fast / 2,
                         b_fast, 6.0);
        chargeMemTraffic(mem::MemType::SlowMem, (lines - l_fast) / 2,
                         (lines - l_fast) / 2, bytes - b_fast, 6.0);
    }

}

} // namespace hos::workload
