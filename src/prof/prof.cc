#include "prof/prof.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "sim/log.hh"
#include "trace/trace.hh"

namespace hos::prof {

namespace detail {
std::uint64_t
hostNow()
{
    // The one sanctioned wall-clock read in the tree: host-time span
    // costs at HOS_PROF_LEVEL=2. Never feeds simulated state or any
    // determinism-checked output.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}
} // namespace detail

namespace {

constexpr const char *kSpanNames[numSpanKinds] = {
    "migration_epoch", "candidate_select", "batch_copy",
    "remap",           "tlb_shootdown",    "scan_pass",
    "chunk_walk",      "reclaim_pass",     "writeback_pass",
    "drf_round",       "reallocation",     "balloon_op",
    "swap_op",         "region_sample",    "region_adjust",
    "io_fill",
};

/**
 * Cost-kind label table, registered once by the guest kernel.
 * Release/acquire so sweep workers constructing kernels concurrently
 * with another worker's report() never see a half-written table.
 */
std::atomic<const char *const *> g_cost_names{nullptr};
std::atomic<std::size_t> g_num_cost_names{0};

const char *
spanNameResolver(std::uint64_t kind)
{
    return kind < numSpanKinds
               ? kSpanNames[static_cast<std::size_t>(kind)]
               : nullptr;
}

} // namespace

const char *
levelName()
{
#if HOS_PROF_LEVEL >= 2
    return "host";
#elif HOS_PROF_LEVEL >= 1
    return "sim";
#else
    return "off";
#endif
}

const char *
spanKindName(SpanKind k)
{
    const auto i = static_cast<std::size_t>(k);
    hos_assert(i < numSpanKinds, "bad span kind %zu", i);
    return kSpanNames[i];
}

void
registerCostKindNames(const char *const *names, std::size_t count)
{
    hos_assert(count <= maxCostKinds, "too many cost kinds");
    const char *const *expected = nullptr;
    if (g_cost_names.compare_exchange_strong(
            expected, names, std::memory_order_release,
            std::memory_order_relaxed)) {
        g_num_cost_names.store(count, std::memory_order_release);
    }
}

const char *
costKindName(std::uint8_t kind)
{
    const char *const *names =
        g_cost_names.load(std::memory_order_acquire);
    const std::size_t n =
        g_num_cost_names.load(std::memory_order_acquire);
    if (names == nullptr || kind >= n)
        return nullptr;
    return names[kind];
}

const char *
tierLabel(std::uint8_t tier)
{
    // Indices mirror mem::MemType (FastMem=0, SlowMem=1, MediumMem=2);
    // prof cannot include mem without inverting the layering.
    switch (tier) {
      case 0:
        return "fast";
      case 1:
        return "slow";
      case 2:
        return "medium";
      default:
        return "-";
    }
}

std::uint64_t
ProfileReport::simTotalForKind(const std::string &kind) const
{
    std::uint64_t total = 0;
    for (const ProfileEntry &e : entries) {
        if (e.kind == kind)
            total += e.sim_ns;
    }
    return total;
}

std::map<std::string, std::uint64_t>
ProfileReport::kindTotals() const
{
    std::map<std::string, std::uint64_t> totals;
    for (const ProfileEntry &e : entries) {
        if (e.kind != "-")
            totals[e.kind] += e.sim_ns;
    }
    return totals;
}

std::uint64_t
ProfileReport::simGrandTotal() const
{
    std::uint64_t total = 0;
    for (const ProfileEntry &e : entries) {
        if (e.kind != "-")
            total += e.sim_ns;
    }
    return total;
}

Profiler::Profiler()
{
    // Exporters turn SpanBegin/SpanEnd a0 back into span names
    // through this hook — trace sits below prof and cannot name
    // SpanKind itself.
    trace::setSpanNameResolver(&spanNameResolver);
}

void
Profiler::clear()
{
    nodes_.clear();
    children_.clear();
    stack_.clear();
    cells_.clear();
    spans_opened_ = 0;
    spans_closed_ = 0;
    syncStats();
}

std::uint32_t
Profiler::beginSpan(SpanKind kind, sim::Tick now, std::uint16_t vm,
                    std::uint8_t tier)
{
    const std::uint32_t parent =
        stack_.empty() ? noNode : stack_.back().node;
    const auto key =
        std::make_pair(parent, static_cast<std::uint8_t>(kind));
    auto it = children_.find(key);
    std::uint32_t node;
    if (it == children_.end()) {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({parent, kind});
        children_.emplace(key, node);
    } else {
        node = it->second;
    }
    stack_.push_back({node, vm, tier});
    ++spans_opened_;
    ++cells_[CellKey{node, vm, tier, noCostKind}].count;
    trace::emit(trace::EventType::SpanBegin, now,
                static_cast<std::uint64_t>(kind), stack_.size(), 0, 0,
                vm);
    return node;
}

void
Profiler::endSpan(sim::Tick now, std::uint64_t host_ns)
{
    if (stack_.empty())
        return; // imbalance; auditProf reports it at run end
    const Frame f = stack_.back();
    stack_.pop_back();
    ++spans_closed_;
    if (host_ns > 0)
        cells_[CellKey{f.node, f.vm, f.tier, noCostKind}].host_ns +=
            host_ns;
    trace::emit(trace::EventType::SpanEnd, now,
                static_cast<std::uint64_t>(nodes_[f.node].kind),
                stack_.size() + 1, 0, 0, f.vm);
}

void
Profiler::recordCharge(std::uint8_t cost_kind, sim::Duration d)
{
    CellKey key{noNode, 0, noTier, cost_kind};
    if (!stack_.empty()) {
        const Frame &f = stack_.back();
        key.node = f.node;
        key.vm = f.vm;
        key.tier = f.tier;
    }
    Cell &c = cells_[key];
    ++c.count;
    c.sim_ns += d;
}

void
Profiler::syncStats()
{
    stats_.gauge("span_depth").set(
        static_cast<std::int64_t>(stack_.size()));
    stats_.gauge("live_spans").set(
        static_cast<std::int64_t>(spans_opened_ - spans_closed_));
    stats_.counter("spans_opened").set(spans_opened_);
    stats_.counter("spans_closed").set(spans_closed_);
}

std::string
Profiler::pathOf(std::uint32_t node) const
{
    if (node == noNode)
        return "(unattributed)";
    // Climb to the root collecting kinds, then join outermost-first.
    std::vector<SpanKind> kinds;
    for (std::uint32_t n = node; n != noNode; n = nodes_[n].parent)
        kinds.push_back(nodes_[n].kind);
    std::string path;
    for (auto it = kinds.rbegin(); it != kinds.rend(); ++it) {
        if (!path.empty())
            path += ';';
        path += spanKindName(*it);
    }
    return path;
}

ProfileReport
Profiler::report() const
{
    ProfileReport rep;
    rep.entries.reserve(cells_.size());
    for (const auto &[key, cell] : cells_) {
        ProfileEntry e;
        e.path = pathOf(key.node);
        e.vm = key.vm;
        e.tier = tierLabel(key.tier);
        if (key.cost_kind == noCostKind) {
            e.kind = "-";
        } else if (const char *name = costKindName(key.cost_kind)) {
            e.kind = name;
        } else {
            e.kind = "kind" + std::to_string(key.cost_kind);
        }
        e.count = cell.count;
        e.sim_ns = cell.sim_ns;
        e.host_ns = cell.host_ns;
        rep.entries.push_back(std::move(e));
    }
    // Sort by labels, not intern order, so two runs that discovered
    // the same cells in different orders export identical reports.
    std::sort(rep.entries.begin(), rep.entries.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.vm != b.vm)
                      return a.vm < b.vm;
                  if (a.tier != b.tier)
                      return a.tier < b.tier;
                  return a.kind < b.kind;
              });
    return rep;
}

} // namespace hos::prof
