#include "trace/trace.hh"

#include <array>
#include <atomic>

#include "sim/log.hh"

namespace hos::trace {

namespace {

constexpr std::array<EventTypeInfo, numEventTypes> kEventInfo = {{
    {"page_alloc", Category::Alloc, "page_type", "pfn", "tier"},
    {"page_free", Category::Alloc, "pfn", "tier", ""},
    {"migration_start", Category::Migration, "candidates", "dst_tier",
     ""},
    {"migration_complete", Category::Migration, "migrated", "skipped",
     "dst_tier"},
    {"hotness_scan", Category::Scan, "scanned", "accessed", "hot"},
    {"lru_reclaim", Category::Scan, "target", "freed", "scanned"},
    {"balloon_inflate", Category::Balloon, "tier", "asked",
     "surrendered"},
    {"balloon_deflate", Category::Balloon, "tier", "asked", "granted"},
    {"balloon_reclaim", Category::Balloon, "victim_vm", "tier", "freed"},
    {"swap_out", Category::Swap, "pages", "swap_used", ""},
    {"swap_in", Category::Swap, "pages", "swap_used", ""},
    {"hypercall_populate", Category::Hypercall, "guest_node", "asked",
     "granted"},
    {"hypercall_unpopulate", Category::Hypercall, "guest_node", "pages",
     ""},
    {"drf_reclaim", Category::Fairness, "victim_vm", "tier",
     "reclaimed"},
    {"device_batch", Category::Device, "loads", "stores", "bytes"},
    {"stats_snapshot", Category::Stats, "index", "groups", ""},
    {"check_failure", Category::Check, "kind", "subject", ""},
    {"span_begin", Category::Prof, "kind", "depth", ""},
    {"span_end", Category::Prof, "kind", "depth", ""},
    {"xray_hot_cross", Category::Xray, "gpfn", "heat", "threshold"},
    {"xray_move", Category::Xray, "kind", "gpfn", "heat"},
    {"xray_ping_pong", Category::Xray, "gpfn", "bounces", "gap_ns"},
    {"xray_decision", Category::Xray, "kind", "a0", "a1"},
}};

/**
 * Span-name hook registered by hos::prof (atomic: sweep workers may
 * construct profilers while another thread exports a trace).
 */
std::atomic<const char *(*)(std::uint64_t)> g_span_resolver{nullptr};

struct CategoryName
{
    const char *name;
    Category cat;
};

constexpr CategoryName kCategoryNames[] = {
    {"alloc", Category::Alloc},         {"migration", Category::Migration},
    {"scan", Category::Scan},           {"balloon", Category::Balloon},
    {"swap", Category::Swap},           {"hypercall", Category::Hypercall},
    {"fairness", Category::Fairness},   {"device", Category::Device},
    {"stats", Category::Stats},         {"check", Category::Check},
    {"prof", Category::Prof},           {"xray", Category::Xray},
};

} // namespace

const EventTypeInfo &
eventTypeInfo(EventType t)
{
    const auto i = static_cast<std::size_t>(t);
    hos_assert(i < kEventInfo.size(), "bad event type %zu", i);
    return kEventInfo[i];
}

const char *
categoryName(Category single_bit)
{
    for (const auto &e : kCategoryNames) {
        if (e.cat == single_bit)
            return e.name;
    }
    return "?";
}

void
setSpanNameResolver(const char *(*resolver)(std::uint64_t))
{
    g_span_resolver.store(resolver, std::memory_order_release);
}

const char *
spanName(std::uint64_t kind)
{
    if (auto *resolver = g_span_resolver.load(std::memory_order_acquire))
        return resolver(kind);
    return nullptr;
}

std::uint32_t
parseCategories(const std::string &csv)
{
    if (csv.empty())
        return static_cast<std::uint32_t>(Category::All);

    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all") {
            mask |= static_cast<std::uint32_t>(Category::All);
            continue;
        }
        bool found = false;
        for (const auto &e : kCategoryNames) {
            if (name == e.name) {
                mask |= static_cast<std::uint32_t>(e.cat);
                found = true;
                break;
            }
        }
        if (!found)
            sim::warn("unknown trace category '%s'", name.c_str());
    }
    return mask;
}

void
Tracer::enable(std::uint32_t mask)
{
    mask_ = mask;
    if (mask != 0 && ring_.capacity() < capacity_)
        ring_.reserve(capacity_);
}

void
Tracer::disable()
{
    mask_ = 0;
}

void
Tracer::setCapacity(std::size_t capacity)
{
    hos_assert(capacity > 0, "trace ring needs capacity");
    capacity_ = capacity;
    clear();
}

void
Tracer::clear()
{
    ring_.clear();
    ring_.shrink_to_fit();
    head_ = 0;
    recorded_ = 0;
}

void
Tracer::record(EventType type, sim::Tick ts, std::uint64_t a0,
               std::uint64_t a1, std::uint64_t a2, sim::Duration dur,
               std::uint16_t vm)
{
    Record r;
    r.ts = ts;
    r.dur = dur;
    r.type = type;
    r.vm = vm;
    r.seq = static_cast<std::uint32_t>(recorded_);
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    if (ring_.size() < capacity_) {
        ring_.push_back(r);
    } else {
        // Full: overwrite the oldest record.
        ring_[head_] = r;
        head_ = (head_ + 1) % capacity_;
    }
    ++recorded_;
}

void
Tracer::forEach(const std::function<void(const Record &)> &fn) const
{
    if (ring_.size() < capacity_) {
        for (const Record &r : ring_)
            fn(r);
        return;
    }
    // Wrapped: head_ is the oldest record.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        fn(ring_[(head_ + i) % ring_.size()]);
}

} // namespace hos::trace
