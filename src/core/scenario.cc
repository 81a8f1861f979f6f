#include "core/scenario.hh"

#include <cstdlib>
#include <sstream>

#include "sim/log.hh"

namespace hos::core {

namespace {

struct ApproachEntry
{
    Approach a;
    const char *key;  ///< CLI / JSON key
    const char *name; ///< display name
};

constexpr ApproachEntry kApproaches[] = {
    {Approach::SlowMemOnly, "slow", "SlowMem-only"},
    {Approach::FastMemOnly, "fast", "FastMem-only"},
    {Approach::Random, "random", "Random"},
    {Approach::NumaPreferred, "numa", "NUMA-preferred"},
    {Approach::HeapOd, "heap-od", "Heap-OD"},
    {Approach::HeapIoSlabOd, "od", "Heap-IO-Slab-OD"},
    {Approach::HeteroLru, "lru", "HeteroOS-LRU"},
    {Approach::VmmExclusive, "vmm", "VMM-exclusive"},
    {Approach::Coordinated, "coord", "HeteroOS-coordinated"},
};

struct AppEntry
{
    workload::AppId id;
    const char *key;
};

constexpr AppEntry kApps[] = {
    {workload::AppId::GraphChi, "graphchi"},
    {workload::AppId::XStream, "xstream"},
    {workload::AppId::Metis, "metis"},
    {workload::AppId::LevelDb, "leveldb"},
    {workload::AppId::Redis, "redis"},
    {workload::AppId::Nginx, "nginx"},
};

bool
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/** Parse a non-negative number from scalar text (axis values, --set). */
bool
parseNumber(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

/**
 * Exact u64 from scalar text. Plain digit strings go through
 * strtoull — a double round-trip would corrupt 1 TiB byte counts and
 * derived 64-bit seeds — while "4e9"-style texts take the double
 * path.
 */
std::uint64_t
exactU64(const std::string &text, double num)
{
    if (!text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos)
        return std::strtoull(text.c_str(), nullptr, 10);
    return static_cast<std::uint64_t>(num);
}

bool
parseBool(const std::string &value, bool &out)
{
    if (value == "true" || value == "1") {
        out = true;
        return true;
    }
    if (value == "false" || value == "0") {
        out = false;
        return true;
    }
    return false;
}

/**
 * Reject a non-numeric value for `key`. An unknown key is reported as
 * such (probing with a valid number), so a retired key never reads as
 * a bad value.
 */
bool
badNumber(const std::string &key, const std::string &value,
          std::string *error)
{
    Scenario probe;
    if (!applyScenarioParam(probe, key, "0", error))
        return false;
    return setError(error, "bad value '" + value + "' for '" + key + "'");
}

} // namespace

bool
HotnessSpec::isDefault() const
{
    return backend == "pte_scan" && !interval_ms && !pages_per_scan &&
           !hot_threshold && !adaptive && !region_min && !region_max &&
           !region_probes && !region_min_pages &&
           !region_split_threshold && !region_merge_heat_delta;
}

vmm::HotnessConfig
HotnessSpec::apply(vmm::HotnessConfig base) const
{
    const auto b = vmm::parseHotnessBackend(backend);
    // Unknown backend strings are rejected at parse time
    // (applyScenarioParam); a hand-built spec gets the same check here.
    if (!b)
        sim::panic("unknown hotness backend '%s'", backend.c_str());
    base.backend = *b;
    if (interval_ms)
        base.interval = sim::milliseconds(*interval_ms);
    if (pages_per_scan)
        base.pages_per_scan = *pages_per_scan;
    if (hot_threshold)
        base.hot_threshold = static_cast<std::uint16_t>(*hot_threshold);
    if (adaptive)
        base.adaptive = *adaptive;
    if (region_min)
        base.region_min = *region_min;
    if (region_max)
        base.region_max = *region_max;
    if (region_probes)
        base.region_probes = *region_probes;
    if (region_min_pages)
        base.region_min_pages = *region_min_pages;
    if (region_split_threshold)
        base.region_split_threshold = *region_split_threshold;
    if (region_merge_heat_delta) {
        base.region_merge_heat_delta =
            static_cast<std::uint16_t>(*region_merge_heat_delta);
    }
    return base;
}

const char *
approachName(Approach a)
{
    for (const auto &e : kApproaches) {
        if (e.a == a)
            return e.name;
    }
    return "?";
}

const char *
approachKey(Approach a)
{
    for (const auto &e : kApproaches) {
        if (e.a == a)
            return e.key;
    }
    return "?";
}

std::optional<Approach>
parseApproach(const std::string &key)
{
    for (const auto &e : kApproaches) {
        if (key == e.key)
            return e.a;
    }
    return std::nullopt;
}

const char *
appKey(workload::AppId id)
{
    for (const auto &e : kApps) {
        if (e.id == id)
            return e.key;
    }
    return "?";
}

std::optional<workload::AppId>
parseApp(const std::string &key)
{
    for (const auto &e : kApps) {
        if (key == e.key)
            return e.id;
    }
    return std::nullopt;
}

HostConfig
Scenario::host() const
{
    HostConfig host;
    host.llc.size_bytes = llc_bytes;

    if (approach == Approach::FastMemOnly) {
        // Ideal baseline: FastMem with unlimited capacity.
        host.fast =
            mem::dramSpec(fast_bytes + slow_bytes + 8 * mem::gib);
        host.has_slow = false;
        return host;
    }

    host.fast = mem::dramSpec(fast_bytes);
    if (slow_override) {
        host.slow = *slow_override;
        host.slow.capacity_bytes = slow_bytes;
    } else {
        host.slow = mem::throttledSpec(slow_lat_factor, slow_bw_factor,
                                       slow_bytes);
    }
    if (approach == Approach::SlowMemOnly) {
        // The naive floor never touches FastMem; don't even give the
        // guest a fast node.
        host.has_fast = false;
    }
    return host;
}

GuestSizing
Scenario::sizing() const
{
    GuestSizing sizing;
    sizing.seed = seed;
    sizing.cpus = cpus;
    return sizing;
}

std::string
Scenario::label() const
{
    if (!name.empty())
        return name;
    return std::string(appKey(app)) + "/" + approachKey(approach);
}

void
scenarioToJson(sim::JsonWriter &w, const Scenario &s)
{
    w.beginObject();
    w.kv("app", appKey(s.app));
    w.kv("approach", approachKey(s.approach));
    w.kv("slow_lat_factor", s.slow_lat_factor);
    w.kv("slow_bw_factor", s.slow_bw_factor);
    // Byte sizes go through the integer path: %.12g would corrupt
    // counts past a terabyte.
    w.kv("fast_bytes", s.fast_bytes);
    w.kv("slow_bytes", s.slow_bytes);
    w.kv("llc_bytes", s.llc_bytes);
    w.kv("scale", s.scale);
    w.kv("seed", s.seed);
    w.kv("cpus", static_cast<std::uint64_t>(s.cpus));
    // Emitted only when set so existing scenario JSON stays stable.
    if (!s.hotness.isDefault()) {
        const HotnessSpec &h = s.hotness;
        w.key("hotness");
        w.beginObject();
        if (h.backend != "pte_scan")
            w.kv("backend", h.backend);
        if (h.interval_ms)
            w.kv("interval_ms", *h.interval_ms);
        if (h.pages_per_scan)
            w.kv("pages_per_scan", *h.pages_per_scan);
        if (h.hot_threshold)
            w.kv("hot_threshold",
                 static_cast<std::uint64_t>(*h.hot_threshold));
        if (h.adaptive)
            w.kv("adaptive", *h.adaptive);
        if (h.region_min)
            w.kv("region_min",
                 static_cast<std::uint64_t>(*h.region_min));
        if (h.region_max)
            w.kv("region_max",
                 static_cast<std::uint64_t>(*h.region_max));
        if (h.region_probes)
            w.kv("region_probes",
                 static_cast<std::uint64_t>(*h.region_probes));
        if (h.region_min_pages)
            w.kv("region_min_pages", *h.region_min_pages);
        if (h.region_split_threshold)
            w.kv("region_split_threshold", *h.region_split_threshold);
        if (h.region_merge_heat_delta)
            w.kv("region_merge_heat_delta",
                 static_cast<std::uint64_t>(*h.region_merge_heat_delta));
        w.endObject();
    }
    if (s.profiling)
        w.kv("profiling", true);
    if (s.xray)
        w.kv("xray", true);
    if (s.metrics)
        w.kv("metrics", true);
    if (!s.name.empty())
        w.kv("name", s.name);
    if (s.slow_override) {
        w.key("slow_override");
        w.beginObject();
        w.kv("name", s.slow_override->name);
        w.kv("load_latency_ns", s.slow_override->load_latency_ns);
        w.kv("store_latency_ns", s.slow_override->store_latency_ns);
        w.kv("bandwidth_gbps", s.slow_override->bandwidth_gbps);
        w.endObject();
    }
    w.endObject();
}

std::string
scenarioToJson(const Scenario &s)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    scenarioToJson(w, s);
    return os.str();
}

std::optional<Scenario>
scenarioFromJson(const sim::JsonValue &v, std::string *error)
{
    if (!v.isObject()) {
        setError(error, "scenario must be a JSON object");
        return std::nullopt;
    }

    Scenario s;
    for (const auto &[key, val] : v.object) {
        if (key == "slow_override") {
            if (!val.isObject()) {
                setError(error, "slow_override must be an object");
                return std::nullopt;
            }
            mem::MemTierSpec spec;
            spec.name = "custom";
            if (const auto *p = val.find("name"))
                spec.name = p->asString(spec.name);
            if (const auto *p = val.find("load_latency_ns"))
                spec.load_latency_ns = p->asDouble(spec.load_latency_ns);
            if (const auto *p = val.find("store_latency_ns"))
                spec.store_latency_ns =
                    p->asDouble(spec.store_latency_ns);
            if (const auto *p = val.find("bandwidth_gbps"))
                spec.bandwidth_gbps = p->asDouble(spec.bandwidth_gbps);
            s.slow_override = spec;
            continue;
        }
        if (key == "hotness") {
            if (!val.isObject()) {
                setError(error, "hotness must be an object");
                return std::nullopt;
            }
            for (const auto &[hkey, hval] : val.object) {
                std::string perr;
                if (!applyScenarioParam(s, "hotness." + hkey,
                                        hval.scalarText(), &perr)) {
                    setError(error, perr);
                    return std::nullopt;
                }
            }
            continue;
        }
        std::string perr;
        if (!applyScenarioParam(s, key, val.scalarText(), &perr)) {
            setError(error, perr);
            return std::nullopt;
        }
    }
    return s;
}

std::optional<Scenario>
loadScenario(const std::string &path, std::string *error)
{
    const auto doc = sim::jsonParseFile(path, error);
    if (!doc)
        return std::nullopt;
    return scenarioFromJson(*doc, error);
}

bool
applyScenarioParam(Scenario &s, const std::string &key,
                   const std::string &value, std::string *error)
{
    if (key == "app") {
        const auto id = parseApp(value);
        if (!id)
            return setError(error, "unknown app '" + value + "'");
        s.app = *id;
        return true;
    }
    if (key == "approach") {
        const auto a = parseApproach(value);
        if (!a)
            return setError(error, "unknown approach '" + value + "'");
        s.approach = *a;
        return true;
    }
    if (key == "name") {
        s.name = value;
        return true;
    }
    // --- Structured hotness spec (dotted keys = sweep axes) --------
    if (key.rfind("hotness.", 0) == 0) {
        const std::string sub = key.substr(8);
        HotnessSpec &h = s.hotness;
        if (sub == "backend") {
            if (!vmm::parseHotnessBackend(value)) {
                return setError(error, "unknown hotness backend '" +
                                           value + "'");
            }
            h.backend = value;
            return true;
        }
        if (sub == "adaptive") {
            bool on = false;
            if (!parseBool(value, on)) {
                return setError(
                    error, "bad value '" + value + "' for '" + key + "'");
            }
            h.adaptive = on;
            return true;
        }
        double num = 0.0;
        if (!parseNumber(value, num))
            return badNumber(key, value, error);
        if (sub == "interval_ms") {
            h.interval_ms = num;
        } else if (sub == "pages_per_scan") {
            h.pages_per_scan = exactU64(value, num);
        } else if (sub == "hot_threshold") {
            h.hot_threshold = static_cast<std::uint32_t>(num);
        } else if (sub == "region_min") {
            h.region_min = static_cast<std::uint32_t>(num);
        } else if (sub == "region_max") {
            h.region_max = static_cast<std::uint32_t>(num);
        } else if (sub == "region_probes") {
            h.region_probes = static_cast<std::uint32_t>(num);
        } else if (sub == "region_min_pages") {
            h.region_min_pages = exactU64(value, num);
        } else if (sub == "region_split_threshold") {
            h.region_split_threshold = num;
        } else if (sub == "region_merge_heat_delta") {
            h.region_merge_heat_delta = static_cast<std::uint32_t>(num);
        } else {
            return setError(error,
                            "unknown hotness key '" + sub + "'");
        }
        return true;
    }

    if (key == "profiling") {
        if (value == "true" || value == "1") {
            s.profiling = true;
        } else if (value == "false" || value == "0") {
            s.profiling = false;
        } else {
            return setError(error,
                            "bad value '" + value + "' for 'profiling'");
        }
        return true;
    }
    if (key == "xray") {
        if (value == "true" || value == "1") {
            s.xray = true;
        } else if (value == "false" || value == "0") {
            s.xray = false;
        } else {
            return setError(error,
                            "bad value '" + value + "' for 'xray'");
        }
        return true;
    }
    if (key == "metrics") {
        if (value == "true" || value == "1") {
            s.metrics = true;
        } else if (value == "false" || value == "0") {
            s.metrics = false;
        } else {
            return setError(error,
                            "bad value '" + value + "' for 'metrics'");
        }
        return true;
    }

    double num = 0.0;
    if (!parseNumber(value, num))
        return badNumber(key, value, error);
    const auto bytes = [&]() { return exactU64(value, num); };
    if (key == "slow_lat_factor" || key == "slow_lat") {
        s.slow_lat_factor = num;
    } else if (key == "slow_bw_factor" || key == "slow_bw") {
        s.slow_bw_factor = num;
    } else if (key == "fast_bytes") {
        s.fast_bytes = bytes();
    } else if (key == "slow_bytes") {
        s.slow_bytes = bytes();
    } else if (key == "llc_bytes") {
        s.llc_bytes = bytes();
    } else if (key == "scale") {
        s.scale = num;
    } else if (key == "seed") {
        s.seed = bytes();
    } else if (key == "cpus") {
        s.cpus = static_cast<unsigned>(num);
    } else {
        return setError(error, "unknown scenario key '" + key + "'");
    }
    return true;
}

} // namespace hos::core
