/**
 * @file
 * Declarative experiment scenarios.
 *
 * A Scenario is a plain value describing one complete experiment:
 * host tiers (FastMem capacity, SlowMem throttle factors or an
 * explicit tier spec), the shared LLC, guest sizing, the management
 * approach under test, and the workload. Benches and tests build one
 * Scenario and hand it to core::run() or a core::Sweep.
 *
 * Scenarios are fluently buildable,
 *
 *   auto s = core::Scenario{}
 *                .withApp(workload::AppId::Redis)
 *                .withApproach(core::Approach::Coordinated)
 *                .withThrottle(5.0, 9.0)
 *                .withScale(0.3);
 *
 * serializable to JSON, and loadable from a JSON scenario file (see
 * DESIGN.md "Scenario & Sweep API" for the schema). Every field has
 * the paper's Section 5.1 defaults, so `{}` is the standard testbed.
 */

#ifndef HOS_CORE_SCENARIO_HH
#define HOS_CORE_SCENARIO_HH

#include <optional>
#include <string>

#include "core/hetero_system.hh"
#include "sim/json.hh"
#include "vmm/hotness_tracker.hh"
#include "workload/apps.hh"

namespace hos::core {

/** The evaluated management approaches. */
enum class Approach {
    SlowMemOnly,
    FastMemOnly,
    Random,
    NumaPreferred,
    HeapOd,
    HeapIoSlabOd,
    HeteroLru,
    VmmExclusive,
    Coordinated,
};

constexpr Approach allApproaches[] = {
    Approach::SlowMemOnly, Approach::FastMemOnly, Approach::Random,
    Approach::NumaPreferred, Approach::HeapOd, Approach::HeapIoSlabOd,
    Approach::HeteroLru, Approach::VmmExclusive, Approach::Coordinated,
};

/** Human-readable name ("HeteroOS-coordinated"), used in reports. */
const char *approachName(Approach a);

/** Stable short key ("coord"), used by the CLI and scenario JSON. */
const char *approachKey(Approach a);
std::optional<Approach> parseApproach(const std::string &key);

/** Stable short key ("graphchi") for an application. */
const char *appKey(workload::AppId id);
std::optional<workload::AppId> parseApp(const std::string &key);

/**
 * Structured hotness-tracking selection and tuning — the scenario's
 * `hotness` JSON object and the `hotness.*` sweep-axis keys.
 *
 * Every knob is optional: an unset field keeps the approach's own
 * default (VMM-exclusive and coordinated ship different scan budgets
 * and per-PTE costs), so `{}` changes nothing and a spec carrying only
 * `backend` swaps the tracker without disturbing the approach tuning.
 */
struct HotnessSpec
{
    /** Tracker backend key: "pte_scan" (default) or "region". */
    std::string backend = "pte_scan";

    std::optional<double> interval_ms;
    std::optional<std::uint64_t> pages_per_scan;
    std::optional<std::uint32_t> hot_threshold;
    std::optional<bool> adaptive;

    // Region-backend knobs (see vmm::HotnessConfig for semantics).
    std::optional<std::uint32_t> region_min;
    std::optional<std::uint32_t> region_max;
    std::optional<std::uint32_t> region_probes;
    std::optional<std::uint64_t> region_min_pages;
    std::optional<double> region_split_threshold;
    std::optional<std::uint32_t> region_merge_heat_delta;

    /** True when nothing deviates from the defaults (JSON elision). */
    bool isDefault() const;

    /** Overlay the set fields onto an approach's base config. */
    vmm::HotnessConfig apply(vmm::HotnessConfig base) const;
};

/**
 * One complete experiment description. Field defaults encode the
 * paper's Section 5.1 testbed: 4 GiB DRAM FastMem, 8 GiB L:5,B:9
 * throttled SlowMem, 16 MiB LLC, HeteroOS-LRU on GraphChi.
 */
struct Scenario
{
    workload::AppId app = workload::AppId::GraphChi;
    Approach approach = Approach::HeteroLru;

    /** SlowMem throttle factors (Table 3), ignored if slow_override. */
    double slow_lat_factor = 5.0;
    double slow_bw_factor = 9.0;

    std::uint64_t fast_bytes = 4 * mem::gib;
    std::uint64_t slow_bytes = 8 * mem::gib;

    /** LLC: 16 MiB (Fig. 1 testbed) or 48 MiB (Fig. 2 emulator). */
    std::uint64_t llc_bytes = 16 * mem::mib;

    /** Workload scale (tests use small values; benches 1.0). */
    double scale = 1.0;
    std::uint64_t seed = 1;
    unsigned cpus = 16;

    /**
     * Replace the throttled SlowMem with an explicit tier spec (NVM,
     * remote NUMA, 3D-stacked...). Capacity still comes from
     * slow_bytes. nullopt — the common case — means "derive the tier
     * from the throttle factors".
     */
    std::optional<mem::MemTierSpec> slow_override;

    /**
     * Hotness-tracking backend selection and tuning. The default spec
     * is "whatever the approach would do on its own" — serialized
     * scenarios only carry it when something was overridden.
     */
    HotnessSpec hotness;

    /**
     * Enable hos::prof span profiling for the run: the system gets a
     * per-run attribution ledger and the resulting ProfileReport is
     * embedded into the RunRecord. Simulation output is bit-identical
     * either way (profiling observes charges, never creates them).
     */
    bool profiling = false;

    /**
     * Enable hos::xray placement telemetry for the run: the system
     * shadows every page's (heat, tier), records migration decision
     * provenance, and embeds the resulting XrayReport into the
     * RunRecord. Simulation output is bit-identical either way (xray
     * observes decisions, never makes them).
     */
    bool xray = false;

    /**
     * Enable windowed metrics (HeteroSystem::enableMetrics) and embed
     * the hos-metrics-1 section in the RunRecord. Simulation output is
     * bit-identical either way (sampling observes, never steers).
     */
    bool metrics = false;

    /** Optional label carried into results ("" = derived). */
    std::string name;

    // --- Fluent builder --------------------------------------------
    Scenario &withApp(workload::AppId a) { app = a; return *this; }
    Scenario &withApproach(Approach a) { approach = a; return *this; }
    Scenario &withThrottle(double lat, double bw)
    {
        slow_lat_factor = lat;
        slow_bw_factor = bw;
        return *this;
    }
    Scenario &withFastBytes(std::uint64_t b) { fast_bytes = b; return *this; }
    Scenario &withSlowBytes(std::uint64_t b) { slow_bytes = b; return *this; }
    Scenario &withCapacity(std::uint64_t fast, std::uint64_t slow)
    {
        fast_bytes = fast;
        slow_bytes = slow;
        return *this;
    }
    Scenario &withLlcBytes(std::uint64_t b) { llc_bytes = b; return *this; }
    Scenario &withScale(double s) { scale = s; return *this; }
    Scenario &withSeed(std::uint64_t s) { seed = s; return *this; }
    Scenario &withCpus(unsigned n) { cpus = n; return *this; }
    Scenario &withSlowSpec(mem::MemTierSpec spec)
    {
        slow_override = std::move(spec);
        return *this;
    }
    Scenario &withHotness(HotnessSpec spec)
    {
        hotness = std::move(spec);
        return *this;
    }
    Scenario &withHotnessBackend(std::string backend)
    {
        hotness.backend = std::move(backend);
        return *this;
    }
    Scenario &withProfiling(bool on = true)
    {
        profiling = on;
        return *this;
    }
    Scenario &withXray(bool on = true)
    {
        xray = on;
        return *this;
    }
    Scenario &withMetrics(bool on = true)
    {
        metrics = on;
        return *this;
    }
    Scenario &withName(std::string n) { name = std::move(n); return *this; }

    // --- Derived configuration -------------------------------------

    /** The host hardware this scenario describes. */
    HostConfig host() const;

    /** The guest VM sizing this scenario describes. */
    GuestSizing sizing() const;

    /** `name`, or "app/approach" when no label was given. */
    std::string label() const;
};

/** Serialize (stable field order; byte sizes as exact integers). */
void scenarioToJson(sim::JsonWriter &w, const Scenario &s);
std::string scenarioToJson(const Scenario &s);

/**
 * Deserialize; unset keys keep their defaults, unknown keys and
 * ill-typed values fail with a message in `error`.
 */
std::optional<Scenario> scenarioFromJson(const sim::JsonValue &v,
                                         std::string *error = nullptr);

/** Load a scenario file (JSON with // comments, trailing commas OK). */
std::optional<Scenario> loadScenario(const std::string &path,
                                     std::string *error = nullptr);

/**
 * Set one field by its JSON key from a scalar's text ("approach" =
 * "coord", "slow_lat_factor" = "5", "seed" = "42"...). The engine
 * behind sweep axes and the run_sweep --set flag. Returns false (with
 * `error`) for unknown keys or unparseable values.
 */
bool applyScenarioParam(Scenario &s, const std::string &key,
                        const std::string &value,
                        std::string *error = nullptr);

} // namespace hos::core

#endif // HOS_CORE_SCENARIO_HH
