/**
 * @file
 * hos::xray — placement-quality telemetry and migration decision
 * provenance.
 *
 * trace says *what happened* and prof says *what it cost*; xray says
 * *how good placement is right now* and *why a page landed where it
 * did*. A Recorder mirrors every live page's (heat, tier) as the
 * hooks fire and keeps three products incrementally up to date:
 *
 *  1. Placement-quality aggregates per VM and per tier: page counts,
 *     hot-page counts (heat >= the tracker's hot_threshold), heat
 *     mass and hot-heat mass — from which misplaced-hotness mass
 *     (hot-in-slow) and cold-in-fast fractions fall out.
 *  2. Promotion/demotion lag histograms (sim-ns from first crossing
 *     hot_threshold in a slow tier to the promoting remap, and from
 *     going cold in the fast tier to the demoting remap) plus a
 *     ping-pong detector for pages bouncing fast<->slow within a
 *     configurable window.
 *  3. Bounded per-page lifecycle rings of decision records — each
 *     promote/demote/skip with its policy inputs (EWMA heat,
 *     threshold, candidate rank, DRF shares, throttle state),
 *     alongside alloc/free/writeback/swap/balloon transitions.
 *
 * Design constraints mirror hos::prof:
 *  1. Zero cost when compiled out: HOS_XRAY_LEVEL=0 makes active()
 *     constant-null so every hook call folds away.
 *  2. Deterministic: only sim ticks and integer page state; the
 *     report serializes bit-identically across runs.
 *  3. Bit-identical simulation: xray observes decisions, it never
 *     makes them. Golden-determinism tests compare xray-on/off runs.
 *  4. Isolation: hooks feed the recorder of the calling thread's
 *     obs::Session (trace/session.hh), which keeps parallel sweep
 *     points apart.
 *
 * Layering: xray sits between trace and guestos (like prof), so it
 * cannot name guestos or mem types. Tiers cross the boundary as
 * plain indices mirroring mem::MemType (FastMem=0, SlowMem=1,
 * MediumMem=2); gpfns and VM ids as integers.
 */

#ifndef HOS_XRAY_XRAY_HH
#define HOS_XRAY_XRAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "sim/time.hh"
#include "trace/session.hh"

#ifndef HOS_XRAY_LEVEL
#define HOS_XRAY_LEVEL 1
#endif

namespace hos::xray {

/** Compile-time xray level (CMake HOS_XRAY=off/sampled/full). */
constexpr int compiledLevel = HOS_XRAY_LEVEL;
/** Hooks and metrics compiled in (level >= 1). */
constexpr bool xrayCompiled = HOS_XRAY_LEVEL >= 1;
/** Provenance rings default to every page (level >= 2). */
constexpr bool fullXrayCompiled = HOS_XRAY_LEVEL >= 2;

/** "off", "sampled", or "full". */
const char *levelName();

/** Tier index values mirror mem::MemType; noTier = not live. */
constexpr std::uint8_t fastTier = 0;   ///< mem::MemType::FastMem
constexpr std::uint8_t slowTier = 1;   ///< mem::MemType::SlowMem
constexpr std::uint8_t mediumTier = 2; ///< mem::MemType::MediumMem
constexpr std::size_t numTiers = 3;
constexpr std::uint8_t noTier = 0xff;

/** Short tier label ("fast"/"slow"/"medium"; "-" for noTier). */
const char *tierName(std::uint8_t tier);

/**
 * Speed rank of a tier: 0 fastest. MemType's numeric order is not
 * speed order (Medium sits between Fast and Slow); promotions are
 * moves to a lower rank.
 */
constexpr unsigned
tierRank(std::uint8_t tier)
{
    if (tier == fastTier)
        return 0;
    if (tier == mediumTier)
        return 1;
    return 2;
}

/** Sentinel gpfn for VM-level events (DRF, throttle, balloon). */
constexpr std::uint64_t noGpfn = ~std::uint64_t(0);

/**
 * The decision/transition taxonomy recorded into lifecycle rings.
 * Skip kinds mirror the migration frontend's skip taxonomy plus the
 * VMM engine's no-frames / victim-hotter / budget cuts.
 */
enum class EventKind : std::uint8_t {
    Alloc = 0,     ///< page became live (tier_to = landing tier)
    Free,          ///< page released (heat resets with the frame)
    HotCross,      ///< heat crossed hot_threshold upward
    Cooled,        ///< heat dropped below hot_threshold
    Promote,       ///< remapped to a faster tier
    Demote,        ///< remapped to a slower tier
    SkipUnmapped,  ///< guest skip: released/remapped since selection
    SkipUnderIo,   ///< guest skip: in-flight I/O
    SkipDirtyIo,   ///< guest skip: dirty short-lived I/O page
    SkipPinned,    ///< guest skip: unmigratable type / unevictable
    SkipNoMemory,  ///< guest skip: target node allocation failed
    SkipNoFrames,  ///< VMM skip: no free frame on the target tier
    SkipVictimHot, ///< VMM skip: coldest victim at least as hot
    SkipBudget,    ///< candidate dropped by the rate-limit budget
    DrfReclaim,    ///< DRF reclaimed frames (VM-level record)
    Throttle,      ///< migration batch truncated to the budget
    Writeback,     ///< dirty page written back
    SwapOut,       ///< swapped out under balloon pressure
    BalloonOut,    ///< frames surrendered to the balloon (VM-level)
};

constexpr std::size_t numEventKinds = 19;

/** Stable lower-case name ("hot_cross"), used in JSON and the CLI. */
const char *eventKindName(EventKind k);

/**
 * One lifecycle-ring record. Fields are kind-specific:
 *  - moves (Promote/Demote): heat/threshold/rank at decision time,
 *    a0 = promotion or demotion lag in sim-ns (0 when no clock ran),
 *    a1 = cumulative fast<->slow bounces of the page so far.
 *  - skips: heat/rank as known at the skip site.
 *  - DrfReclaim: rank = victim VM id, a0 = frames reclaimed,
 *    a1 = (requester share ppm << 32) | victim share ppm.
 *  - Throttle: a0 = candidates offered, a1 = budget applied.
 *  - BalloonOut: a0 = frames surrendered, a1 = frames requested.
 */
struct Event
{
    sim::Tick tick = 0;
    EventKind kind = EventKind::Alloc;
    std::uint8_t tier_from = noTier;
    std::uint8_t tier_to = noTier;
    std::uint16_t heat = 0;
    std::uint16_t threshold = 0;
    std::uint32_t rank = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

/** Runtime knobs; defaults follow the compile level. */
struct XrayConfig
{
    /** Opposite-direction remap within this window = one ping-pong. */
    sim::Duration pingpong_window = sim::milliseconds(400);
    /** Lifecycle ring depth per page (oldest records drop first). */
    std::uint32_t ring_depth = 16;
    /** VM-level event ring depth (DRF/throttle/balloon records). */
    std::uint32_t vm_ring_depth = 256;
    /**
     * Ring every page (HOS_XRAY=full default) or only the 1-in-2^k
     * deterministic gpfn sample (HOS_XRAY=sampled default).
     * Aggregates, lag histograms and ping-pong detection always
     * cover every page regardless.
     */
    bool full_provenance = fullXrayCompiled;
    /** Sample 1 in 2^sample_shift pages when !full_provenance. */
    std::uint32_t sample_shift = 6;
    /** Top-N misplaced pages listed in the report. */
    std::uint32_t top_misplaced = 32;
    /** Max per-page rings exported (pages with moves rank first). */
    std::uint32_t export_pages = 64;
};

struct XrayReport;

/** Log2 lag histogram bucket count (bucket i covers [2^i, 2^i+1)). */
constexpr std::size_t numLagBuckets = 40;

/**
 * The shadow state plus telemetry for one run (or one HeteroSystem).
 * Single-threaded per instance; cross-thread isolation comes from the
 * per-thread obs::Session.
 */
class Recorder
{
  public:
    Recorder();

    /** Arm the recorder with `cfg` (auditXray checks armed ones). */
    void enable(XrayConfig cfg = {});
    bool enabled() const { return enabled_; }

    /** Drop all shadow state, counters and rings. */
    void clear();

    const XrayConfig &config() const { return cfg_; }

    // --- Hooks (integer-only; callers gate on xray::active()) -----

    /** Page became live on `tier`; a fresh frame always has heat 0. */
    void onAlloc(std::uint16_t vm, std::uint64_t gpfn, std::uint8_t tier,
                 sim::Tick now);

    /** Page released (frame recycled; its heat resets with it). */
    void onFree(std::uint16_t vm, std::uint64_t gpfn, sim::Tick now);

    /**
     * Hotness tracker re-scored a page. `threshold` is the tracker's
     * hot_threshold (remembered per VM for later decision records).
     */
    void onHeat(std::uint16_t vm, std::uint64_t gpfn, std::uint16_t heat,
                std::uint16_t threshold, sim::Tick now);

    /**
     * The page's effective backing tier changed in place (VMM P2M
     * retarget). Classified promote/demote by tier rank; consumes a
     * staged rank if the engine provided one. Ignored for gpfns that
     * are not live (populate/unpopulate of free frames).
     */
    void onTierChange(std::uint16_t vm, std::uint64_t gpfn,
                      std::uint8_t tier, sim::Tick now);

    /**
     * Guest-visible migration: the page moved to a *new* gpfn on the
     * target node (old frame freed separately right after). Transfers
     * the lag clocks and bounce identity old -> new, then records the
     * move against the new gpfn. `heat` is the migrated page's heat
     * at decision time (the frontend copies everything but heat).
     */
    void onGuestMove(std::uint16_t vm, std::uint64_t old_gpfn,
                     std::uint64_t new_gpfn, std::uint8_t to_tier,
                     std::uint16_t heat, std::uint32_t rank,
                     sim::Tick now);

    /** Candidate rank for the next onTierChange (VMM engine path). */
    void stageRank(std::uint32_t rank);

    /** A promote/demote candidate was skipped (kind says why). */
    void onSkip(std::uint16_t vm, std::uint64_t gpfn, EventKind kind,
                std::uint16_t heat, std::uint32_t rank, sim::Tick now);

    /** Per-page transition without a placement move (writeback...). */
    void onTransition(std::uint16_t vm, std::uint64_t gpfn,
                      EventKind kind, sim::Tick now);

    /** VM-level record (DrfReclaim / Throttle / BalloonOut). */
    void onVmEvent(std::uint16_t vm, EventKind kind, std::uint32_t rank,
                   std::uint64_t a0, std::uint64_t a1, sim::Tick now);

    /**
     * Size `vm`'s page shadow for `num_pages` gpfns up front, so no
     * hook reallocates it mid-run. Hooks still grow the shadow for
     * gpfns past the seeded size.
     */
    void sizeShadow(std::uint16_t vm, std::uint64_t num_pages);

    // --- Queries (audit and tests) --------------------------------

    std::size_t numVms() const { return vms_.size(); }
    bool live(std::uint16_t vm, std::uint64_t gpfn) const;
    std::uint16_t shadowHeat(std::uint16_t vm, std::uint64_t gpfn) const;
    std::uint8_t shadowTier(std::uint16_t vm, std::uint64_t gpfn) const;
    std::uint16_t thresholdOf(std::uint16_t vm) const;

    std::uint64_t pagesIn(std::uint16_t vm, std::uint8_t tier) const;
    std::uint64_t hotIn(std::uint16_t vm, std::uint8_t tier) const;
    std::uint64_t heatMassIn(std::uint16_t vm, std::uint8_t tier) const;
    std::uint64_t hotHeatMassIn(std::uint16_t vm,
                                std::uint8_t tier) const;
    std::uint64_t kindCount(std::uint16_t vm, EventKind k) const;
    std::uint64_t pingpongEvents(std::uint16_t vm) const;

    /** Hot pages across all tiers of `vm`. */
    std::uint64_t hotTotal(std::uint16_t vm) const;
    /** Hot pages of `vm` not backed by the fastest tier. */
    std::uint64_t hotMisplaced(std::uint16_t vm) const;
    /** Heat mass of hot pages outside the fastest tier. */
    std::uint64_t misplacedHeatMass(std::uint16_t vm) const;

    /** The "xray" stat group (quality gauges for the StatRegistry). */
    sim::StatGroup &stats() { return stats_; }
    /** Refresh the gauges from live state (registry refresh hook). */
    void syncStats();

    /** Flatten everything into the deterministic report form. */
    XrayReport report() const;

  private:
    /** Dense per-gpfn state: what every hook and the audit read. */
    struct PageShadow
    {
        std::uint16_t heat = 0;
        std::uint8_t tier = noTier; ///< noTier = not live
        bool hot = false;
    };
    static_assert(sizeof(PageShadow) == 4, "page shadow grew past 4 bytes");

    /** Lag and ping-pong state of one page; all zero = idle. */
    struct PageClock
    {
        sim::Tick hot_since = 0;  ///< hot-in-slow clock (0 = idle)
        sim::Tick cold_since = 0; ///< cold-in-fast clock (0 = idle)
        sim::Tick last_move = 0;
        std::int8_t last_dir = 0; ///< +1 promote, -1 demote
        std::uint32_t bounces = 0;
    };

    /**
     * Per-VM clock table in fixed chunks of gpfns. Most pages never
     * run a clock, so a chunk is allocated only when one of its pages
     * first needs a non-zero clock; a missing chunk reads as all-zero
     * clocks. Chunks never move once allocated.
     */
    class PageClocks
    {
      public:
        static constexpr std::uint64_t chunkPages = 4096;

        /** The page's clocks, or nullptr when its chunk is absent. */
        PageClock *find(std::uint64_t gpfn);
        /** The page's clocks, allocating its chunk on first use. */
        PageClock &at(std::uint64_t gpfn);
        /** Zero the page's clocks where its chunk exists. */
        void reset(std::uint64_t gpfn);

      private:
        std::vector<std::unique_ptr<PageClock[]>> chunks_;
    };

    struct Ring
    {
        std::vector<Event> events; ///< circular once at depth
        std::uint64_t total = 0;
        std::uint64_t moves = 0;    ///< promote+demote records
        std::uint64_t promotes = 0; ///< promote records alone
    };

    struct VmState
    {
        std::uint16_t threshold = 96; ///< last seen hot_threshold
        std::vector<PageShadow> pages;
        PageClocks clocks;
        std::uint64_t tier_pages[numTiers] = {};
        std::uint64_t tier_hot[numTiers] = {};
        std::uint64_t tier_heat_mass[numTiers] = {};
        std::uint64_t tier_hot_heat_mass[numTiers] = {};
        std::uint64_t kind_counts[numEventKinds] = {};
        std::uint64_t pingpong_events = 0;
        std::uint64_t pingpong_pages = 0;
        std::uint64_t promote_lag[numLagBuckets] = {};
        std::uint64_t demote_lag[numLagBuckets] = {};
        std::map<std::uint64_t, Ring> rings; ///< ordered: determinism
        Ring vm_events;
    };

    VmState &vmState(std::uint16_t vm);
    const VmState *findVm(std::uint16_t vm) const;
    PageShadow &shadow(VmState &s, std::uint64_t gpfn);

    /** Deterministic 1-in-2^sample_shift gpfn sample membership. */
    bool ringEligible(std::uint64_t gpfn) const;
    void ringAppend(Ring &ring, std::uint32_t depth, const Event &e);
    void pageRecord(VmState &s, std::uint64_t gpfn, const Event &e);

    /** Aggregate bookkeeping for one page entering/leaving hotness. */
    void applyHeat(VmState &s, PageShadow &p, std::uint16_t heat);
    /** Move a live page's aggregates between tiers. */
    void moveTier(VmState &s, PageShadow &p, std::uint8_t to);
    /** Lag + ping-pong + ring record for one completed move. */
    void recordMove(VmState &s, std::uint16_t vm, std::uint64_t gpfn,
                    bool hot, PageClock &c, std::uint8_t from,
                    std::uint8_t to, std::uint16_t heat,
                    std::uint32_t rank, sim::Tick now);

    bool enabled_ = false;
    XrayConfig cfg_;
    std::vector<VmState> vms_;
    std::uint32_t staged_rank_ = 0;
    bool has_staged_rank_ = false;
    sim::StatGroup stats_{"xray"};
};

/**
 * The recorder hooks should feed, or nullptr when xray is off. The
 * disabled fast path is one thread-local load and a branch; at
 * HOS_XRAY_LEVEL=0 it is constant-null and every
 * `if (auto *xr = xray::active())` hook site folds away.
 */
inline Recorder *
active()
{
#if HOS_XRAY_LEVEL >= 1
    const obs::Session *s = obs::current();
    return s ? s->recorder : nullptr;
#else
    return nullptr;
#endif
}

} // namespace hos::xray

#endif // HOS_XRAY_XRAY_HH
