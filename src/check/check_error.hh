/**
 * @file
 * Failure vocabulary of the hos::check subsystem.
 *
 * Deliberately header-only and dependency-free (sim/time.hh aside):
 * the bottom of the stack — sim/log.cc's hos_assert slow path — must
 * be able to throw check::CheckError without the sim library linking
 * against the check library. Everything heavier (validators, audit
 * walkers, reporting through hos::trace) lives in check.hh and above.
 */

#ifndef HOS_CHECK_CHECK_ERROR_HH
#define HOS_CHECK_CHECK_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/time.hh"

namespace hos::check {

/** Which validator (or assertion family) flagged a failure. */
enum class CheckKind : std::uint8_t {
    Assert = 0,     ///< a plain hos_assert invariant
    PageState,      ///< illegal page-type / location / flag transition
    Placement,      ///< page pinned or placed against the tier rules
    ZoneAccounting, ///< buddy / zone / per-CPU page counts disagree
    ListIntegrity,  ///< intrusive list links, tags, or counts broken
    Lru,            ///< LRU state bits disagree with list membership
    P2m,            ///< guest P2M vs VMM machine-frame ownership drift
    StatDrift,      ///< StatRegistry gauge disagrees with live state
    Prof,           ///< profiler span stack imbalance (hos::prof)
    Xray,           ///< xray shadow state disagrees with page truth
    Metrics,        ///< metrics aggregates disagree with kernel truth
};

constexpr std::size_t numCheckKinds = 11;

constexpr const char *
checkKindName(CheckKind k)
{
    switch (k) {
      case CheckKind::Assert:
        return "assert";
      case CheckKind::PageState:
        return "page-state";
      case CheckKind::Placement:
        return "placement";
      case CheckKind::ZoneAccounting:
        return "zone-accounting";
      case CheckKind::ListIntegrity:
        return "list-integrity";
      case CheckKind::Lru:
        return "lru";
      case CheckKind::P2m:
        return "p2m";
      case CheckKind::StatDrift:
        return "stat-drift";
      case CheckKind::Prof:
        return "prof";
      case CheckKind::Xray:
        return "xray";
      case CheckKind::Metrics:
        return "metrics";
    }
    return "?";
}

/** Subject value meaning "no particular page frame". */
constexpr std::uint64_t invalidSubject = ~std::uint64_t(0);

/**
 * One structured validator finding. `subject` identifies the page
 * frame (gpfn or mfn) at fault where one exists; `where` names the
 * structure being audited ("guest0.node1.buddy"); `what` is the
 * human-readable violation. `tick` is sim-time provenance: the
 * simulated instant the corruption was observed, which with
 * deterministic replay pinpoints the offending event.
 */
struct CheckFailure
{
    CheckKind kind = CheckKind::Assert;
    sim::Tick tick = 0;
    std::uint64_t subject = invalidSubject; ///< pfn/mfn; ~0 = n/a
    std::string where;
    std::string what;

    /** "[t=...ns] kind(where): what (subject ...)" rendering. */
    std::string describe() const;
};

/**
 * Thrown instead of aborting when the failure mode is Throw (the
 * HOS_CHECK_THROW build, or check::setFailureMode at runtime). Tests
 * use this to assert that a validator actually fired, and which one.
 */
class CheckError : public std::runtime_error
{
  public:
    explicit CheckError(CheckFailure failure)
        : std::runtime_error(failure.describe()),
          failure_(std::move(failure))
    {
    }

    CheckKind kind() const { return failure_.kind; }
    const CheckFailure &failure() const { return failure_; }

  private:
    CheckFailure failure_;
};

/** What a failed check does to the process. */
enum class FailureMode : std::uint8_t {
    Abort, ///< report to stderr and abort() — production default
    Throw, ///< throw CheckError — test harness / HOS_CHECK_THROW builds
};

namespace detail {
/** One process-wide mode cell (function-local static: no TU issues). */
inline FailureMode &
failureModeRef()
{
#ifdef HOS_CHECK_THROW
    static FailureMode mode = FailureMode::Throw;
#else
    static FailureMode mode = FailureMode::Abort;
#endif
    return mode;
}
} // namespace detail

inline FailureMode
failureMode()
{
    return detail::failureModeRef();
}

/**
 * Select abort-vs-throw for every subsequent check failure, including
 * hos_assert failures. Returns the previous mode so tests can scope
 * the change.
 */
inline FailureMode
setFailureMode(FailureMode m)
{
    FailureMode prev = detail::failureModeRef();
    detail::failureModeRef() = m;
    return prev;
}

/** RAII scope: failures throw inside, previous mode restored after. */
class ScopedThrowMode
{
  public:
    ScopedThrowMode() : prev_(setFailureMode(FailureMode::Throw)) {}
    ~ScopedThrowMode() { setFailureMode(prev_); }

    ScopedThrowMode(const ScopedThrowMode &) = delete;
    ScopedThrowMode &operator=(const ScopedThrowMode &) = delete;

  private:
    FailureMode prev_;
};

inline std::string
CheckFailure::describe() const
{
    std::string s = "[t=" + std::to_string(tick) + "ns] ";
    s += checkKindName(kind);
    if (!where.empty())
        s += "(" + where + ")";
    s += ": " + what;
    if (subject != invalidSubject)
        s += " (page " + std::to_string(subject) + ")";
    return s;
}

} // namespace hos::check

#endif // HOS_CHECK_CHECK_ERROR_HH
