/**
 * @file
 * hos::obs — the one per-thread install point for telemetry.
 *
 * A Session names the consumers one run feeds: a trace ring, a span
 * profiler, a placement x-ray recorder and a metrics collector, each
 * optional. obs::Scope installs a session on the calling thread for
 * its lifetime, and every hook in the tree — trace::emit,
 * prof::onCharge, HOS_PROF_SPAN, xray::active(), metrics::active() —
 * resolves its consumer through current(). With no session installed
 * a hook's disabled path is one thread-local load and a branch.
 *
 * Isolation: sessions are per thread, so two HeteroSystems running on
 * different sweep threads never see each other's consumers. Scopes
 * nest; an inner scope replaces the outer session wholesale (a
 * consumer it leaves null is off, not inherited) until it ends.
 *
 * The consumer types are only forward-declared: this header sits in
 * the bottom hos_trace library, below prof, xray and metrics.
 */

#ifndef HOS_TRACE_SESSION_HH
#define HOS_TRACE_SESSION_HH

namespace hos {

namespace trace {
class Tracer;
}
namespace prof {
class Profiler;
}
namespace xray {
class Recorder;
}
namespace metrics {
class Collector;
}

namespace obs {

/** The telemetry consumers of one run; null means that layer is off. */
struct Session
{
    trace::Tracer *tracer = nullptr;
    prof::Profiler *profiler = nullptr;
    xray::Recorder *recorder = nullptr;
    metrics::Collector *collector = nullptr;

    bool empty() const
    {
        return !tracer && !profiler && !recorder && !collector;
    }
};

namespace detail {
inline thread_local const Session *t_session = nullptr;
} // namespace detail

/** The session installed on this thread, or nullptr. */
inline const Session *
current()
{
    return detail::t_session;
}

/**
 * RAII install of a session on the constructing thread. The scope
 * keeps its own copy of `s`; destruction restores whatever was
 * installed before, also when a check failure unwinds the run. An
 * empty session installs nothing, so hooks stay on their disabled
 * path.
 */
class Scope
{
  public:
    explicit Scope(const Session &s)
        : session_(s), prev_(detail::t_session)
    {
        detail::t_session = session_.empty() ? nullptr : &session_;
    }
    ~Scope() { detail::t_session = prev_; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Session session_;
    const Session *prev_;
};

} // namespace obs
} // namespace hos

#endif // HOS_TRACE_SESSION_HH
