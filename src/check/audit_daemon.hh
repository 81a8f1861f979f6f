/**
 * @file
 * Periodic cross-layer audit daemon.
 *
 * A periodic event on a guest's event queue that runs the full audit
 * walk (auditVmm) every `interval` of simulated time, so corruption
 * is caught within one audit period of the event that caused it
 * instead of at the end of the run. HeteroSystem starts one automatically in HOS_CHECK=full
 * builds; tests and tools can also drive runOnce() by hand.
 */

#ifndef HOS_CHECK_AUDIT_DAEMON_HH
#define HOS_CHECK_AUDIT_DAEMON_HH

#include <cstdint>

#include "check/auditors.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace hos::check {

/** Runs auditVmm every `interval` sim-time on a guest event queue. */
class AuditDaemon
{
  public:
    /**
     * @param vmm      the hypervisor whose VMs get audited
     * @param queue    event queue supplying simulated time (one of the
     *                 guests'; audits cover every VM regardless)
     * @param interval simulated time between audit passes
     * @param registry when non-null, gauge reconciliation (auditStats)
     *                 joins each pass
     */
    AuditDaemon(vmm::Vmm &vmm, sim::EventQueue &queue,
                sim::Duration interval,
                sim::StatRegistry *registry = nullptr);

    /** Schedule the periodic audit (first pass one interval from now). */
    void start();

    /** Audit immediately; returns findings without terminating. */
    AuditResult runOnce();

    /** Terminate the run on a failed periodic audit (default true). */
    void setEnforce(bool enforce) { enforce_ = enforce; }

    std::uint64_t auditsRun() const { return audits_run_; }
    std::uint64_t checksRun() const { return checks_run_; }
    std::uint64_t failuresFound() const { return failures_found_; }

  private:
    vmm::Vmm &vmm_;
    sim::EventQueue &queue_;
    sim::Duration interval_;
    sim::StatRegistry *registry_;
    bool enforce_ = true;
    bool started_ = false;
    std::uint64_t audits_run_ = 0;
    std::uint64_t checks_run_ = 0;
    std::uint64_t failures_found_ = 0;
};

} // namespace hos::check

#endif // HOS_CHECK_AUDIT_DAEMON_HH
