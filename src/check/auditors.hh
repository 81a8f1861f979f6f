/**
 * @file
 * Cross-layer audit walkers.
 *
 * Where the page-state validator (page_state.hh) checks one page at
 * one transition, the auditors reconcile whole structures against
 * each other — the redundant bookkeeping HeteroOS keeps at every
 * layer is exactly what makes corruption detectable:
 *
 *  - intrusive list integrity: links, ownership tags, counts, cycles
 *    (buddy free lists, per-CPU caches, zone LRUs);
 *  - zone accounting: buddy free counts vs walked free blocks vs the
 *    managed = free + per-CPU-cached + allocated identity;
 *  - LRU state: per-page lru bits vs actual list membership, and
 *    page types legal for LRU residence (catches mid-residence
 *    retyping);
 *  - StatRegistry gauges vs live zone state (refresh-hook wiring);
 *  - guest P2M vs VMM machine-frame ownership: per-gpfn owner/tier
 *    agreement, populated-flag agreement, per-tier tallies, no
 *    double-mapped frames, no leaked frames.
 *
 * Walkers *collect* structured CheckFailure records instead of
 * terminating, so tests can seed a corruption and assert exactly
 * which validator caught it; enforce() turns a non-empty result into
 * a check::fail. The audit daemon (audit_daemon.hh) runs these every
 * N sim-ticks; HeteroSystem wires that up automatically in
 * HOS_CHECK=full builds.
 */

#ifndef HOS_CHECK_AUDITORS_HH
#define HOS_CHECK_AUDITORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hh"
#include "guestos/kernel.hh"
#include "metrics/metrics.hh"
#include "prof/prof.hh"
#include "sim/stats.hh"
#include "vmm/vmm.hh"
#include "xray/xray.hh"

namespace hos::check {

/** Outcome of one audit pass. */
struct AuditResult
{
    std::uint64_t checks = 0; ///< individual invariants evaluated
    std::vector<CheckFailure> failures;

    bool ok() const { return failures.empty(); }
    void merge(AuditResult &&other);

    /** Append a failure stamped with the current sim tick. */
    void addFailure(CheckKind kind, std::uint64_t subject,
                    std::string where, std::string what);
};

/**
 * Walk one intrusive page list: every link bidirectional, every
 * member carrying the list's ownership tag, walked length equal to
 * the stored count, head/tail consistent, no cycles.
 */
AuditResult auditList(const guestos::PageArray &pages,
                      const guestos::PageList &list,
                      const std::string &where);

/**
 * Full guest-kernel audit: buddy free lists and accounting, per-CPU
 * caches, zone LRUs, per-page state over every node span, the
 * managed = free + cached + allocated identity, and the page cache.
 */
AuditResult auditKernel(guestos::GuestKernel &kernel);

/**
 * Page-cache audit (part of auditKernel): every index entry names an
 * allocated PageCache/BufferCache page whose reverse map points back
 * at that entry, no other page carries a file, and cachedPages() and
 * dirtyPages() match a recount.
 */
AuditResult auditPageCache(guestos::GuestKernel &kernel);

/**
 * Reconcile the kernel's StatRegistry gauges against live zone
 * state: refreshes the registry (running the refresh hooks as a
 * stat dump would), then recomputes node free/managed counts
 * independently. Catches dead or mis-wired refresh hooks.
 */
AuditResult auditStats(guestos::GuestKernel &kernel,
                       sim::StatRegistry &registry);

/**
 * Reconcile one VM's guest P2M against VMM machine-memory ownership.
 */
AuditResult auditP2m(vmm::VmContext &vm, mem::MachineMemory &machine);

/** Audit every VM of a VMM (kernel + P2M [+ stats]) and the machine. */
AuditResult auditVmm(vmm::Vmm &vmm,
                     sim::StatRegistry *registry = nullptr);

/**
 * End-of-run profiler balance audit: every opened span must have been
 * closed (RAII makes this structural, so a failure means a span
 * leaked across an exception or a begin/end was called by hand).
 */
AuditResult auditProf(const prof::Profiler &profiler);

/**
 * Reconcile an xray Recorder's shadow state and placement-quality
 * counters against ground truth with an exhaustive walk: every
 * allocated guest page must be live in the shadow with the same heat
 * and the same effective backing tier (placement oracle), freed pages
 * must not linger, and the per-tier page / hot / heat-mass /
 * hot-heat-mass aggregates recomputed from the page array must equal
 * the Recorder's incrementally-maintained counters bit for bit.
 */
AuditResult auditXray(vmm::Vmm &vmm, const xray::Recorder &recorder);

/**
 * Reconcile a metrics Collector's windowed aggregates against kernel
 * ground truth: per VM, the collector's drained-overhead total must
 * equal the kernel's overhead grand total minus the not-yet-drained
 * remainder (integer equality — the collector sees every drain
 * exactly once), the slowdown histogram's observation count must
 * equal the number of closed windows, its exact value sum must equal
 * the running slowdown-ppm sum (sum preservation through the
 * log-bucketed layout), and every tracked VM tag must correspond to a
 * live kernel.
 */
AuditResult auditMetrics(vmm::Vmm &vmm,
                         const metrics::Collector &collector);

/**
 * Report every failure in `result` through hos::trace and terminate
 * (abort or throw CheckError carrying the first failure) when the
 * audit found anything. No-op on a clean result.
 */
void enforce(const AuditResult &result);

} // namespace hos::check

#endif // HOS_CHECK_AUDITORS_HH
