/**
 * @file
 * hos-inspect: read and gate the telemetry a results file carries —
 * the placement x-ray, the windowed metrics and the span-profiler
 * ledger.
 *
 * Usage:
 *   hos-inspect explain [options] RESULTS.json
 *   hos-inspect timeline [options] RESULTS.json
 *   hos-inspect diff [options] A.json B.json
 *
 * Input is the output of `run_experiment --prof --xray --metrics
 * --results=` (top-level "profile", "xray" and "metrics" sections) or
 * a sweep aggregate ("runs"[]."record".<section>). The profile ledger
 * is summed across a sweep's runs; xray and metrics are read from the
 * --run=N'th run that carries them (default 0).
 *
 * explain: why pages landed where they did ("xray").
 *   --page=GPFN   the page's full decision history: every recorded
 *                 alloc/heat-crossing/promote/demote/skip with the
 *                 policy inputs (heat, threshold, candidate rank) the
 *                 decision saw
 *   --vm=N        restrict --page / listings to one VM id
 *   --at=TICK     with --page: also resolve "where was the page and
 *                 why" as of sim tick TICK
 *   --top=N       top-N misplaced pages (hottest first; default 10)
 *   --promoted    every recorded promotion with its decision inputs
 *   --demoted     every recorded demotion with its decision inputs
 *   --run=N       which sweep run's xray section to read
 *   With no option beyond the file it prints the per-VM quality
 *   summary: misplaced-hotness mass, cold-in-fast, lag histograms,
 *   ping-pongs and the decision mix. In HOS_XRAY=sampled builds only
 *   a deterministic 1-in-64 gpfn sample carries a ring (aggregates
 *   cover every page); -DHOS_XRAY=full rings every page.
 *
 * timeline: per-VM slowdown percentiles and signal sparklines
 * ("metrics").
 *   --vm=N        restrict output to one VM id
 *   --run=N       which sweep run's metrics section to read
 *   --csv=FILE    dump every series as CSV (vm,series,kind,t_ns,value)
 *
 * diff: judges every section both files carry.
 *   profile  fails when a per-kind sim-time total grew by more than
 *            --threshold=PCT percent (default 5), or, with --exact,
 *            on any sim-time difference (the determinism gate: the
 *            same scenario run twice must produce bit-identical
 *            ledgers); --json=FILE also writes the ledger diff as
 *            hos-profdiff-1 JSON
 *   metrics  fails when a per-VM P50/P99 slowdown moved more than 5%
 *            from A (--run=N picks the sweep run)
 *
 * Every numeric flag value must parse whole. Exit codes: 0 ok; 1 the
 * requested page or records were not found, the section is empty
 * (an off build), or a judged section failed; 2 usage or load error,
 * a malformed flag, or two files that share no section diff judges.
 */

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cli.hh"
#include "metrics/metrics.hh"
#include "metrics/report.hh"
#include "prof/diff.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/table.hh"
#include "xray/report.hh"
#include "xray/xray.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: hos-inspect explain [--page=GPFN [--at=TICK]] [--top[=N]]\n"
        "           [--promoted] [--demoted] [--vm=N] [--run=N] "
        "RESULTS.json\n"
        "       hos-inspect timeline [--vm=N] [--run=N] [--csv=FILE] "
        "RESULTS.json\n"
        "       hos-inspect diff [--threshold=PCT | --exact] "
        "[--json=FILE] [--run=N]\n"
        "           A.json B.json\n"
        "diff judges the profile ledger (per-kind growth past PCT, "
        "default 5, or\nany difference with --exact) and the per-VM "
        "P50/P99 slowdown (a 5% shift)\nof every section both files "
        "carry. Exit 0 ok, 1 not found or failed, 2 bad input.");
}

/** The parsed command line: the files and every verb's flags. */
struct Options
{
    std::vector<const char *> files;
    std::optional<std::uint64_t> page;
    std::optional<unsigned> vm;
    std::optional<std::uint64_t> at;
    std::optional<std::uint64_t> top;
    bool promoted = false;
    bool demoted = false;
    std::size_t run = 0;
    std::string csv_file;
    double threshold_pct = 5.0;
    bool exact = false;
    std::string json_file;
};

// ---- the section loader ----------------------------------------------

/** A parsed results file. */
struct Input
{
    const char *path;
    sim::JsonValue doc;
};

std::optional<Input>
loadInput(const char *path)
{
    std::string error;
    auto doc = sim::jsonParseFile(path, &error);
    if (doc && !doc->isObject())
        error = "top level is not an object";
    if (!error.empty() || !doc) {
        std::fprintf(stderr, "%s: %s\n", path, error.c_str());
        return std::nullopt;
    }
    return Input{path, std::move(*doc)};
}

/**
 * Every `key` section of a results document: the top-level one of a
 * single RunRecord, or each "runs"[]."record".key of a sweep
 * aggregate, in run order.
 */
std::vector<const sim::JsonValue *>
sections(const sim::JsonValue &doc, const std::string &key)
{
    if (const auto *s = doc.find(key))
        return {s};
    std::vector<const sim::JsonValue *> out;
    if (const auto *runs = doc.find("runs"); runs && runs->isArray()) {
        for (const auto &run : runs->array) {
            const auto *record = run.find("record");
            if (const auto *s = record ? record->find(key) : nullptr)
                out.push_back(s);
        }
    }
    return out;
}

void
fromJson(const sim::JsonValue &v, std::string *error,
         prof::ProfileReport &out)
{
    prof::mergeInto(out, prof::profileReportFromJson(v, error));
}

void
fromJson(const sim::JsonValue &v, std::string *error,
         xray::XrayReport &out)
{
    out = xray::xrayReportFromJson(v, error);
}

void
fromJson(const sim::JsonValue &v, std::string *error,
         metrics::MetricsReport &out)
{
    out = metrics::metricsReportFromJson(v, error);
}

/**
 * Read `in`'s `key` section into `out`: the `run`'th run carrying it,
 * or with `run` unset every one of them folded together (the profile
 * ledger sums across a sweep's runs). False after a diagnostic.
 */
template <class Report>
bool
readSection(const Input &in, const std::string &key,
            std::optional<std::size_t> run, Report &out)
{
    const auto found = sections(in.doc, key);
    std::string error;
    if (found.empty()) {
        const std::string flag = key == "profile" ? "prof" : key;
        error = "no \"" + key + "\" section (produce input with "
                "run_experiment --" + flag + " --results=...)";
    } else if (run && *run >= found.size()) {
        error = "--run=" + std::to_string(*run) + " is past the " +
                std::to_string(found.size()) + " run(s) carrying \"" +
                key + "\"";
    }
    for (std::size_t i = 0; i < found.size() && error.empty(); ++i) {
        if (!run || i == *run)
            fromJson(*found[i], &error, out);
    }
    if (!error.empty())
        std::fprintf(stderr, "%s: %s\n", in.path, error.c_str());
    return error.empty();
}

// ---- explain ---------------------------------------------------------

const char *
dirArrow(const xray::Event &e)
{
    if (e.tier_from == xray::noTier || e.tier_to == xray::noTier)
        return "";
    return xray::tierRank(e.tier_to) < xray::tierRank(e.tier_from)
               ? " (promotion)"
               : " (demotion)";
}

void
printEvent(const xray::Event &e)
{
    std::printf("  t=%-12" PRIu64 " %-14s", e.tick,
                xray::eventKindName(e.kind));
    if (e.tier_from != xray::noTier || e.tier_to != xray::noTier) {
        std::printf(" %s->%s%s", xray::tierName(e.tier_from),
                    xray::tierName(e.tier_to), dirArrow(e));
    }
    switch (e.kind) {
      case xray::EventKind::Promote:
      case xray::EventKind::Demote:
        std::printf(" heat=%u threshold=%u rank=%u lag_ns=%" PRIu64
                    " bounces=%" PRIu64,
                    e.heat, e.threshold, e.rank, e.a0, e.a1);
        break;
      case xray::EventKind::HotCross:
      case xray::EventKind::Cooled:
        std::printf(" heat=%u threshold=%u", e.heat, e.threshold);
        break;
      case xray::EventKind::DrfReclaim:
        std::printf(" victim_vm=%u frames=%" PRIu64
                    " req_share_ppm=%" PRIu64 " victim_share_ppm=%" PRIu64,
                    e.rank, e.a0, e.a1 >> 32,
                    e.a1 & 0xffffffff);
        break;
      case xray::EventKind::Throttle:
        std::printf(" candidates=%" PRIu64 " budget=%" PRIu64, e.a0,
                    e.a1);
        break;
      case xray::EventKind::BalloonOut:
        std::printf(" surrendered=%" PRIu64 " requested=%" PRIu64,
                    e.a0, e.a1);
        break;
      default:
        if (e.heat != 0 || e.rank != 0)
            std::printf(" heat=%u rank=%u", e.heat, e.rank);
        break;
    }
    std::printf("\n");
}

void
printSummary(const xray::XrayReport &report)
{
    std::printf("placement x-ray (ring_depth=%u, pingpong_window=%"
                PRIu64 " ns)\n",
                report.ring_depth, report.pingpong_window_ns);
    for (const auto &vm : report.vms) {
        const std::uint64_t hot = vm.hotTotal();
        const std::uint64_t mis = vm.hotMisplaced();
        std::printf("\nvm %u (hot threshold %u)\n", vm.vm,
                    vm.threshold);
        for (std::size_t t = 0; t < xray::numTiers; ++t) {
            const auto &tier = vm.tiers[t];
            if (tier.pages == 0 && tier.heat_mass == 0)
                continue;
            std::printf("  %-6s pages=%-8" PRIu64 " hot=%-8" PRIu64
                        " heat_mass=%-10" PRIu64 " hot_heat_mass=%"
                        PRIu64 "\n",
                        xray::tierName(static_cast<std::uint8_t>(t)),
                        tier.pages, tier.hot_pages, tier.heat_mass,
                        tier.hot_heat_mass);
        }
        std::printf("  quality: hot=%" PRIu64 " misplaced=%" PRIu64
                    " (%.1f%%) cold_in_fast=%" PRIu64
                    " misplaced_heat_mass=%" PRIu64 "\n",
                    hot, mis,
                    hot > 0 ? 100.0 * static_cast<double>(mis) /
                                  static_cast<double>(hot)
                            : 0.0,
                    vm.coldInFast(), vm.misplacedHeatMass());
        std::printf("  decisions:");
        bool any = false;
        for (std::size_t k = 0; k < xray::numEventKinds; ++k) {
            if (vm.kind_counts[k] == 0)
                continue;
            std::printf(" %s=%" PRIu64,
                        xray::eventKindName(
                            static_cast<xray::EventKind>(k)),
                        vm.kind_counts[k]);
            any = true;
        }
        std::printf("%s\n", any ? "" : " (none)");
        std::printf("  ping-pong: events=%" PRIu64 " pages=%" PRIu64
                    "\n",
                    vm.pingpong_events, vm.pingpong_pages);
        const auto print_lag =
            [](const char *label,
               const std::vector<std::pair<std::uint64_t,
                                           std::uint64_t>> &lag) {
                if (lag.empty())
                    return;
                std::printf("  %s:", label);
                for (const auto &[lo, n] : lag)
                    std::printf(" [>=%" PRIu64 "ns]=%" PRIu64, lo, n);
                std::printf("\n");
            };
        print_lag("promote lag", vm.promote_lag);
        print_lag("demote lag", vm.demote_lag);
        std::printf("  rings: %" PRIu64 " page(s) recorded, %zu "
                    "exported; %" PRIu64 " vm-level event(s)\n",
                    vm.pages_ringed, vm.pages.size(),
                    vm.vm_events_total);
    }
}

/** VM filter: all VMs when `vm_id` is unset. */
template <class Vm>
bool
vmSelected(const Vm &vm, std::optional<unsigned> vm_id)
{
    return !vm_id || vm.vm == *vm_id;
}

int
explainPage(const xray::XrayReport &report, std::uint64_t gpfn,
            std::optional<unsigned> vm_id,
            std::optional<std::uint64_t> at)
{
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        for (const auto &page : vm.pages) {
            if (page.gpfn != gpfn)
                continue;
            std::printf("vm %u gpfn %" PRIu64 ": %zu of %" PRIu64
                        " event(s) retained\n",
                        vm.vm, gpfn, page.events.size(),
                        page.total_events);
            for (const auto &e : page.events)
                printEvent(e);
            if (at) {
                const xray::Event *last = nullptr;
                std::uint8_t tier = xray::noTier;
                for (const auto &e : page.events) {
                    if (e.tick > *at)
                        break;
                    last = &e;
                    if (e.tier_to != xray::noTier)
                        tier = e.tier_to;
                    if (e.kind == xray::EventKind::Free)
                        tier = xray::noTier;
                }
                if (!last) {
                    std::printf("at t=%" PRIu64 ": no retained record "
                                "yet\n",
                                *at);
                } else {
                    std::printf(
                        "at t=%" PRIu64 ": in %s — last decision at "
                        "t=%" PRIu64 " was %s (heat=%u threshold=%u "
                        "rank=%u)\n",
                        *at, xray::tierName(tier), last->tick,
                        xray::eventKindName(last->kind), last->heat,
                        last->threshold, last->rank);
                }
            }
            return 0;
        }
    }
    std::fprintf(stderr,
                 "gpfn %" PRIu64 " has no exported ring%s (sampled "
                 "builds ring 1 in 64 pages; use -DHOS_XRAY=full)\n",
                 gpfn, vm_id ? "" : " in any vm");
    return 1;
}

int
listMoves(const xray::XrayReport &report, xray::EventKind kind,
          std::optional<unsigned> vm_id)
{
    std::uint64_t n = 0;
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        for (const auto &page : vm.pages) {
            for (const auto &e : page.events) {
                if (e.kind != kind)
                    continue;
                std::printf("vm %u gpfn %-10" PRIu64, vm.vm,
                            page.gpfn);
                printEvent(e);
                ++n;
            }
        }
    }
    if (n == 0) {
        std::fprintf(stderr, "no recorded %s events\n",
                     xray::eventKindName(kind));
        return 1;
    }
    return 0;
}

int
listTop(const xray::XrayReport &report, std::uint64_t top,
        std::optional<unsigned> vm_id)
{
    std::uint64_t n = 0;
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        std::printf("vm %u top misplaced (hot pages outside fast):\n",
                    vm.vm);
        std::uint64_t shown = 0;
        for (const auto &p : vm.top_misplaced) {
            if (shown++ >= top)
                break;
            std::printf("  gpfn %-10" PRIu64 " heat=%-5u tier=%s\n",
                        p.gpfn, p.heat, xray::tierName(p.tier));
            ++n;
        }
        if (shown == 0)
            std::printf("  (none — every hot page is fast-backed)\n");
    }
    return n > 0 ? 0 : 1;
}

int
explain(const Options &o)
{
    const auto in = loadInput(o.files[0]);
    xray::XrayReport report;
    if (!in || !readSection(*in, "xray", o.run, report))
        return 2;
    if (report.empty()) {
        std::fprintf(stderr,
                     "xray section is empty (HOS_XRAY=off build?)\n");
        return 1;
    }

    if (o.page)
        return explainPage(report, *o.page, o.vm, o.at);
    int rc = 0;
    if (o.promoted)
        rc |= listMoves(report, xray::EventKind::Promote, o.vm);
    if (o.demoted)
        rc |= listMoves(report, xray::EventKind::Demote, o.vm);
    if (o.top)
        rc |= listTop(report, *o.top, o.vm);
    if (!o.promoted && !o.demoted && !o.top)
        printSummary(report);
    return rc;
}

// ---- timeline --------------------------------------------------------

/** Unicode sparkline of a series, min..max scaled to 8 block levels. */
std::string
sparkline(const std::vector<std::pair<sim::Tick, std::int64_t>> &points,
          std::size_t width = 48)
{
    static const char *const kBlocks[] = {"▁", "▂", "▃", "▄",
                                          "▅", "▆", "▇", "█"};
    if (points.empty())
        return "(empty)";
    std::int64_t lo = points.front().second, hi = lo;
    for (const auto &[t, v] : points) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    // Downsample to `width` columns, bucket-averaging.
    const std::size_t n = points.size();
    const std::size_t cols = std::min(width, n);
    std::string out;
    for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t begin = c * n / cols;
        const std::size_t end = std::max(begin + 1, (c + 1) * n / cols);
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            sum += static_cast<double>(points[i].second);
        const double avg = sum / static_cast<double>(end - begin);
        std::size_t level = 0;
        if (hi > lo) {
            level = static_cast<std::size_t>(
                (avg - static_cast<double>(lo)) /
                static_cast<double>(hi - lo) * 7.0 + 0.5);
            level = std::min<std::size_t>(level, 7);
        }
        out += kBlocks[level];
    }
    return out;
}

double
ppmToFactor(std::uint64_t ppm)
{
    return static_cast<double>(ppm) /
           static_cast<double>(metrics::ppmScale);
}

void
printTimeline(const metrics::MetricsReport &report,
              std::optional<unsigned> vm_id)
{
    std::printf("windowed metrics (sample interval %" PRIu64 " ns)\n",
                report.sample_interval_ns);
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        std::printf("\nvm %u: %" PRIu64 " phases, %" PRIu64
                    " samples, %" PRIu64 " slowdown windows\n",
                    vm.vm, vm.phases, vm.samples, vm.windows);

        sim::Table t("slowdown vs all-fast ideal (x)");
        t.header({"p50", "p90", "p99", "p99.9", "min", "max", "mean"});
        const auto &h = vm.slowdown;
        const double mean =
            h.totalCount() > 0
                ? ppmToFactor(h.valueSum() / h.totalCount())
                : 0.0;
        t.row({sim::Table::num(ppmToFactor(h.valueAtPermyriad(5000)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9000)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9900)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9990)), 3),
               sim::Table::num(ppmToFactor(h.minValue()), 3),
               sim::Table::num(ppmToFactor(h.maxValue()), 3),
               sim::Table::num(mean, 3)});
        t.print();

        std::printf("  %-16s %s\n", "slowdown_ppm",
                    sparkline(vm.slowdown_series.points).c_str());
        for (const auto &s : vm.series) {
            std::printf("  %-16s %s", s.name.c_str(),
                        sparkline(s.points).c_str());
            if (!s.points.empty()) {
                std::printf("  last=%" PRId64, s.points.back().second);
                if (s.stride > 1)
                    std::printf(" (1/%" PRIu64 " decimated)", s.stride);
            }
            std::printf("\n");
        }
        std::printf("  totals: actual=%" PRIu64 "ns ideal=%" PRIu64
                    "ns overhead=%" PRIu64 "ns\n",
                    vm.actual_ns, vm.ideal_ns, vm.overhead_ns);
    }
}

int
timeline(const Options &o)
{
    const auto in = loadInput(o.files[0]);
    metrics::MetricsReport report;
    if (!in || !readSection(*in, "metrics", o.run, report))
        return 2;
    if (report.empty()) {
        std::fprintf(stderr,
                     "metrics section is empty (HOS_METRICS=off "
                     "build?)\n");
        return 1;
    }
    if (!o.csv_file.empty()) {
        std::ofstream os(o.csv_file);
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         o.csv_file.c_str());
            return 2;
        }
        metrics::writeMetricsCsv(os, report);
        std::printf("csv: %s\n", o.csv_file.c_str());
    }
    printTimeline(report, o.vm);
    return 0;
}

// ---- diff ------------------------------------------------------------

/** The profile ledger judgment; 0 pass, 1 fail, 2 bad input. */
int
diffProfile(const Input &in_a, const Input &in_b, const Options &o)
{
    prof::ProfileReport a, b;
    if (!readSection(in_a, "profile", std::nullopt, a) ||
        !readSection(in_b, "profile", std::nullopt, b))
        return 2;
    const auto diff = prof::diffProfiles(a, b);
    prof::printDiff(diff, std::cout);
    if (!o.json_file.empty()) {
        std::ofstream os(o.json_file);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         o.json_file.c_str());
            return 2;
        }
        prof::writeDiffJson(diff, o.threshold_pct, os);
    }
    const bool failed = o.exact ? !diff.identical()
                                : prof::hasRegression(diff, o.threshold_pct);
    if (o.exact) {
        std::printf(failed ? "FAIL: ledgers differ (--exact)\n"
                           : "OK: ledgers identical\n");
    } else {
        std::printf(failed ? "FAIL: per-kind growth exceeds %.1f%%\n"
                           : "OK: within %.1f%% threshold\n",
                    o.threshold_pct);
    }
    return failed ? 1 : 0;
}

/**
 * The percentile-shift judgment: fails (and explains) when any per-VM
 * P50/P99 slowdown moved more than 5% relative to the baseline `a`.
 */
int
diffMetrics(const Input &in_a, const Input &in_b, const Options &o)
{
    metrics::MetricsReport a, b;
    if (!readSection(in_a, "metrics", o.run, a) ||
        !readSection(in_b, "metrics", o.run, b))
        return 2;
    if (a.empty() || b.empty()) {
        std::printf("FAIL: metrics section is empty (HOS_METRICS=off "
                    "build?)\n");
        return 1;
    }
    bool shifted = false;
    sim::Table t("slowdown percentile diff (B vs A)");
    t.header({"vm", "pct", "A", "B", "shift", "verdict"});
    for (const auto &va : a.vms) {
        const auto vb = std::find_if(
            b.vms.begin(), b.vms.end(),
            [&](const metrics::MetricsVm &v) { return v.vm == va.vm; });
        if (vb == b.vms.end()) {
            std::fprintf(stderr, "vm %u present in A but not in B\n",
                         va.vm);
            shifted = true;
            continue;
        }
        const std::pair<const char *, std::uint64_t> pcts[] = {
            {"p50", 5000}, {"p99", 9900}};
        for (const auto &[label, q] : pcts) {
            const std::uint64_t pa = va.slowdown.valueAtPermyriad(q);
            const std::uint64_t pb = vb->slowdown.valueAtPermyriad(q);
            const double base = pa > 0 ? static_cast<double>(pa) : 1.0;
            const double shift_pct =
                (static_cast<double>(pb) - static_cast<double>(pa)) /
                base * 100.0;
            const bool over = shift_pct > 5.0 || shift_pct < -5.0;
            shifted = shifted || over;
            t.row({sim::Table::num(std::uint64_t{va.vm}), label,
                   sim::Table::num(ppmToFactor(pa), 3),
                   sim::Table::num(ppmToFactor(pb), 3),
                   sim::Table::pct(shift_pct),
                   over ? "SHIFT" : "ok"});
        }
    }
    // Every VM of A is in B, so a longer B carries one A lacks.
    if (b.vms.size() > a.vms.size()) {
        std::fprintf(stderr, "B carries %zu VM(s), A %zu\n",
                     b.vms.size(), a.vms.size());
        shifted = true;
    }
    t.print();
    std::printf(shifted ? "FAIL: a per-VM P50/P99 slowdown shifted "
                          "more than 5%%\n"
                        : "OK: every per-VM P50/P99 within 5%%\n");
    return shifted ? 1 : 0;
}

int
diff(const Options &o)
{
    const auto a = loadInput(o.files[0]);
    const auto b = loadInput(o.files[1]);
    if (!a || !b)
        return 2;
    const std::pair<const char *,
                    int (*)(const Input &, const Input &, const Options &)>
        judges[] = {{"profile", diffProfile}, {"metrics", diffMetrics}};
    int rc = -1; // no section judged yet
    for (const auto &[key, judge] : judges) {
        if (sections(a->doc, key).empty() || sections(b->doc, key).empty())
            continue;
        std::printf("== %s\n", key);
        const int judged = judge(*a, *b, o);
        if (judged == 2)
            return 2;
        rc = std::max(rc, judged);
    }
    if (rc < 0) {
        std::fprintf(stderr,
                     "%s and %s share no section to diff (profile, "
                     "metrics)\n",
                     a->path, b->path);
        return 2;
    }
    return rc;
}

// ---- verbs and flags -------------------------------------------------

/** Each verb's flags; '=' marks value-taking forms. */
const char *const kExplainFlags[] = {
    "--page=", "--vm=", "--at=", "--top=", "--top",
    "--promoted", "--demoted", "--run=",
};
const char *const kTimelineFlags[] = {"--vm=", "--run=", "--csv="};
const char *const kDiffFlags[] = {"--threshold=", "--exact", "--json=",
                                  "--run="};

struct Verb
{
    const char *name;
    std::span<const char *const> flags;
    std::size_t files;
    int (*run)(const Options &);
};

const Verb kVerbs[] = {
    {"explain", kExplainFlags, 1, explain},
    {"timeline", kTimelineFlags, 1, timeline},
    {"diff", kDiffFlags, 2, diff},
};

/** Exit status 2 after a diagnostic naming the rejected argument. */
int
reject(const char *verb, const std::string &why)
{
    std::fprintf(stderr, "hos-inspect %s: %s\n", verb, why.c_str());
    usage();
    return 2;
}

/** Parse argv[2..] against `verb`'s flags; 0, or exit status 2. */
int
parseArgs(const Verb &verb, int argc, char **argv, Options &o)
{
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            o.files.push_back(argv[i]);
            continue;
        }
        const auto known = std::find_if(
            verb.flags.begin(), verb.flags.end(), [&](const char *f) {
                const std::size_t n = std::strlen(f);
                return f[n - 1] == '=' ? a.compare(0, n, f) == 0
                                       : a == f;
            });
        if (known == verb.flags.end()) {
            return reject(verb.name,
                          "unknown option '" + a + "' (did you mean '" +
                              cli::nearestFlag(a, verb.flags) + "'?)");
        }
        const std::string flag = *known;
        const std::string value = a.substr(flag.size());
        if (flag == "--top") {
            o.top = 10;
        } else if (flag == "--promoted") {
            o.promoted = true;
        } else if (flag == "--demoted") {
            o.demoted = true;
        } else if (flag == "--exact") {
            o.exact = true;
        } else if (flag == "--csv=") {
            o.csv_file = value;
        } else if (flag == "--json=") {
            o.json_file = value;
        } else if (flag == "--threshold=") {
            const auto pct = cli::parseNumber(value);
            if (!pct || *pct < 0.0) {
                return reject(verb.name, "bad value '" + value +
                                             "' for --threshold: need "
                                             "a number >= 0");
            }
            o.threshold_pct = *pct;
        } else {
            const auto n = cli::parseUnsigned(value);
            if (!n || (flag == "--vm=" && *n > UINT_MAX)) {
                return reject(verb.name,
                              "bad value '" + value + "' for " +
                                  flag.substr(0, flag.size() - 1) +
                                  ": need an unsigned integer");
            }
            if (flag == "--page=")
                o.page = *n;
            else if (flag == "--vm=")
                o.vm = static_cast<unsigned>(*n);
            else if (flag == "--at=")
                o.at = *n;
            else if (flag == "--top=")
                o.top = *n;
            else
                o.run = *n;
        }
    }
    if (o.files.size() != verb.files) {
        return reject(verb.name, "wants " + std::to_string(verb.files) +
                                     " results file(s), got " +
                                     std::to_string(o.files.size()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string name = argv[1];
    std::vector<const char *> names;
    for (const Verb &verb : kVerbs) {
        if (name == verb.name) {
            Options o;
            if (const int rc = parseArgs(verb, argc, argv, o))
                return rc;
            return verb.run(o);
        }
        names.push_back(verb.name);
    }
    std::fprintf(stderr, "hos-inspect: unknown verb '%s' (did you mean "
                         "'%s'?)\n",
                 argv[1], cli::nearestFlag(name, names).c_str());
    usage();
    return 2;
}
