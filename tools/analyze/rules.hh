/**
 * @file
 * Rule catalog and analysis driver for hos-analyze.
 *
 * Twelve codebase-specific rules over the token stream, grouped by
 * the invariant they defend (see DESIGN.md "Static analysis"):
 *
 * Determinism (bit-identical serial/parallel sweeps):
 *   unordered-iter   iteration over std::unordered_* sim state
 *   ptr-key-ordered  std::map/std::set keyed on a raw pointer
 *   ptr-hash         std::hash over a raw pointer type
 *   raw-assert       assert() instead of hos_assert
 *   naked-new        `= new` / `return new` instead of make_unique
 *   wall-clock       host time in sim code (std::chrono & friends)
 *
 * Instrumentation completeness (prof/xray coverage at every site):
 *   charge-span      kernel charge() outside any HOS_PROF_SPAN scope
 *   tier-xray        P2M retarget without ringing the xray recorder
 *
 * Telemetry purity ("off" builds stay byte-identical):
 *   telemetry-purity mutating API call under a HOS_{PROF,XRAY,METRICS,
 *                    CHECK}_LEVEL guard or inside an xray::active() /
 *                    metrics::active() observation block, or
 *                    float/double under src/xray or src/metrics
 *
 * Hygiene (API lifecycle):
 *   loose-hotness-key retired loose hotness keys in scenario
 *                     literals (tests/bench/examples)
 *   retired-api      retired pre-Scenario API names anywhere
 *   soa-field-write  page-metadata writes bypassing the PageRef
 *                    facade (direct SoA column access or AoS-style
 *                    field assignment)
 *
 * Rules are path-scoped (ruleAppliesTo), individually disableable
 * (Options::disabled — how fixture tests prove each rule is live),
 * suppressible per line (`// hos-analyze: <rule> (why)`), and
 * grandfatherable via a baseline file of `rule|file|excerpt` keys.
 */

#ifndef HOS_TOOLS_ANALYZE_RULES_HH
#define HOS_TOOLS_ANALYZE_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lexer.hh"

namespace hos::analyze {

struct Finding {
    std::string rule;
    std::string file;
    int line = 0;
    int col = 0;
    std::string message;
    std::string excerpt; ///< the source line, trimmed
};

struct Options {
    std::set<std::string> disabled; ///< rule ids switched off
};

/** All rule ids, in catalog order. */
const std::vector<std::string> &ruleIds();

/** Whether `rule` runs on the file at repo-relative `path`. */
bool ruleAppliesTo(const std::string &rule, const std::string &path);

/**
 * Names collected across the whole tree before per-file analysis:
 * identifiers whose declared type is an unordered container (members,
 * locals, aliases) and functions declared to return one. Collected
 * globally because members declared in a header are iterated from
 * sibling .cc files.
 */
struct GlobalNames {
    std::set<std::string> unordered_vars;
    std::set<std::string> unordered_fns;
    std::set<std::string> unordered_types; ///< using-aliases
};

GlobalNames collectNames(const std::vector<LexedFile> &files);

/** Run every applicable rule over one file. Suppression comments are
 *  honored here; baseline matching is the caller's layer. */
std::vector<Finding> analyzeFile(const LexedFile &file,
                                 const GlobalNames &names,
                                 const Options &opts);

/** Stable grandfathering key: "rule|file|squeezed excerpt" — line
 *  numbers are deliberately absent so baselines survive edits above
 *  the finding. */
std::string baselineKey(const Finding &f);

/** Parse a baseline file body (one key per line, '#' comments). */
std::set<std::string> parseBaseline(const std::string &text);

} // namespace hos::analyze

#endif // HOS_TOOLS_ANALYZE_RULES_HH
