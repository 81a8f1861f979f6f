/**
 * @file
 * hos-analyze rule liveness tests. Every rule must (a) fire on its
 * seeded-violation fixture and (b) go quiet when that one rule is
 * disabled — proving the finding came from the rule under test, not
 * a neighbor. Fixtures live in tests/analyze_fixtures/ and are lexed
 * under virtual repo paths because rules are path-scoped.
 */

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules.hh"

namespace {

using namespace hos::analyze;

std::string
fixtureText(const std::string &name)
{
    const std::string path =
        std::string(HOS_ANALYZE_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Lex a fixture under a virtual repo path and run the analyzer. */
std::vector<Finding>
analyzeFixture(const std::string &name, const std::string &vpath,
               const std::set<std::string> &disabled = {})
{
    LexedFile f = lex(vpath, fixtureText(name));
    std::vector<LexedFile> files;
    files.push_back(f);
    const GlobalNames names = collectNames(files);
    Options opts;
    opts.disabled = disabled;
    return analyzeFile(f, names, opts);
}

bool
hasRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return std::any_of(fs.begin(), fs.end(), [&](const Finding &f) {
        return f.rule == rule;
    });
}

struct Case {
    const char *fixture;
    const char *rule;
    const char *vpath;
};

const Case kCases[] = {
    {"bad_unordered_iter.cc", "unordered-iter", "src/fix.cc"},
    {"bad_ptr_key_ordered.cc", "ptr-key-ordered", "src/fix.cc"},
    {"bad_ptr_hash.cc", "ptr-hash", "src/fix.cc"},
    {"bad_raw_assert.cc", "raw-assert", "src/fix.cc"},
    {"bad_naked_new.cc", "naked-new", "src/fix.cc"},
    {"bad_wall_clock.cc", "wall-clock", "src/fix.cc"},
    {"bad_charge_span.cc", "charge-span", "src/fix.cc"},
    {"bad_tier_xray.cc", "tier-xray", "src/fix.cc"},
    {"bad_telemetry_purity.cc", "telemetry-purity", "src/fix.cc"},
    {"bad_xray_int.cc", "telemetry-purity", "src/xray/fix.cc"},
    {"bad_metrics_purity.cc", "telemetry-purity", "src/metrics/fix.cc"},
    {"bad_loose_hotness_key.cc", "loose-hotness-key", "tests/fix.cc"},
    {"bad_retired_api.cc", "retired-api", "src/fix.cc"},
    {"bad_soa_field_write.cc", "soa-field-write", "src/fix.cc"},
    {"bad_soa_cache_file.cc", "soa-field-write", "src/fix.cc"},
};

TEST(Analyze, CatalogHasTwelveRules)
{
    EXPECT_EQ(ruleIds().size(), 12u);
    // Every fixture case names a cataloged rule.
    for (const Case &c : kCases) {
        EXPECT_NE(std::find(ruleIds().begin(), ruleIds().end(),
                            std::string(c.rule)),
                  ruleIds().end())
            << c.rule;
    }
}

TEST(Analyze, EveryRuleFiresOnItsFixture)
{
    for (const Case &c : kCases) {
        const auto fs = analyzeFixture(c.fixture, c.vpath);
        EXPECT_TRUE(hasRule(fs, c.rule))
            << c.fixture << " did not trip " << c.rule;
        for (const Finding &f : fs) {
            EXPECT_EQ(f.file, c.vpath);
            EXPECT_GE(f.line, 1);
            EXPECT_FALSE(f.excerpt.empty());
            EXPECT_FALSE(f.message.empty());
        }
    }
}

TEST(Analyze, DisablingTheRuleSilencesItsFixture)
{
    // The liveness proof: with exactly the rule under test switched
    // off, its finding disappears. A rule whose check was dead code
    // would fail EveryRuleFiresOnItsFixture; a finding produced by a
    // *different* rule would fail here.
    for (const Case &c : kCases) {
        const auto fs = analyzeFixture(c.fixture, c.vpath, {c.rule});
        EXPECT_FALSE(hasRule(fs, c.rule))
            << c.fixture << " still trips " << c.rule
            << " with the rule disabled";
    }
}

TEST(Analyze, CleanFixtureIsQuiet)
{
    const auto fs = analyzeFixture("clean.cc", "src/clean.cc");
    for (const Finding &f : fs) {
        ADD_FAILURE() << f.rule << " fired on clean.cc:" << f.line
                      << ": " << f.excerpt;
    }
}

TEST(Analyze, SuppressionCommentsSilenceFindings)
{
    // suppressed.cc holds a real unordered-iter violation (silenced by
    // the preceding-line ordered-insensitive alias) and a real
    // raw-assert (silenced same-line).
    const auto fs = analyzeFixture("suppressed.cc", "src/fix.cc");
    for (const Finding &f : fs) {
        ADD_FAILURE() << f.rule << " fired despite suppression at line "
                      << f.line;
    }
}

TEST(Analyze, PathScopingConfinesRules)
{
    // telemetry-purity's float/double leg only fires under src/xray/
    // and src/metrics/; its guard and observation-block legs fire
    // anywhere in src. loose-hotness-key only runs under the harness
    // trees (tests/bench/examples).
    const auto xf =
        analyzeFixture("bad_xray_int.cc", "src/guestos/fix.cc");
    EXPECT_FALSE(hasRule(xf, "telemetry-purity"));
    const auto mf =
        analyzeFixture("bad_metrics_purity.cc", "src/guestos/fix.cc");
    for (const Finding &f : mf) {
        if (f.rule == "telemetry-purity") {
            EXPECT_EQ(f.excerpt.find("double"), std::string::npos)
                << "float ban escaped src/xray + src/metrics scoping";
        }
    }
    EXPECT_TRUE(hasRule(mf, "telemetry-purity"));
    // Each of those legs: the HOS_METRICS_LEVEL guard and the
    // metrics::active() block.
    for (const char *call : {"charge(", "migrateBatch("}) {
        EXPECT_TRUE(std::any_of(mf.begin(), mf.end(),
                                [&](const Finding &f) {
                                    return f.rule == "telemetry-purity" &&
                                           f.excerpt.find(call) !=
                                               std::string::npos;
                                }))
            << call << " not flagged";
    }
    const auto in_metrics =
        analyzeFixture("bad_metrics_purity.cc", "src/metrics/fix.cc");
    EXPECT_TRUE(std::any_of(in_metrics.begin(), in_metrics.end(),
                            [](const Finding &f) {
                                return f.excerpt.find("double") !=
                                       std::string::npos;
                            }))
        << "float ban silent under src/metrics";
    const auto lf =
        analyzeFixture("bad_loose_hotness_key.cc", "src/fix.cc");
    EXPECT_FALSE(hasRule(lf, "loose-hotness-key"));
}

TEST(Analyze, BaselineRoundTrip)
{
    const auto fs = analyzeFixture("bad_raw_assert.cc", "src/fix.cc");
    ASSERT_FALSE(fs.empty());
    // Serialize the way --write-baseline does, with decoration the
    // parser must ignore.
    std::ostringstream text;
    text << "# hos-analyze baseline\n\n";
    for (const Finding &f : fs)
        text << "  " << baselineKey(f) << "\t\n";
    const auto keys = parseBaseline(text.str());
    EXPECT_EQ(keys.size(), fs.size());
    for (const Finding &f : fs) {
        EXPECT_TRUE(keys.count(baselineKey(f)))
            << baselineKey(f) << " lost in round trip";
        // Keys carry no line numbers: edits above a grandfathered
        // finding must not invalidate the baseline.
        EXPECT_EQ(baselineKey(f).find(std::to_string(f.line) + ":"),
                  std::string::npos);
    }
}

TEST(Analyze, MultiRuleSuppressionListParses)
{
    const std::string src = "#include <cassert>\n"
                            "void f() {\n"
                            "    // hos-analyze: raw-assert, naked-new (both)\n"
                            "    int *p = new int(assert(1), 2);\n"
                            "}\n";
    LexedFile f = lex("src/fix.cc", src);
    const GlobalNames names;
    const auto fs = analyzeFile(f, names, Options{});
    EXPECT_FALSE(hasRule(fs, "raw-assert"));
    EXPECT_FALSE(hasRule(fs, "naked-new"));
}

} // namespace
