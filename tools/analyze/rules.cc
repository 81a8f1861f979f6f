#include "rules.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>

namespace hos::analyze {

namespace {

using TokVec = std::vector<Token>;

const std::vector<std::string> kRuleIds = {
    "unordered-iter",   "ptr-key-ordered",   "ptr-hash",
    "raw-assert",       "naked-new",         "wall-clock",
    "charge-span",      "tier-xray",         "telemetry-purity",
    "loose-hotness-key", "retired-api",      "soa-field-write",
};

/** Preprocessor levels that mark a telemetry-only region. */
const std::array<const char *, 4> kTelemetryGuards = {
    "HOS_PROF_LEVEL", "HOS_XRAY_LEVEL", "HOS_METRICS_LEVEL",
    "HOS_CHECK_LEVEL"};

const std::array<const char *, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/** Sim-state APIs that telemetry-only regions must never call. */
const std::array<const char *, 14> kMutators = {
    "charge",        "retarget",        "allocFrame",
    "freeFrame",     "allocPage",       "freePage",
    "mapPage",       "evictPage",       "populatePages",
    "unpopulatePages", "schedulePeriodic", "migrateBatch",
    "promoteWithEviction", "demotePage"};

struct LooseKey {
    const char *key;
    const char *structured;
};
const std::array<LooseKey, 4> kLooseKeys = {{
    {"interval", "hotness.interval_ms"},
    {"pages_per_scan", "hotness.pages_per_scan"},
    {"hot_threshold", "hotness.hot_threshold"},
    {"adaptive", "hotness.adaptive"},
}};

const std::array<const char *, 4> kRetiredApis = {"RunSpec", "runApp",
                                                 "runFactory", "hostFor"};

/**
 * PageArray's SoA columns (trailing-underscore members) and the page
 * fields they own. Writes go through PageRef setters (or
 * PageArray::setAllocated); only guestos/page.{hh,cc} may touch the
 * columns directly.
 */
const std::array<const char *, 6> kSoaColumns = {
    "pte_accessed_", "allocated_", "heat_",
    "last_touch_",   "meta_",      "rmap_"};
const std::array<const char *, 13> kSoaFields = {
    "pte_accessed", "last_touch",  "on_list",   "in_buddy",
    "buddy_order",  "under_io",    "unevictable", "owner_process",
    "link_next",    "link_prev",   "list_id",   "mem_type",
    "cache_file"};

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
underDir(const std::string &path, const std::string &dir)
{
    return startsWith(path, dir + "/");
}

bool
isUnorderedContainerName(const std::string &s)
{
    return std::find(kUnorderedContainers.begin(),
                     kUnorderedContainers.end(),
                     s) != kUnorderedContainers.end();
}

std::string
squeeze(const std::string &s)
{
    std::string out;
    bool in_ws = true;
    for (char c : s) {
        if (c == ' ' || c == '\t') {
            if (!in_ws)
                out += ' ';
            in_ws = true;
        } else {
            out += c;
            in_ws = false;
        }
    }
    while (!out.empty() && out.back() == ' ')
        out.pop_back();
    return out;
}

/** Index of the matching close bracket, or ts.size(). Open/close are
 *  single-char punct ("(", ")", "{", "}", "<", ">"). */
std::size_t
matchForward(const TokVec &ts, std::size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < ts.size(); ++j) {
        if (ts[j].kind != Token::Kind::Punct)
            continue;
        if (ts[j].text == open) {
            ++depth;
        } else if (ts[j].text == close) {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return ts.size();
}

/** Index of the matching open bracket scanning backwards, or npos. */
std::size_t
matchBackward(const TokVec &ts, std::size_t i, const char *open,
              const char *close)
{
    int depth = 0;
    for (std::size_t j = i + 1; j-- > 0;) {
        if (ts[j].kind != Token::Kind::Punct)
            continue;
        if (ts[j].text == close) {
            ++depth;
        } else if (ts[j].text == open) {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return static_cast<std::size_t>(-1);
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Punct && t.text == text;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Ident && t.text == text;
}

/**
 * Outermost function-body token ranges [open_brace, close_brace].
 * A `{` starts a function body when we are not already inside one
 * and the previous token closes a parameter list or a trailing
 * qualifier: `)`, `const`, `noexcept`, `override`, `final`. Class,
 * namespace, and initializer braces never match that shape; control
 * flow braces only occur inside an already-open body.
 */
std::vector<std::pair<std::size_t, std::size_t>>
functionRanges(const TokVec &ts)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int depth = 0;
    int fn_depth = 0;
    bool in_fn = false;
    std::size_t fn_start = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (isPunct(ts[i], "{")) {
            if (!in_fn && i > 0) {
                const Token &p = ts[i - 1];
                if (isPunct(p, ")") || isIdent(p, "const") ||
                    isIdent(p, "noexcept") || isIdent(p, "override") ||
                    isIdent(p, "final")) {
                    in_fn = true;
                    fn_depth = depth;
                    fn_start = i;
                }
            }
            ++depth;
        } else if (isPunct(ts[i], "}")) {
            --depth;
            if (in_fn && depth == fn_depth) {
                out.emplace_back(fn_start, i);
                in_fn = false;
            }
        }
    }
    return out;
}

/** Names bound in the parameter list belonging to the function body
 *  opening at ts[open] — they shadow same-named sim-state members
 *  collected from headers. */
std::set<std::string>
parameterNames(const TokVec &ts, std::size_t open)
{
    std::set<std::string> out;
    // Walk back over trailing qualifiers to the `)` of the signature.
    std::size_t j = open;
    while (j > 0) {
        --j;
        if (isPunct(ts[j], ")"))
            break;
        if (ts[j].kind != Token::Kind::Ident)
            return out; // not a plain signature; give up quietly
    }
    if (j == 0 || !isPunct(ts[j], ")"))
        return out;
    const std::size_t lp = matchBackward(ts, j, "(", ")");
    if (lp == static_cast<std::size_t>(-1))
        return out;
    // A parameter name is the identifier immediately before `,`, `)`,
    // or `=` (default argument) at paren depth 1.
    int depth = 0;
    for (std::size_t k = lp; k <= j; ++k) {
        if (isPunct(ts[k], "(")) {
            ++depth;
        } else if (isPunct(ts[k], ")")) {
            --depth;
        }
        if (depth != 1 || k + 1 > j)
            continue;
        if (ts[k].kind == Token::Kind::Ident &&
            (isPunct(ts[k + 1], ",") || isPunct(ts[k + 1], ")") ||
             isPunct(ts[k + 1], "="))) {
            out.insert(ts[k].text);
        }
    }
    return out;
}

/** Scan one file for unordered-container declarations. Appends
 *  variable names, accessor function names, and using-aliases. */
void
collectFromFile(const LexedFile &f, GlobalNames &g, bool header_only)
{
    const TokVec &ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Token::Kind::Ident ||
            !isUnorderedContainerName(ts[i].text)) {
            continue;
        }
        if (i < 2 || !isPunct(ts[i - 1], "::") ||
            !isIdent(ts[i - 2], "std")) {
            continue;
        }
        if (i + 1 >= ts.size() || !isPunct(ts[i + 1], "<"))
            continue;
        // `using Alias = std::unordered_map<...>;`
        if (i >= 5 && isPunct(ts[i - 3], "=") &&
            ts[i - 4].kind == Token::Kind::Ident &&
            isIdent(ts[i - 5], "using")) {
            g.unordered_types.insert(ts[i - 4].text);
            continue;
        }
        const std::size_t close = matchForward(ts, i + 1, "<", ">");
        if (close >= ts.size())
            continue;
        std::size_t j = close + 1;
        while (j < ts.size() &&
               (isPunct(ts[j], "&") || isPunct(ts[j], "*") ||
                isIdent(ts[j], "const"))) {
            ++j;
        }
        if (j + 1 >= ts.size() || ts[j].kind != Token::Kind::Ident)
            continue;
        const Token &next = ts[j + 1];
        if (isPunct(next, "(")) {
            if (!header_only)
                g.unordered_fns.insert(ts[j].text);
        } else if (isPunct(next, ";") || isPunct(next, "=") ||
                   isPunct(next, "{") || isPunct(next, ",") ||
                   isPunct(next, ")")) {
            if (!header_only)
                g.unordered_vars.insert(ts[j].text);
        }
    }
}

/** Alias-typed declarations: `Alias name ;` for a known alias. */
void
collectAliasDecls(const LexedFile &f, GlobalNames &g)
{
    const TokVec &ts = f.tokens;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (ts[i].kind != Token::Kind::Ident ||
            g.unordered_types.count(ts[i].text) == 0) {
            continue;
        }
        if (ts[i + 1].kind == Token::Kind::Ident &&
            (isPunct(ts[i + 2], ";") || isPunct(ts[i + 2], "=") ||
             isPunct(ts[i + 2], "{"))) {
            g.unordered_vars.insert(ts[i + 1].text);
        }
    }
}

/**
 * Per-file analysis context: findings, suppression filtering, and
 * the per-function shadow/taint machinery for unordered-iter.
 */
class FileAnalysis
{
  public:
    FileAnalysis(const LexedFile &f, const GlobalNames &names,
                 const Options &opts)
        : f_(f), names_(names), opts_(opts), fns_(functionRanges(f.tokens))
    {
    }

    std::vector<Finding> run()
    {
        collectLocalTaint();
        if (on("unordered-iter"))
            unorderedIter();
        if (on("ptr-key-ordered"))
            ptrKeyOrdered();
        if (on("ptr-hash"))
            ptrHash();
        if (on("raw-assert"))
            rawAssert();
        if (on("naked-new"))
            nakedNew();
        if (on("wall-clock"))
            wallClock();
        if (on("charge-span"))
            chargeSpan();
        if (on("tier-xray"))
            tierXray();
        if (on("telemetry-purity"))
            telemetryPurity();
        if (on("loose-hotness-key"))
            looseHotnessKey();
        if (on("retired-api"))
            retiredApi();
        if (on("soa-field-write"))
            soaFieldWrite();
        std::sort(out_.begin(), out_.end(),
                  [](const Finding &a, const Finding &b) {
                      if (a.line != b.line)
                          return a.line < b.line;
                      if (a.col != b.col)
                          return a.col < b.col;
                      return a.rule < b.rule;
                  });
        return std::move(out_);
    }

  private:
    bool on(const std::string &rule) const
    {
        return opts_.disabled.count(rule) == 0 &&
               ruleAppliesTo(rule, f_.path);
    }

    bool suppressed(const std::string &rule, int line) const
    {
        for (int l : {line, line - 1}) {
            auto it = f_.suppressions.find(l);
            if (it == f_.suppressions.end())
                continue;
            if (it->second.count(rule) || it->second.count("all"))
                return true;
        }
        return false;
    }

    void emit(const std::string &rule, const Token &t,
              std::string message)
    {
        if (suppressed(rule, t.line))
            return;
        Finding fi;
        fi.rule = rule;
        fi.file = f_.path;
        fi.line = t.line;
        fi.col = t.col;
        fi.message = std::move(message);
        if (t.line >= 1 &&
            static_cast<std::size_t>(t.line) <= f_.lines.size()) {
            fi.excerpt = squeeze(f_.lines[t.line - 1]);
        }
        out_.push_back(std::move(fi));
    }

    const TokVec &ts() const { return f_.tokens; }

    /** Enclosing outermost function range, or (npos, npos). */
    std::pair<std::size_t, std::size_t> enclosingFn(std::size_t i) const
    {
        for (const auto &r : fns_) {
            if (i > r.first && i < r.second)
                return r;
        }
        return {static_cast<std::size_t>(-1),
                static_cast<std::size_t>(-1)};
    }

    // ---- unordered-iter taint machinery --------------------------

    void collectLocalTaint()
    {
        // Local/param declarations of unordered type in this file.
        GlobalNames local;
        local.unordered_types = names_.unordered_types;
        collectFromFile(f_, local, /*header_only=*/false);
        collectAliasDecls(f_, local);
        local_vars_ = std::move(local.unordered_vars);
        local_fns_ = std::move(local.unordered_fns);

        // One level of reference-alias taint:
        //   auto &alias = <expr touching unordered state>;
        const TokVec &t = ts();
        for (std::size_t i = 0; i + 3 < t.size(); ++i) {
            if (!isIdent(t[i], "auto"))
                continue;
            std::size_t j = i + 1;
            while (j < t.size() &&
                   (isIdent(t[j], "const") || isPunct(t[j], "&") ||
                    isPunct(t[j], "*"))) {
                ++j;
            }
            if (j + 1 >= t.size() || t[j].kind != Token::Kind::Ident ||
                !isPunct(t[j + 1], "=")) {
                continue;
            }
            int depth = 0;
            for (std::size_t k = j + 2;
                 k < t.size() && !isPunct(t[k], ";"); ++k) {
                // Stay inside the initializer: an unbalanced `)`
                // closes an enclosing if-condition, and what follows
                // is a different statement.
                if (isPunct(t[k], "(")) {
                    ++depth;
                } else if (isPunct(t[k], ")")) {
                    if (--depth < 0)
                        break;
                }
                if (t[k].kind != Token::Kind::Ident)
                    continue;
                // A tainted name followed by `.`/`->` is a method
                // call on the container (find, count, ...): the
                // alias binds the result, not the container.
                const bool derived =
                    k + 1 < t.size() && (isPunct(t[k + 1], ".") ||
                                         isPunct(t[k + 1], "-"));
                if ((tainted(t[k].text, i) && !derived) ||
                    (unorderedFn(t[k].text) && k + 1 < t.size() &&
                     isPunct(t[k + 1], "("))) {
                    local_vars_.insert(t[j].text);
                    break;
                }
            }
        }
    }

    bool unorderedFn(const std::string &name) const
    {
        return local_fns_.count(name) != 0 ||
               names_.unordered_fns.count(name) != 0;
    }

    /** Is `name` unordered sim state at token index `at`? Parameters
     *  of the enclosing function shadow header-declared members. */
    bool tainted(const std::string &name, std::size_t at) const
    {
        if (local_vars_.count(name))
            return true;
        if (names_.unordered_vars.count(name) == 0)
            return false;
        const auto fn = enclosingFn(at);
        if (fn.first == static_cast<std::size_t>(-1))
            return true;
        auto it = shadow_cache_.find(fn.first);
        if (it == shadow_cache_.end()) {
            it = shadow_cache_
                     .emplace(fn.first, parameterNames(ts(), fn.first))
                     .first;
        }
        return it->second.count(name) == 0;
    }

    // ---- determinism rules ---------------------------------------

    void unorderedIter()
    {
        const TokVec &t = ts();
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            // Range-for whose range expression touches unordered state.
            if (isIdent(t[i], "for") && isPunct(t[i + 1], "(")) {
                const std::size_t close =
                    matchForward(t, i + 1, "(", ")");
                if (close >= t.size())
                    continue;
                std::size_t colon = t.size();
                int depth = 0;
                for (std::size_t k = i + 1; k < close; ++k) {
                    if (isPunct(t[k], "(")) {
                        ++depth;
                    } else if (isPunct(t[k], ")")) {
                        --depth;
                    } else if (depth == 1 && isPunct(t[k], ":")) {
                        colon = k;
                        break;
                    }
                }
                if (colon == t.size())
                    continue;
                for (std::size_t k = colon + 1; k < close; ++k) {
                    if (t[k].kind != Token::Kind::Ident)
                        continue;
                    const bool var_hit = tainted(t[k].text, k);
                    const bool fn_hit = unorderedFn(t[k].text) &&
                                        k + 1 < close &&
                                        isPunct(t[k + 1], "(");
                    if (var_hit || fn_hit) {
                        emit("unordered-iter", t[i],
                             "iteration order of '" + t[k].text +
                                 "' (std::unordered_*) can leak into "
                                 "results; use an ordered walk or "
                                 "annotate `// hos-analyze: "
                                 "ordered-insensitive (why)`");
                        break;
                    }
                }
                continue;
            }
            // explicit .begin()/.cbegin()/... on unordered state
            if (t[i].kind == Token::Kind::Ident &&
                (t[i].text == "begin" || t[i].text == "cbegin" ||
                 t[i].text == "rbegin" || t[i].text == "crbegin") &&
                i >= 2 && isPunct(t[i - 1], ".") &&
                isPunct(t[i + 1], "(")) {
                const Token &recv = t[i - 2];
                bool hit = false;
                std::string what;
                if (recv.kind == Token::Kind::Ident &&
                    tainted(recv.text, i - 2)) {
                    hit = true;
                    what = recv.text;
                } else if (isPunct(recv, ")")) {
                    const std::size_t lp =
                        matchBackward(t, i - 2, "(", ")");
                    if (lp != static_cast<std::size_t>(-1) && lp > 0 &&
                        t[lp - 1].kind == Token::Kind::Ident &&
                        unorderedFn(t[lp - 1].text)) {
                        hit = true;
                        what = t[lp - 1].text;
                    }
                }
                if (hit) {
                    emit("unordered-iter", t[i],
                         "explicit iterator over unordered '" + what +
                             "'; traversal order is not part of the "
                             "simulation contract");
                }
            }
        }
    }

    void ptrKeyOrdered()
    {
        const TokVec &t = ts();
        for (std::size_t i = 2; i + 1 < t.size(); ++i) {
            if (t[i].kind != Token::Kind::Ident ||
                (t[i].text != "map" && t[i].text != "set" &&
                 t[i].text != "multimap" && t[i].text != "multiset")) {
                continue;
            }
            if (!isPunct(t[i - 1], "::") || !isIdent(t[i - 2], "std") ||
                !isPunct(t[i + 1], "<")) {
                continue;
            }
            if (firstTemplateArgIsPointer(i + 1)) {
                emit("ptr-key-ordered", t[i],
                     "std::" + t[i].text +
                         " keyed on a raw pointer: ordering follows "
                         "allocation addresses, which vary run to run");
            }
        }
    }

    void ptrHash()
    {
        const TokVec &t = ts();
        for (std::size_t i = 2; i + 1 < t.size(); ++i) {
            if (!isIdent(t[i], "hash") || !isPunct(t[i - 1], "::") ||
                !isIdent(t[i - 2], "std") || !isPunct(t[i + 1], "<")) {
                continue;
            }
            if (firstTemplateArgIsPointer(i + 1)) {
                emit("ptr-hash", t[i],
                     "std::hash of a pointer hashes the address, not "
                     "the object: bucket order varies run to run");
            }
        }
    }

    /** ts[open] == "<"; true when the first template argument's last
     *  token is `*` (a raw pointer type). */
    bool firstTemplateArgIsPointer(std::size_t open) const
    {
        const TokVec &t = ts();
        const std::size_t close = matchForward(t, open, "<", ">");
        if (close >= t.size())
            return false;
        std::size_t last = open;
        int depth = 0;
        for (std::size_t k = open + 1; k < close; ++k) {
            if (isPunct(t[k], "<")) {
                ++depth;
            } else if (isPunct(t[k], ">")) {
                --depth;
            } else if (depth == 0 && isPunct(t[k], ",")) {
                break;
            }
            last = k;
        }
        return last > open && isPunct(t[last], "*");
    }

    void rawAssert()
    {
        const TokVec &t = ts();
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (isIdent(t[i], "assert") && isPunct(t[i + 1], "(")) {
                emit("raw-assert", t[i],
                     "raw assert() compiles out in release; use "
                     "hos_assert (sim-tick stamped, always active)");
            }
        }
    }

    void nakedNew()
    {
        const TokVec &t = ts();
        for (std::size_t i = 1; i < t.size(); ++i) {
            if (isIdent(t[i], "new") &&
                (isPunct(t[i - 1], "=") || isIdent(t[i - 1], "return"))) {
                emit("naked-new", t[i],
                     "naked new transfers ownership untyped; use "
                     "std::make_unique or a container");
            }
        }
    }

    void wallClock()
    {
        const TokVec &t = ts();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != Token::Kind::Ident)
                continue;
            const std::string &id = t[i].text;
            const bool clock_name =
                id == "gettimeofday" || id == "clock_gettime" ||
                id == "steady_clock" || id == "system_clock" ||
                id == "high_resolution_clock";
            const bool std_chrono =
                id == "chrono" && i >= 2 && isPunct(t[i - 1], "::") &&
                isIdent(t[i - 2], "std");
            const bool time_call =
                id == "time" && i + 3 < t.size() &&
                isPunct(t[i + 1], "(") &&
                (isIdent(t[i + 2], "NULL") ||
                 isIdent(t[i + 2], "nullptr") ||
                 (t[i + 2].kind == Token::Kind::Number &&
                  t[i + 2].text == "0")) &&
                isPunct(t[i + 3], ")");
            if (clock_name || std_chrono || time_call) {
                emit("wall-clock", t[i],
                     "host time in simulation code diverges under the "
                     "parallel sweep runner; use sim time "
                     "(EventQueue::now)");
            }
        }
    }

    // ---- instrumentation completeness ----------------------------

    void chargeSpan()
    {
        const TokVec &t = ts();
        for (const auto &fn : fns_) {
            bool has_span = false;
            for (std::size_t i = fn.first; i < fn.second; ++i) {
                if (isIdent(t[i], "HOS_PROF_SPAN")) {
                    has_span = true;
                    break;
                }
            }
            if (has_span)
                continue;
            for (std::size_t i = fn.first; i < fn.second; ++i) {
                if (!isIdent(t[i], "charge") || i + 1 >= fn.second ||
                    !isPunct(t[i + 1], "(")) {
                    continue;
                }
                // A call passes an enumerator (OverheadKind::X); a
                // declaration binds a parameter (OverheadKind kind).
                for (std::size_t k = i + 2;
                     k < std::min(i + 6, fn.second); ++k) {
                    if (isIdent(t[k], "OverheadKind") &&
                        k + 1 < fn.second && isPunct(t[k + 1], "::")) {
                        emit("charge-span", t[i],
                             "kernel charge() outside any "
                             "HOS_PROF_SPAN: the cost lands in the "
                             "ledger with no span to attribute it to");
                        break;
                    }
                }
            }
        }
    }

    void tierXray()
    {
        const TokVec &t = ts();
        for (const auto &fn : fns_) {
            bool has_ring = false;
            for (std::size_t i = fn.first; i < fn.second; ++i) {
                if (isIdent(t[i], "onTierChange") ||
                    isIdent(t[i], "onGuestMove")) {
                    has_ring = true;
                    break;
                }
            }
            if (has_ring)
                continue;
            for (std::size_t i = fn.first; i < fn.second; ++i) {
                if (t[i].kind != Token::Kind::Ident ||
                    (t[i].text != "set" && t[i].text != "setRun" &&
                     t[i].text != "clear") ||
                    i < 2 || !isPunct(t[i - 1], ".") ||
                    i + 1 >= fn.second || !isPunct(t[i + 1], "(")) {
                    continue;
                }
                if (receiverMentionsP2m(i - 2, fn.first)) {
                    emit("tier-xray",
                         t[i],
                         "P2M " + t[i].text +
                             "() retargets a page's tier without "
                             "ringing xray (onTierChange/onGuestMove); "
                             "placement telemetry goes blind here");
                }
            }
        }
    }

    /** Walk the receiver chain left of a `.set(` / `.clear(` call a
     *  few tokens back looking for a p2m-ish identifier. */
    bool receiverMentionsP2m(std::size_t i, std::size_t floor) const
    {
        const TokVec &t = ts();
        std::size_t steps = 0;
        std::size_t j = i + 1;
        while (j-- > floor && steps++ < 8) {
            const Token &tok = t[j];
            if (tok.kind == Token::Kind::Ident) {
                std::string low;
                for (char c : tok.text)
                    low += static_cast<char>(std::tolower(
                        static_cast<unsigned char>(c)));
                if (startsWith(low, "p2m"))
                    return true;
                continue;
            }
            if (isPunct(tok, ".") || isPunct(tok, "(") ||
                isPunct(tok, ")") || isPunct(tok, "::") ||
                isPunct(tok, ">") || isPunct(tok, "-")) {
                continue; // still in the receiver chain (incl. ->)
            }
            break;
        }
        return false;
    }

    // ---- telemetry purity ----------------------------------------

    bool bannedMutator(const std::string &id) const
    {
        return std::find(kMutators.begin(), kMutators.end(), id) !=
               kMutators.end();
    }

    /**
     * Telemetry observes the run, it never steers it: a mutating
     * sim-state call inside a telemetry-level guard or inside an
     * `if (xray::active())` / `if (metrics::active())` observation
     * block would make the telemetry-off build behave differently.
     * src/xray and src/metrics are also integer-only, so their
     * reports serialize bit-identically across build flags.
     */
    void telemetryPurity()
    {
        const TokVec &t = ts();
        // (a) float/double under the integer-only telemetry trees
        if (startsWith(f_.path, "src/xray/") ||
            startsWith(f_.path, "src/metrics/")) {
            for (const Token &tok : t) {
                if (tok.kind == Token::Kind::Ident &&
                    (tok.text == "float" || tok.text == "double")) {
                    emit("telemetry-purity", tok,
                         "src/xray and src/metrics are integer-only: "
                         "floating point rounds differently across "
                         "build flags; use ticks, counts, basis "
                         "points or ppm");
                }
            }
        }
        // (b) preprocessor-guarded telemetry regions
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != Token::Kind::Ident ||
                !bannedMutator(t[i].text) || !isPunct(t[i + 1], "(")) {
                continue;
            }
            for (const char *guard : kTelemetryGuards) {
                if (f_.guardMentions(t[i], guard)) {
                    emit("telemetry-purity", t[i],
                         "mutating call '" + t[i].text +
                             "()' inside a " + guard +
                             " guard: the telemetry-off build would "
                             "behave differently");
                    break;
                }
            }
        }
        // (c) `if (... xray::active() ...) { ... }` and the same for
        // metrics::active(): observation blocks
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (!isIdent(t[i], "if") || !isPunct(t[i + 1], "("))
                continue;
            const std::size_t close = matchForward(t, i + 1, "(", ")");
            if (close >= t.size())
                continue;
            const Token *consumer = nullptr;
            for (std::size_t k = i + 2; k + 2 < close; ++k) {
                if ((isIdent(t[k], "xray") || isIdent(t[k], "metrics")) &&
                    isPunct(t[k + 1], "::") &&
                    isIdent(t[k + 2], "active")) {
                    consumer = &t[k];
                    break;
                }
            }
            if (consumer == nullptr || close + 1 >= t.size())
                continue;
            std::size_t body_end;
            std::size_t body_begin = close + 1;
            if (isPunct(t[body_begin], "{")) {
                body_end = matchForward(t, body_begin, "{", "}");
            } else {
                body_end = body_begin;
                while (body_end < t.size() &&
                       !isPunct(t[body_end], ";")) {
                    ++body_end;
                }
            }
            for (std::size_t k = body_begin;
                 k < std::min(body_end, t.size()); ++k) {
                if (t[k].kind == Token::Kind::Ident &&
                    bannedMutator(t[k].text) && k + 1 < t.size() &&
                    isPunct(t[k + 1], "(")) {
                    emit("telemetry-purity", t[k],
                         "mutating call '" + t[k].text +
                             "()' inside a " + consumer->text +
                             "::active() observation block: telemetry "
                             "must observe decisions, never make them");
                }
            }
        }
    }

    // ---- hygiene -------------------------------------------------

    void looseHotnessKey()
    {
        const TokVec &t = ts();
        for (const Token &tok : t) {
            if (tok.kind != Token::Kind::Str)
                continue;
            for (const LooseKey &lk : kLooseKeys) {
                if (looseKeyInLiteral(tok.text, lk.key)) {
                    emit("loose-hotness-key", tok,
                         std::string("loose hotness key '") + lk.key +
                             "' is rejected; use the structured '" +
                             lk.structured + "' spelling");
                    break;
                }
            }
        }
    }

    static bool looseKeyInLiteral(const std::string &s,
                                  const std::string &key)
    {
        if (s == key)
            return true;
        // JSON spelling: `"key":` (the structured form nests under
        // "hotness", so a top-level quoted key is the loose shim).
        if (s.find("\"" + key + "\":") != std::string::npos)
            return true;
        // `key=value` spelling (CLI --set / sweep axes). A dot right
        // before the key is the structured `hotness.` prefix.
        std::size_t at = 0;
        const std::string needle = key + "=";
        while ((at = s.find(needle, at)) != std::string::npos) {
            // '.' = structured prefix, '-'/'_'/alnum = part of a
            // longer word (--stats-interval=, scan_interval=, ...).
            const char before = at == 0 ? '\0' : s[at - 1];
            if (before != '.' && before != '_' && before != '-' &&
                !(std::isalnum(static_cast<unsigned char>(before)))) {
                return true;
            }
            at += needle.size();
        }
        return false;
    }

    void retiredApi()
    {
        const TokVec &t = ts();
        for (const Token &tok : t) {
            if (tok.kind != Token::Kind::Ident)
                continue;
            for (const char *name : kRetiredApis) {
                if (tok.text == name) {
                    emit("retired-api", tok,
                         std::string("retired pre-Scenario API name '") +
                             name + "'; use core::Scenario / run()");
                    break;
                }
            }
        }
    }

    void soaFieldWrite()
    {
        const TokVec &t = ts();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != Token::Kind::Ident)
                continue;
            // Direct indexing of a PageArray SoA column.
            for (const char *col : kSoaColumns) {
                if (t[i].text == col && i + 1 < t.size() &&
                    isPunct(t[i + 1], "[")) {
                    emit("soa-field-write", t[i],
                         std::string("direct access to SoA column '") +
                             col +
                             "'; page state goes through PageRef "
                             "accessors (or PageArray::setAllocated)");
                    break;
                }
            }
            // AoS-style member write through a retired Page field:
            // `x.field =`, `x->field =`, and compound assignments.
            if (i == 0 || i + 1 >= t.size())
                continue;
            const bool member =
                isPunct(t[i - 1], ".") ||
                (isPunct(t[i - 1], ">") && i >= 2 &&
                 isPunct(t[i - 2], "-"));
            if (!member)
                continue;
            bool writes = false;
            if (isPunct(t[i + 1], "=") &&
                !(i + 2 < t.size() && isPunct(t[i + 2], "="))) {
                writes = true; // plain `=` but not `==`
            } else if (i + 2 < t.size() && isPunct(t[i + 2], "=") &&
                       (isPunct(t[i + 1], "+") ||
                        isPunct(t[i + 1], "-") ||
                        isPunct(t[i + 1], "|") ||
                        isPunct(t[i + 1], "&") ||
                        isPunct(t[i + 1], "^"))) {
                writes = true; // compound assignment
            }
            if (!writes)
                continue;
            for (const char *field : kSoaFields) {
                if (t[i].text == field) {
                    emit("soa-field-write", t[i],
                         std::string("direct write to page field '") +
                             field +
                             "'; use the PageRef setter (set" +
                             "...) so the SoA layout stays owned "
                             "by guestos/page.hh");
                    break;
                }
            }
        }
    }

    const LexedFile &f_;
    const GlobalNames &names_;
    const Options &opts_;
    std::vector<std::pair<std::size_t, std::size_t>> fns_;
    std::set<std::string> local_vars_;
    std::set<std::string> local_fns_;
    mutable std::map<std::size_t, std::set<std::string>> shadow_cache_;
    std::vector<Finding> out_;
};

} // namespace

const std::vector<std::string> &
ruleIds()
{
    return kRuleIds;
}

bool
ruleAppliesTo(const std::string &rule, const std::string &path)
{
    const bool in_src = underDir(path, "src");
    const bool in_harness = underDir(path, "tests") ||
                            underDir(path, "bench") ||
                            underDir(path, "examples");
    if (rule == "loose-hotness-key")
        return in_harness;
    if (rule == "retired-api")
        return in_src || in_harness;
    if (rule == "soa-field-write")
        return (in_src || in_harness) &&
               path != "src/guestos/page.hh" &&
               path != "src/guestos/page.cc";
    if (rule == "wall-clock")
        return in_src && !startsWith(path, "src/prof/");
    return in_src;
}

GlobalNames
collectNames(const std::vector<LexedFile> &files)
{
    GlobalNames g;
    // Cross-file taint comes only from headers: that is where shared
    // sim-state members and accessors are declared. Locals inside a
    // .cc are collected per file during analysis, where parameter
    // shadowing can be applied.
    for (const LexedFile &f : files) {
        if (f.path.size() >= 3 &&
            f.path.compare(f.path.size() - 3, 3, ".hh") == 0) {
            collectFromFile(f, g, /*header_only=*/false);
        }
    }
    for (const LexedFile &f : files)
        collectAliasDecls(f, g);
    return g;
}

std::vector<Finding>
analyzeFile(const LexedFile &file, const GlobalNames &names,
            const Options &opts)
{
    return FileAnalysis(file, names, opts).run();
}

std::string
baselineKey(const Finding &f)
{
    return f.rule + "|" + f.file + "|" + f.excerpt;
}

std::set<std::string>
parseBaseline(const std::string &text)
{
    std::set<std::string> out;
    std::string line;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == '\n') {
            std::size_t b = line.find_first_not_of(" \t");
            if (b != std::string::npos && line[b] != '#') {
                std::size_t e = line.find_last_not_of(" \t\r");
                out.insert(line.substr(b, e - b + 1));
            }
            line.clear();
        } else {
            line += text[i];
        }
    }
    return out;
}

} // namespace hos::analyze
