/**
 * @file
 * Command-line helpers shared by run_experiment and hos-inspect: the
 * did-you-mean hint for an unknown flag or verb, and strict parsing
 * of numeric flag values (the whole value or nothing).
 */

#ifndef HOS_EXAMPLES_CLI_HH
#define HOS_EXAMPLES_CLI_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hos::cli {

inline std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * The entry of `known` nearest to `arg`, compared on the name before
 * any '=' (a trailing '=' marks a value-taking flag).
 */
inline std::string
nearestFlag(const std::string &arg, std::span<const char *const> known)
{
    const std::string name = arg.substr(0, arg.find('='));
    std::string best;
    std::size_t best_d = ~std::size_t(0);
    for (const char *f : known) {
        std::string fname = f;
        if (!fname.empty() && fname.back() == '=')
            fname.pop_back();
        const std::size_t d = editDistance(name, fname);
        if (d < best_d) {
            best_d = d;
            best = fname;
        }
    }
    return best;
}

/** `text` as an unsigned integer (decimal, 0x-hex or 0-octal), or
 *  nothing unless all of it parses and fits. */
inline std::optional<std::uint64_t>
parseUnsigned(const std::string &text)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

/** `text` as a finite number, or nothing unless all of it parses. */
inline std::optional<double>
parseNumber(const std::string &text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace hos::cli

#endif // HOS_EXAMPLES_CLI_HH
