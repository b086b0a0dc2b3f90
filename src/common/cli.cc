#include "common/cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace diffy
{

namespace
{

/** Levenshtein distance (one-row dynamic programme). */
std::size_t
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
            row[j] = std::min({up + 1, row[j - 1] + 1,
                               diag + (a[i - 1] != b[j - 1] ? 1 : 0)});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::set<std::string> &boolFlags)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (boolFlags.count(arg) != 0) {
            // Declared boolean: never swallow the next token — it is a
            // positional (the historical bug: "--verbose trace.bin"
            // bound verbose="trace.bin" and lost the file argument).
            values_[arg] = "true";
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "true";
        }
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &text = it->second;
    std::int64_t value = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size())
        throw std::invalid_argument("--" + name + " expects an integer, got \"" +
                                    text + "\"");
    return value;
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &text = it->second;
    // strtod rather than from_chars<double>: libstdc++'s FP from_chars
    // support is newer than the rest of our C++20 floor.
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        throw std::invalid_argument("--" + name + " expects a number, got \"" +
                                    text + "\"");
    return value;
}

bool
CliArgs::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string
CliArgs::undeclaredFlagError(const std::set<std::string> &declared) const
{
    for (const auto &entry : values_) {
        const std::string &name = entry.first;
        if (declared.count(name) != 0)
            continue;
        std::string msg = "unknown flag --" + name;
        std::size_t best = 3;
        for (const std::string &known : declared) {
            const std::size_t d = editDistance(name, known);
            if (d < best) {
                best = d;
                msg = "unknown flag --" + name + " (did you mean --" +
                      known + "?)";
            }
        }
        return msg;
    }
    return "";
}

} // namespace diffy
