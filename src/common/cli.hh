/**
 * @file
 * Minimal command-line flag parsing for the bench and example
 * binaries. Supports "--name value" and "--name=value" forms, plus
 * bare boolean flags declared up front so they never swallow a
 * following positional argument.
 */

#ifndef DIFFY_COMMON_CLI_HH
#define DIFFY_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace diffy
{

/**
 * Parsed command line; unknown flags are collected, not rejected —
 * a binary that declares its flag set rejects the rest through
 * undeclaredFlagError().
 *
 * Flags named in @p boolFlags never consume the next token as a value
 * ("--verbose trace.bin" keeps "trace.bin" as a positional); all other
 * "--name value" pairs bind the token as the flag's value. Tokens not
 * consumed as flag names or values are kept, in order, in
 * positionals().
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv,
            const std::set<std::string> &boolFlags = {});

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /**
     * Integer/double accessors validate the full token and throw
     * std::invalid_argument on malformed values ("--threads=abc")
     * rather than silently reading 0.
     */
    std::int64_t getInt(const std::string &name, std::int64_t fallback) const;
    double getDouble(const std::string &name, double fallback) const;
    bool getBool(const std::string &name, bool fallback) const;

    /**
     * "" when every flag given is in @p declared; otherwise an error
     * naming the first undeclared flag, with a "did you mean" hint
     * when a declared flag is within edit distance 2 of it.
     */
    std::string undeclaredFlagError(
        const std::set<std::string> &declared) const;

    /** Arguments that were neither flag names nor flag values. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_;
};

} // namespace diffy

#endif // DIFFY_COMMON_CLI_HH
