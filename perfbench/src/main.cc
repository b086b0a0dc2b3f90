/**
 * @file
 * Benchmark driver entry point:
 *
 *   perfbench --workload figs_ci|dse_ci|serve_pan --seed N --seconds S
 *             --trace 0|1 [--smoke] [--spans-out FILE]
 *
 * Prints the context, the checks, every metric with its unit, and as
 * the last line one JSON object {correct, attempted, failed, metrics}.
 * Exits 1 when an output check fails and 2 on a usage error or a
 * build that is not Release.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "figs_ci|dse_ci|serve_pan --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        usage(flag + " expects a non-negative integer, got \"" + text +
              "\"");
    try {
        return std::stoull(text);
    } catch (const std::out_of_range &) {
        usage(flag + " is out of range: \"" + text + "\"");
    }
}

Options
parse(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opts.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opts.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            opts.seconds = static_cast<double>(parseUnsigned(flag, value));
            if (opts.seconds < 1 || opts.seconds > 600)
                usage("--seconds must be within [1, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--spans-out") {
            opts.spansOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parse(argc, argv);
#ifndef NDEBUG
    std::fprintf(stderr, "error: assertions are enabled; the benchmark "
                         "times Release builds only\n");
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "error: build type is \"%s\"; the benchmark "
                             "times Release builds only\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    printContext(opts);

    Result result;
    try {
        if (opts.workload == "figs_ci")
            runFigsCi(opts, result);
        else if (opts.workload == "dse_ci")
            runDseCi(opts, result);
        else if (opts.workload == "serve_pan")
            runServePan(opts, result);
        else
            usage("unknown workload \"" + opts.workload + "\"");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    if (opts.trace && !opts.spansOut.empty() &&
        !SpanLog::global().writeJson(opts.spansOut))
        std::fprintf(stderr, "warning: could not write %s\n",
                     opts.spansOut.c_str());
    result.print();
    return result.correct ? 0 : 1;
}
