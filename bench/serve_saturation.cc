/**
 * @file
 * Serving saturation bench (DESIGN.md §13).
 *
 * Sweeps offered load over a StreamServer: each grid point runs
 * --rounds inject-then-drain rounds at that arrival rate, and the
 * table reports the deterministic admission counters — offered,
 * admitted, rejected (backpressure drops), served — plus the
 * temporal-delta work ablation (temporal vs raw Booth terms, codec
 * bits per value). Counters are exact functions of the seeded arrival
 * process: the table is byte-identical at any --threads value, which
 * the CI determinism gate diffs.
 *
 * Wall-clock results — served throughput and per-stream p50/p99 from
 * the obs latency histograms — go to the JSON artifact (--out FILE),
 * never stdout. --metrics-out FILE writes the metrics registry
 * snapshot at exit, as in every other bench binary.
 *
 * Quickstart:
 *   serve_saturation --streams 4 --offered 1,2,4,8,16 --out curve.json
 *
 * --alloc-gate switches the binary into the steady-state allocation
 * gate (DESIGN.md §16): --warmup-rounds round-robin rounds warm every
 * stream's arena, then --rounds more run in steady state. The process
 * exits nonzero if any arena fetched a heap slab after warmup
 * (`pool.allocs_steady_state` > 0). A counting operator-new shim
 * tallies all other heap traffic in the steady window for the JSON
 * artifact.
 *
 * Flags are strict: --help prints the flag list and exits 0, and any
 * flag not in that list is an error (exit 2).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "obs/metrics.hh"
#include "serve/saturation.hh"

using namespace diffy;

namespace
{

/**
 * Counting operator-new shim. Disabled (pass-through) until the gate
 * flips g_countAllocs at the steady-state boundary; the counters then
 * tally every global allocation — the observational half of the gate
 * report. malloc/free everywhere so any new/delete pairing is safe.
 */
std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_opNewCalls{0};
std::atomic<std::uint64_t> g_opNewBytes{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_countAllocs.load(std::memory_order_relaxed)) {
        g_opNewCalls.fetch_add(1, std::memory_order_relaxed);
        g_opNewBytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        if (posix_memalign(&p, align, n) != 0)
            p = nullptr;
    } else {
        p = std::malloc(n);
    }
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    void *p = countedAlloc(n, 0);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    void *p = countedAlloc(n, static_cast<std::size_t>(align));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

/** Parse a comma-separated list of positive ints ("1,2,4"). */
std::vector<int>
parseGrid(const std::string &text)
{
    std::vector<int> grid;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string tok = text.substr(pos, comma - pos);
        if (tok.empty())
            throw std::invalid_argument(
                "--offered: empty entry in list '" + text + "'");
        std::size_t used = 0;
        int v = 0;
        try {
            v = std::stoi(tok, &used);
        } catch (const std::exception &) {
            used = 0; // fall through to the named diagnostic
        }
        if (used != tok.size())
            throw std::invalid_argument(
                "--offered expects a comma-separated int list, got '" +
                tok + "'");
        grid.push_back(v);
        pos = comma + 1;
    }
    return grid;
}

/** Every flag the binary reads; anything else is rejected. */
struct FlagDoc
{
    const char *name;
    const char *arg; ///< "" for a boolean flag
    const char *help;
};

constexpr FlagDoc kFlags[] = {
    {"net", "NAME", "zoo model served to every stream (MicroServe)"},
    {"streams", "N", "logical client streams (4)"},
    {"queue-cap", "N", "admission queue capacity (8)"},
    {"batch", "N", "most requests per batch (4)"},
    {"threads", "N", "worker threads; 0 = DIFFY_THREADS or 1 (0)"},
    {"reanchor", "K", "temporal re-anchor interval; 0 = never (16)"},
    {"crop", "PX", "frame height and width (32)"},
    {"seed", "S", "stream scene and motion seed (1)"},
    {"motion", "KIND", "camera model: static, pan, jitter or drift (pan)"},
    {"amplitude", "PX", "camera excursion (4)"},
    {"verify-oracle", "", "check every delta frame against the oracle"},
    {"rounds", "N", "inject-then-drain rounds per point (8)"},
    {"arrival-seed", "S", "arrival process seed (42)"},
    {"offered", "LIST", "offers per round, comma-separated (1,2,4,8,16)"},
    {"out", "FILE", "write the JSON artifact"},
    {"metrics-out", "FILE", "write the metrics snapshot at exit"},
    {"alloc-gate", "", "run the steady-state allocation gate instead"},
    {"warmup-rounds", "N", "allocation-gate warmup rounds (4)"},
    {"help", "", "print this list and exit"},
};

void
printUsage(std::FILE *to)
{
    std::fprintf(to, "usage: serve_saturation [flags]\n");
    for (const FlagDoc &f : kFlags) {
        const std::string flag = std::string(f.name) + " " + f.arg;
        std::fprintf(to, "  --%-20s %s\n", flag.c_str(), f.help);
    }
}

SaturationOptions
optionsFromCli(const CliArgs &args)
{
    SaturationOptions opts;
    opts.serve.network = args.getString("net", "MicroServe");
    opts.serve.streams = static_cast<int>(args.getInt("streams", 4));
    opts.serve.queueCapacity =
        static_cast<int>(args.getInt("queue-cap", 8));
    opts.serve.batchMax = static_cast<int>(args.getInt("batch", 4));
    opts.serve.threads = static_cast<int>(args.getInt("threads", 0));
    opts.serve.reanchorInterval =
        static_cast<int>(args.getInt("reanchor", 16));
    const int crop = static_cast<int>(args.getInt("crop", 32));
    opts.serve.frameHeight = crop;
    opts.serve.frameWidth = crop;
    opts.serve.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    opts.serve.motion =
        motionKindFromString(args.getString("motion", "pan"));
    opts.serve.amplitude = static_cast<int>(args.getInt("amplitude", 4));
    opts.serve.verifyOracle = args.has("verify-oracle");
    opts.rounds = static_cast<int>(args.getInt("rounds", 8));
    opts.arrivalSeed =
        static_cast<std::uint64_t>(args.getInt("arrival-seed", 42));
    opts.offeredGrid = parseGrid(args.getString("offered", "1,2,4,8,16"));
    opts.validate();
    return opts;
}

/**
 * Steady-state allocation gate mode. Stdout carries exactly one
 * deterministic line (the gauge value); the run-dependent operator-new
 * tallies go to the JSON artifact only.
 */
int
runGateMode(const CliArgs &args, const SaturationOptions &opts)
{
    const int warmup =
        static_cast<int>(args.getInt("warmup-rounds", 4));
    AllocationGateReport report;
    try {
        report = runAllocationGate(
            opts.serve, warmup, opts.rounds,
            [] { g_countAllocs.store(true, std::memory_order_relaxed); });
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    g_countAllocs.store(false, std::memory_order_relaxed);
    report.opNewCalls = g_opNewCalls.load(std::memory_order_relaxed);
    report.opNewBytes = g_opNewBytes.load(std::memory_order_relaxed);

    std::printf("pool.allocs_steady_state %llu\n",
                static_cast<unsigned long long>(report.steadyPoolFetches));

    const std::string out = args.getString("out", "");
    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "error: cannot open %s\n", out.c_str());
            return 1;
        }
        writeAllocationGateJson(report, opts.serve, os);
    }
    if (!report.passed()) {
        std::fprintf(stderr,
                     "error: %llu pool heap fetches after warmup "
                     "(steady state must be allocation-free)\n",
                     static_cast<unsigned long long>(
                         report.steadyPoolFetches));
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"verify-oracle", "alloc-gate", "help"});
    if (args.has("help")) {
        printUsage(stdout);
        return 0;
    }
    std::set<std::string> declared;
    for (const FlagDoc &f : kFlags)
        declared.insert(f.name);
    std::string bad = args.undeclaredFlagError(declared);
    if (bad.empty() && !args.positionals().empty())
        bad = "unexpected argument '" + args.positionals().front() + "'";
    if (!bad.empty()) {
        std::fprintf(stderr, "error: %s\n", bad.c_str());
        printUsage(stderr);
        return 2;
    }
    SaturationOptions opts;
    try {
        opts = optionsFromCli(args);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const std::string metricsOut = args.getString("metrics-out", "");
    if (!metricsOut.empty())
        obs::dumpMetricsOnExit(metricsOut);

    if (args.has("alloc-gate"))
        return runGateMode(args, opts);

    const SaturationCurve curve = runSaturation(opts);

    TextTable table("Serving saturation: " + opts.serve.network + " x " +
                    std::to_string(opts.serve.streams) + " streams (cap " +
                    std::to_string(opts.serve.queueCapacity) + ", batch " +
                    std::to_string(opts.serve.batchMax) + ", reanchor " +
                    std::to_string(opts.serve.reanchorInterval) + ")");
    table.setHeader({"offer/rnd", "offered", "admitted", "rejected",
                     "served", "failed", "anchor%", "tmp/raw", "bits/val"});
    for (const SaturationPoint &p : curve.points) {
        const double anchorPct =
            p.layers ? 100.0 * static_cast<double>(p.anchoredLayers) /
                           static_cast<double>(p.layers)
                     : 0.0;
        const double termRatio =
            p.rawTerms ? static_cast<double>(p.temporalTerms) /
                             static_cast<double>(p.rawTerms)
                       : 0.0;
        const double bitsPerValue =
            p.values ? static_cast<double>(p.codecBits) /
                           static_cast<double>(p.values)
                     : 0.0;
        table.addRow({std::to_string(p.offeredPerRound),
                      std::to_string(p.offered),
                      std::to_string(p.admitted),
                      std::to_string(p.rejected),
                      std::to_string(p.served),
                      std::to_string(p.failed),
                      TextTable::num(anchorPct, 1),
                      TextTable::num(termRatio, 3),
                      TextTable::num(bitsPerValue, 2)});
    }
    table.print();

    const std::string out = args.getString("out", "");
    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "error: cannot open %s\n", out.c_str());
            return 1;
        }
        writeSaturationJson(curve, os);
    }
    return 0;
}
