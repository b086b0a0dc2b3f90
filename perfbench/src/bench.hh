/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: run options, the
 * result record printed as the last line of stdout, a stable output
 * digest, order statistics and process context.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

/** The seed whose outputs are pinned (see pins.hh). */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    /** Length of the measured phase. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Tiny inputs for the smoke test; digests are printed, not pinned. */
    bool smoke = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;

    /** Pinned digests apply only to the default seed at full size. */
    bool pinned() const { return seed == kDefaultSeed && !smoke; }
};

/**
 * FNV-1a over a value stream. Stable across library versions, unlike
 * the library's contentHash64, so pinned values stay meaningful.
 */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t bytes);
    void add(double v) { addBytes(&v, sizeof v); }
    void add(std::uint64_t v) { addBytes(&v, sizeof v); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/** Lowercase 16-digit hex of a digest value. */
std::string hex(std::uint64_t v);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of a run: correctness, operation counts and metrics. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Record a wrong output: prints the reason, clears correct. */
    void wrong(const std::string &why);
    void add(const std::string &name, double value, const std::string &unit);
    /**
     * Compare @p got against @p pinned when @p opts.pinned(), else
     * only print it so that two commits can be compared.
     */
    void checkDigest(const Options &opts, const std::string &what,
                     std::uint64_t got, std::uint64_t pinned);

    /** Human-readable metric lines, then the one-line JSON result. */
    void print() const;
};

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * A tail percentile that one noisy stretch of a run cannot decide: the
 * @p q quantile of each segment of the samples, then the median over
 * the segments.
 */
double segmentedQuantile(const std::vector<std::vector<double>> &segments,
                         double q);

/** Peak resident set size of this process, in MiB. */
double rssPeakMb();

/** CPUs this process may run on (what `nproc` prints). */
int availableCpus();

/** Print the run context: CPUs, dispatched ISA, build type. */
void printContext(const Options &opts);

/** Workload entry points; each fills @p result. */
void runFigsCi(const Options &opts, Result &result);
void runDseCi(const Options &opts, Result &result);
void runServePan(const Options &opts, Result &result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
