/**
 * @file
 * Offered-load saturation sweep over a StreamServer (DESIGN.md §13).
 *
 * The bench drives the server in rounds: each round injects
 * `offeredPerRound` frame offers (stream picked per offer from a
 * seeded arrival process), then drains the admission queue. Sweeping
 * offeredPerRound maps out the saturation curve — served throughput
 * rises until the admission queue caps it, beyond which extra offers
 * are rejected by backpressure.
 *
 * Determinism: arrivals for round r draw from an Rng seeded by
 * (arrivalSeed, r), so a *higher* offered load replays the same
 * arrival prefix and appends to it. Offered/admitted/served/rejected
 * counts are therefore exact functions of the grid — monotone in
 * offered load, identical at any thread count — and are what the CI
 * gate diffs. Wall-clock figures (throughput, per-stream p50/p99 from
 * the obs latency histograms) are inherently run-dependent and appear
 * only in the JSON artifact, never on stdout.
 */

#ifndef DIFFY_SERVE_SATURATION_HH
#define DIFFY_SERVE_SATURATION_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "serve/stream_server.hh"

namespace diffy
{

/** Configuration of one saturation sweep. */
struct SaturationOptions
{
    ServeOptions serve;
    /** Offers injected per round, one sweep point per entry. */
    std::vector<int> offeredGrid = {1, 2, 4, 8, 16};
    /** Inject-then-drain rounds per point. */
    int rounds = 8;
    /** Seed of the arrival process (stream choice per offer). */
    std::uint64_t arrivalSeed = 42;

    /** @throws std::invalid_argument naming the offending knob. */
    void validate() const;
};

/** Wall-clock latency summary of one stream at one sweep point. */
struct StreamLatency
{
    int stream = 0;
    std::uint64_t samples = 0;
    /** Approximate quantiles: upper edge of the log2-ns bucket. */
    double p50Seconds = 0.0;
    double p99Seconds = 0.0;
};

/** One point of the saturation curve. */
struct SaturationPoint
{
    int offeredPerRound = 0;
    /** Deterministic counters (the stdout-visible half). */
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t anchoredLayers = 0;
    std::uint64_t layers = 0;
    std::uint64_t rawTerms = 0;
    std::uint64_t spatialTerms = 0;
    std::uint64_t temporalTerms = 0;
    std::uint64_t temporalSpatialTerms = 0;
    std::uint64_t codecBits = 0;
    std::uint64_t values = 0;
    /** Wall-clock figures (JSON artifact only). */
    double batchSeconds = 0.0;
    double throughputFps = 0.0;
    std::vector<StreamLatency> latency;
};

/** A full sweep: one point per offered-load grid entry. */
struct SaturationCurve
{
    SaturationOptions options;
    int threads = 1;
    std::vector<SaturationPoint> points;
};

/**
 * Run one sweep point on a fresh StreamServer (fresh temporal state
 * and counters; the per-stream latency histograms are reset so the
 * point's quantiles cover only its own frames).
 */
SaturationPoint runSaturationPoint(const ServeOptions &serve,
                                   int offeredPerRound, int rounds,
                                   std::uint64_t arrivalSeed);

/** Run the whole grid. @throws std::invalid_argument via validate(). */
SaturationCurve runSaturation(const SaturationOptions &opts);

/**
 * Serialize the curve as a JSON object: a `config` block plus a
 * `points` array with per-stream latency records — the CI artifact.
 */
void writeSaturationJson(const SaturationCurve &curve, std::ostream &os);

/**
 * Result of the steady-state allocation gate (DESIGN.md §16).
 *
 * The gate's pass/fail signal is steadyPoolFetches — stream-arena
 * slab fetches after markSteadyState() — which is exactly what the
 * `pool.allocs_steady_state` gauge reports. The operator-new tallies
 * are *observational*: the bench fills them from its counting shim so
 * the JSON artifact tracks total steady-state heap traffic over time,
 * but they include allocator noise the gate does not own (stdio,
 * metrics registry growth) and therefore never decide pass/fail.
 */
struct AllocationGateReport
{
    int warmupRounds = 0;
    int steadyRounds = 0;
    /** Arena slab fetches after warmup — must be 0 (the gate). */
    std::uint64_t steadyPoolFetches = 0;
    /** Arena slab fetches over the whole run (warmup included). */
    std::uint64_t poolHeapFetches = 0;
    /** Bytes held by the server's arenas at the end of the run. */
    std::uint64_t poolBytesInUse = 0;
    /** Frames served in the steady phase (sanity: gate did real work). */
    std::uint64_t steadyServed = 0;
    /** Bench-filled operator-new tallies for the steady phase (JSON). */
    std::uint64_t opNewCalls = 0;
    std::uint64_t opNewBytes = 0;

    bool passed() const { return steadyPoolFetches == 0; }
};

/**
 * Drive a fresh StreamServer through @p warmupRounds round-robin
 * inject-then-drain rounds (every stream offered once per round, so
 * each arena sees its worst-case demand), call markSteadyState() and
 * @p onSteadyStart (the bench's shim toggle), then run
 * @p steadyRounds more rounds and report the arena counters.
 * Round-robin rather than the seeded arrival process: warmup must
 * visit *every* stream, or an unlucky arrival draw would leave a cold
 * arena to fetch its first slab inside the steady window.
 */
AllocationGateReport
runAllocationGate(const ServeOptions &serve, int warmupRounds,
                  int steadyRounds,
                  const std::function<void()> &onSteadyStart = {});

/** Serialize the gate report as a JSON object — the CI artifact. */
void writeAllocationGateJson(const AllocationGateReport &report,
                             const ServeOptions &serve, std::ostream &os);

} // namespace diffy

#endif // DIFFY_SERVE_SATURATION_HH
