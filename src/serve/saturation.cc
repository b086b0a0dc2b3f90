#include "serve/saturation.hh"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "runtime/sweep.hh"

namespace diffy
{

namespace
{

/** Upper edge of a log2-nanosecond bucket, in seconds. */
double
bucketSeconds(std::int64_t bucket)
{
    return std::ldexp(1.0, static_cast<int>(bucket)) * 1e-9;
}

StreamLatency
latencyOf(int stream)
{
    StreamLatency out;
    out.stream = stream;
    const auto snap = obs::MetricsRegistry::instance()
                          .histogram("serve.frame_seconds:s" +
                                     std::to_string(stream))
                          .snapshot();
    out.samples = snap.stat.count();
    if (snap.log2Nanos.total() > 0) {
        out.p50Seconds = bucketSeconds(snap.log2Nanos.quantile(0.5));
        out.p99Seconds = bucketSeconds(snap.log2Nanos.quantile(0.99));
    }
    return out;
}

} // namespace

void
SaturationOptions::validate() const
{
    serve.validate();
    if (rounds < 1)
        throw std::invalid_argument(
            "SaturationOptions: rounds must be >= 1, got " +
            std::to_string(rounds));
    if (offeredGrid.empty())
        throw std::invalid_argument(
            "SaturationOptions: empty offered-load grid");
    for (int offered : offeredGrid)
        if (offered < 1)
            // Throw path: the message only materializes on rejection.
            throw std::invalid_argument(
                "SaturationOptions: offered load must be >= 1, got " +
                std::to_string(offered)); // diffy-lint: allow(R9)
}

SaturationPoint
runSaturationPoint(const ServeOptions &serve, int offeredPerRound,
                   int rounds, std::uint64_t arrivalSeed)
{
    auto &registry = obs::MetricsRegistry::instance();
    // Per-point quantiles: drop samples from earlier points (the
    // handles themselves are stable for the process lifetime).
    // Once per saturation point, not per served frame.
    for (int k = 0; k < serve.streams; ++k)
        registry
            .histogram("serve.frame_seconds:s" +
                       std::to_string(k)) // diffy-lint: allow(R9)
            .reset();
    registry.histogram("serve.batch_seconds").reset();

    StreamServer server(serve);
    for (int r = 0; r < rounds; ++r) {
        // Per-round generator: a higher offered load draws the same
        // arrival prefix plus extras, which is what makes the curve's
        // deterministic counters monotone in offered load.
        Rng rng(SweepScheduler::jobSeed(arrivalSeed,
                                        static_cast<std::size_t>(r)));
        for (int j = 0; j < offeredPerRound; ++j)
            server.offer(static_cast<int>(
                rng.below(static_cast<std::uint64_t>(serve.streams))));
        server.drainAll();
    }

    const ServeTotals totals = server.totals();
    SaturationPoint p;
    p.offeredPerRound = offeredPerRound;
    p.offered = totals.sum.offered;
    p.admitted = totals.sum.admitted;
    p.rejected = totals.sum.rejected;
    p.served = totals.sum.served;
    p.failed = totals.sum.failed;
    p.anchoredLayers = totals.sum.anchoredLayers;
    p.layers = totals.sum.layers;
    p.rawTerms = totals.sum.rawTerms;
    p.spatialTerms = totals.sum.spatialTerms;
    p.temporalTerms = totals.sum.temporalTerms;
    p.temporalSpatialTerms = totals.sum.temporalSpatialTerms;
    p.codecBits = totals.sum.codecBits;
    p.values = totals.sum.values;

    p.batchSeconds =
        registry.histogram("serve.batch_seconds").snapshot().stat.sum();
    p.throughputFps = p.batchSeconds > 0.0
                          ? static_cast<double>(p.served) / p.batchSeconds
                          : 0.0;
    p.latency.reserve(static_cast<std::size_t>(serve.streams));
    for (int k = 0; k < serve.streams; ++k)
        p.latency.push_back(latencyOf(k));
    return p;
}

SaturationCurve
runSaturation(const SaturationOptions &opts)
{
    opts.validate();
    SaturationCurve curve;
    curve.options = opts;
    curve.threads = SweepScheduler::resolveThreadCount(opts.serve.threads);
    curve.points.reserve(opts.offeredGrid.size());
    for (int offered : opts.offeredGrid)
        curve.points.push_back(runSaturationPoint(
            opts.serve, offered, opts.rounds, opts.arrivalSeed));
    return curve;
}

AllocationGateReport
runAllocationGate(const ServeOptions &serve, int warmupRounds,
                  int steadyRounds,
                  const std::function<void()> &onSteadyStart)
{
    if (warmupRounds < 1 || steadyRounds < 1)
        throw std::invalid_argument(
            "runAllocationGate: warmup and steady rounds must be >= 1");

    StreamServer server(serve);
    auto roundRobinRound = [&] {
        for (int k = 0; k < serve.streams; ++k)
            server.offer(k);
        server.drainAll();
    };

    for (int r = 0; r < warmupRounds; ++r)
        roundRobinRound();

    server.markSteadyState();
    const std::uint64_t servedBefore = server.totals().sum.served;
    if (onSteadyStart)
        onSteadyStart();

    for (int r = 0; r < steadyRounds; ++r)
        roundRobinRound();

    AllocationGateReport report;
    report.warmupRounds = warmupRounds;
    report.steadyRounds = steadyRounds;
    report.steadyPoolFetches = server.steadyFetches();
    report.poolHeapFetches = server.slabFetches();
    report.poolBytesInUse = server.arenaBytes();
    report.steadyServed = server.totals().sum.served - servedBefore;
    return report;
}

void
writeAllocationGateJson(const AllocationGateReport &report,
                        const ServeOptions &serve, std::ostream &os)
{
    os << "{\n  \"config\": {\n";
    os << "    \"network\": \"" << serve.network << "\",\n";
    os << "    \"streams\": " << serve.streams << ",\n";
    os << "    \"threads\": "
       << SweepScheduler::resolveThreadCount(serve.threads) << ",\n";
    os << "    \"frameHeight\": " << serve.frameHeight << ",\n";
    os << "    \"frameWidth\": " << serve.frameWidth << ",\n";
    os << "    \"reanchorInterval\": " << serve.reanchorInterval << ",\n";
    os << "    \"warmupRounds\": " << report.warmupRounds << ",\n";
    os << "    \"steadyRounds\": " << report.steadyRounds << "\n";
    os << "  },\n";
    os << "  \"steadyPoolFetches\": " << report.steadyPoolFetches << ",\n";
    os << "  \"poolHeapFetches\": " << report.poolHeapFetches << ",\n";
    os << "  \"poolBytesInUse\": " << report.poolBytesInUse << ",\n";
    os << "  \"steadyServed\": " << report.steadyServed << ",\n";
    os << "  \"opNewCalls\": " << report.opNewCalls << ",\n";
    os << "  \"opNewBytes\": " << report.opNewBytes << ",\n";
    os << "  \"passed\": " << (report.passed() ? "true" : "false") << "\n";
    os << "}\n";
}

void
writeSaturationJson(const SaturationCurve &curve, std::ostream &os)
{
    const ServeOptions &s = curve.options.serve;
    os.precision(12);
    os << "{\n  \"config\": {\n";
    os << "    \"network\": \"" << s.network << "\",\n";
    os << "    \"streams\": " << s.streams << ",\n";
    os << "    \"queueCapacity\": " << s.queueCapacity << ",\n";
    os << "    \"batchMax\": " << s.batchMax << ",\n";
    os << "    \"threads\": " << curve.threads << ",\n";
    os << "    \"reanchorInterval\": " << s.reanchorInterval << ",\n";
    os << "    \"frameHeight\": " << s.frameHeight << ",\n";
    os << "    \"frameWidth\": " << s.frameWidth << ",\n";
    os << "    \"motion\": \"" << to_string(s.motion) << "\",\n";
    os << "    \"amplitude\": " << s.amplitude << ",\n";
    os << "    \"rounds\": " << curve.options.rounds << ",\n";
    os << "    \"arrivalSeed\": " << curve.options.arrivalSeed << "\n";
    os << "  },\n  \"points\": [\n";
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
        const SaturationPoint &p = curve.points[i];
        os << "    {\"offeredPerRound\": " << p.offeredPerRound;
        os << ", \"offered\": " << p.offered;
        os << ", \"admitted\": " << p.admitted;
        os << ", \"rejected\": " << p.rejected;
        os << ", \"served\": " << p.served;
        os << ", \"failed\": " << p.failed;
        os << ", \"anchoredLayers\": " << p.anchoredLayers;
        os << ", \"layers\": " << p.layers;
        os << ", \"rawTerms\": " << p.rawTerms;
        os << ", \"spatialTerms\": " << p.spatialTerms;
        os << ", \"temporalTerms\": " << p.temporalTerms;
        os << ", \"temporalSpatialTerms\": " << p.temporalSpatialTerms;
        os << ", \"codecBits\": " << p.codecBits;
        os << ", \"values\": " << p.values;
        os << ",\n     \"batchSeconds\": " << p.batchSeconds;
        os << ", \"throughputFps\": " << p.throughputFps;
        os << ",\n     \"latency\": [";
        for (std::size_t k = 0; k < p.latency.size(); ++k) {
            const StreamLatency &l = p.latency[k];
            os << (k ? ", " : "") << "{\"stream\": " << l.stream
               << ", \"samples\": " << l.samples
               << ", \"p50Seconds\": " << l.p50Seconds
               << ", \"p99Seconds\": " << l.p99Seconds << "}";
        }
        os << "]}" << (i + 1 < curve.points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace diffy
