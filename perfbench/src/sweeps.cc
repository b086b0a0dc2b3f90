/**
 * @file
 * The sweep workloads.
 *
 * figs_ci: the Fig 11 sweep from cold. Each sweep traces the CI-DNN
 * suite (disk TraceCache off, crop 64, 2 scenes, 1 worker) and then
 * simulates the Fig 11 grid: one VAA baseline per network plus PRA and
 * Diffy under four compression schemes.
 *
 * dse_ci: a design-space sweep over traces built during set-up (crop
 * 32, 2 scenes): VAA plus PRA and Diffy x 4 schemes x 5 tile counts x
 * the Fig 18 memory ladder, on nproc - 1 workers. `nn` does no timed
 * work; the footprint memo's hit path dominates `encode`.
 *
 * Both follow the library's own figure code: traces go through a
 * TraceCache and cells through a SweepScheduler, exactly as
 * traceSuite() and sweepCells() do, except that the scenes derive from
 * the workload seed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "core/experiment.hh"
#include "layers.hh"
#include "pins.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

using namespace diffy;

/** Target frame of every simulated CI-DNN frame (HD, as in the paper). */
constexpr int kFrameH = 1080;
constexpr int kFrameW = 1920;

struct GridConfig
{
    AcceleratorConfig cfg;
    MemTech mem;
};

struct SweepSpec
{
    int crop = 64;
    int scenes = 2;
    int workers = 1;
    /** figs_ci traces inside every sweep; dse_ci traces in set-up. */
    bool tracesInSweep = true;
    /** configs[0] is the VAA baseline every speedup divides by. */
    std::vector<GridConfig> configs;
    /** Per config: the same design point with Compression::Ideal. */
    std::vector<int> idealOf;
    /** Configs that differ only in memory, by rising bandwidth. */
    std::vector<std::vector<int>> memoryLadders;
};

std::string
designKey(const AcceleratorConfig &cfg)
{
    return to_string(cfg.design) + "/" + std::to_string(cfg.tiles) + "/" +
           (cfg.spatialWorkSharing ? "ws" : "-");
}

/** Fill idealOf and memoryLadders from configs. */
void
indexInvariants(SweepSpec &spec)
{
    std::map<std::string, int> ideal;
    std::map<std::string, std::vector<int>> ladders;
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        const GridConfig &g = spec.configs[i];
        const std::string point = designKey(g.cfg) + "/" + g.mem.label();
        if (g.cfg.compression == Compression::Ideal)
            ideal[point] = static_cast<int>(i);
        ladders[designKey(g.cfg) + "/" + to_string(g.cfg.compression)]
            .push_back(static_cast<int>(i));
    }
    spec.idealOf.assign(spec.configs.size(), -1);
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        const GridConfig &g = spec.configs[i];
        auto it = ideal.find(designKey(g.cfg) + "/" + g.mem.label());
        if (it != ideal.end() && it->second != static_cast<int>(i))
            spec.idealOf[i] = it->second;
    }
    for (auto &[key, members] : ladders) {
        if (members.size() < 2)
            continue;
        std::sort(members.begin(), members.end(), [&](int a, int b) {
            return spec.configs[a].mem.bytesPerCycle(1e9) <
                   spec.configs[b].mem.bytesPerCycle(1e9);
        });
        spec.memoryLadders.push_back(members);
    }
}

GridConfig
designPoint(Design design, Compression scheme, const MemTech &mem)
{
    AcceleratorConfig cfg = design == Design::Pra ? defaultPraConfig()
                                                  : defaultDiffyConfig();
    cfg.compression = scheme;
    return {cfg, mem};
}

constexpr Compression kSchemes[] = {Compression::None, Compression::Profiled,
                                    Compression::DeltaD16,
                                    Compression::Ideal};

SweepSpec
figsSpec(const Options &opts)
{
    SweepSpec spec;
    spec.crop = opts.smoke ? 16 : 64;
    spec.scenes = opts.smoke ? 1 : 2;
    const MemTech mem = memTechByName("DDR4-3200", 1);
    spec.configs.push_back({defaultVaaConfig(), mem});
    for (Design design : {Design::Pra, Design::Diffy})
        for (Compression scheme : kSchemes)
            spec.configs.push_back(designPoint(design, scheme, mem));
    indexInvariants(spec);
    return spec;
}

SweepSpec
dseSpec(const Options &opts)
{
    SweepSpec spec;
    spec.crop = opts.smoke ? 16 : 32;
    spec.scenes = opts.smoke ? 1 : 2;
    spec.workers = std::max(1, availableCpus() - 1);
    spec.tracesInSweep = false;
    spec.configs.push_back(
        {defaultVaaConfig(), memTechByName("DDR4-3200", 1)});
    std::vector<int> tiles = {4, 8, 16, 32, 64};
    std::vector<MemTech> ladder = fig18MemoryLadder();
    if (opts.smoke) {
        tiles = {4, 16};
        ladder.resize(2);
    }
    for (Design design : {Design::Pra, Design::Diffy})
        for (Compression scheme : kSchemes)
            for (int t : tiles)
                for (const MemTech &mem : ladder) {
                    GridConfig g = designPoint(design, scheme, mem);
                    g.cfg.tiles = t;
                    // Fig 18's scaled-up Diffy shares work spatially.
                    g.cfg.spatialWorkSharing = design == Design::Diffy;
                    spec.configs.push_back(g);
                }
    indexInvariants(spec);
    return spec;
}

/** Evaluation scenes, seeded from the workload seed. */
std::vector<SceneParams>
scenesFor(std::uint64_t seed, int count, int crop)
{
    const SceneKind kinds[] = {SceneKind::Nature, SceneKind::City,
                               SceneKind::Texture, SceneKind::Gradient,
                               SceneKind::Portrait};
    const std::uint64_t base = SweepScheduler::jobSeed(seed, 0);
    std::vector<SceneParams> scenes;
    for (int i = 0; i < count; ++i) {
        SceneParams p;
        p.kind = kinds[i % 5];
        p.width = crop;
        p.height = crop;
        p.seed = base + static_cast<std::uint64_t>(i) * 7919;
        p.roughness = 0.5;
        p.noiseSigma = 0.0;
        scenes.push_back(p);
    }
    return scenes;
}

ExperimentParams
schedulerParams(int workers)
{
    ExperimentParams params;
    params.threads = workers;
    params.cacheDir = "";
    return params;
}

/** Scheduler counters summed over the sweeps of one phase. */
struct RuntimeTally
{
    double busy = 0.0;
    double workerSeconds = 0.0;
    double queueWait = 0.0;
    double jobs = 0.0;

    void add(const SweepStats &s)
    {
        busy += s.busySeconds;
        workerSeconds += s.wallSeconds * s.threads;
        queueWait += s.queueWaitSeconds;
        jobs += static_cast<double>(s.jobs);
    }
};

/** The library's default trace capture, with a span around each layer. */
NetworkTrace
tracedCapture(const NetworkSpec &net, const SceneParams &scene,
              const ExecutorOptions &exec)
{
    Tensor3<float> rgb = [&] {
        Span span("image.render");
        return renderScene(scene);
    }();
    Span span("nn.forward." + net.name);
    return runNetwork(net, rgb, exec);
}

/** Trace every network over every scene (traceSuite with our scenes). */
std::vector<TracedNetwork>
buildTraces(const std::vector<NetworkSpec> &suite,
            const std::vector<SceneParams> &scenes, int workers,
            RuntimeTally &tally)
{
    TraceCache cache("", SpanLog::global().enabled()
                             ? TraceCache::Tracer(tracedCapture)
                             : TraceCache::Tracer());
    SweepScheduler scheduler = makeSweepScheduler(schedulerParams(workers));
    std::vector<NetworkTrace> flat;
    {
        Span map("runtime.map");
        const std::uint32_t mapId = map.id();
        flat = scheduler.map(
            suite.size() * scenes.size(), [&](SweepJob &job) {
                Span cell("bench.cell", job.index, mapId);
                return cache.get(suite[job.index / scenes.size()],
                                 scenes[job.index % scenes.size()]);
            });
    }
    tally.add(scheduler.stats());
    std::vector<TracedNetwork> traced(suite.size());
    for (std::size_t ni = 0; ni < suite.size(); ++ni) {
        traced[ni].spec = suite[ni];
        for (std::size_t si = 0; si < scenes.size(); ++si)
            traced[ni].traces.push_back(
                std::move(flat[ni * scenes.size() + si]));
    }
    return traced;
}

const char *
computeSpanName(Design design)
{
    switch (design) {
      case Design::Vaa:
        return "sim.compute.vaa";
      case Design::Pra:
        return "sim.compute.pra";
      case Design::Diffy:
        return "sim.compute.diffy";
    }
    return "sim.compute";
}

/** One grid cell: one configuration over every trace of one network. */
struct CellOut
{
    std::vector<double> cycles; ///< per trace
    std::vector<double> frameSeconds;
    std::uint64_t digest = 0;
    double trafficBytes = 0.0;
    double outputs = 0.0;
};

/**
 * Simulate one frame. Untraced, this is simulateFrame(); traced, it is
 * the same two calls simulateFrame() makes, each under its own span:
 * the compute model, then the memory combine, whose time is the
 * footprint/traffic encoding (Ideal skips the encode layer).
 */
FramePerf
simulate(const NetworkTrace &trace, const GridConfig &g)
{
    if (!SpanLog::global().enabled())
        return simulateFrame(trace, g.cfg, g.mem, kFrameH, kFrameW);
    NetworkComputeResult compute = [&] {
        Span span(computeSpanName(g.cfg.design));
        return simulateCompute(trace, g.cfg);
    }();
    Span span(g.cfg.compression == Compression::Ideal ? "sim.memsys"
                                                      : "encode.traffic");
    return combineWithMemory(trace, compute, g.cfg, g.mem, kFrameH,
                             kFrameW);
}

CellOut
runCell(const TracedNetwork &net, const GridConfig &g)
{
    CellOut out;
    Digest digest;
    const double bytesPerCycle = g.mem.bytesPerCycle(g.cfg.clockHz);
    for (const NetworkTrace &trace : net.traces) {
        const Clock::time_point start = Clock::now();
        const FramePerf perf = simulate(trace, g);
        out.frameSeconds.push_back(secondsSince(start));
        out.cycles.push_back(perf.totalCycles);
        digest.add(perf.totalCycles);
        for (const LayerPerf &lp : perf.layers) {
            digest.add(lp.computeCycles);
            digest.add(lp.memoryCycles);
            out.trafficBytes += lp.memoryCycles * bytesPerCycle;
        }
        for (const LayerTrace &lt : trace.layers)
            out.outputs += static_cast<double>(lt.outCount());
    }
    out.digest = digest.value();
    return out;
}

/** What one sweep produced, and what it cost. */
struct SweepOutcome
{
    double seconds = 0.0;
    std::vector<double> frameSeconds;
    std::uint64_t digest = 0;
    double gmacs = 0.0;
    double trafficMb = 0.0;
    double gcycles = 0.0;
    double outputs = 0.0;
    std::uint64_t operations = 0;
    std::vector<std::string> problems;
};

double
gmacsOf(const std::vector<TracedNetwork> &traced)
{
    double macs = 0.0;
    for (const TracedNetwork &net : traced)
        for (const NetworkTrace &trace : net.traces)
            for (const LayerTrace &lt : trace.layers)
                macs += static_cast<double>(lt.outCount()) *
                        static_cast<double>(lt.spec.macsPerOutput());
    return macs / 1e9;
}

/** Model invariants that hold at any seed. */
void
checkInvariants(const SweepSpec &spec, const std::vector<CellOut> &cells,
                std::size_t nets, std::vector<std::string> &problems)
{
    const std::size_t nc = spec.configs.size();
    auto cellOf = [&](std::size_t net, std::size_t config) -> const CellOut & {
        return cells[net * nc + config];
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        for (double c : cells[i].cycles)
            if (!(c > 0.0) || !std::isfinite(c))
                problems.push_back("cell " + std::to_string(i) +
                                   " simulated a non-positive cycle count");
    for (std::size_t n = 0; n < nets; ++n) {
        for (std::size_t c = 0; c < nc; ++c) {
            if (spec.idealOf[c] < 0)
                continue;
            const CellOut &real = cellOf(n, c);
            const CellOut &ideal = cellOf(n, spec.idealOf[c]);
            for (std::size_t t = 0; t < real.cycles.size(); ++t)
                if (ideal.cycles[t] > real.cycles[t])
                    problems.push_back(
                        "infinite bandwidth is slower than finite in cell " +
                        std::to_string(n * nc + c));
        }
        for (const std::vector<int> &ladder : spec.memoryLadders)
            for (std::size_t k = 1; k < ladder.size(); ++k) {
                const CellOut &slow = cellOf(n, ladder[k - 1]);
                const CellOut &fast = cellOf(n, ladder[k]);
                for (std::size_t t = 0; t < fast.cycles.size(); ++t)
                    if (fast.cycles[t] > slow.cycles[t])
                        problems.push_back(
                            "more bandwidth is slower in cell " +
                            std::to_string(n * nc + ladder[k]));
            }
    }
}

/**
 * One sweep. The timed part is what a user pays: tracing (figs_ci),
 * the grid and the speedup table. Digests and invariants follow,
 * untimed.
 */
SweepOutcome
runSweep(const SweepSpec &spec, const std::vector<NetworkSpec> &suite,
         const std::vector<SceneParams> &scenes,
         const std::vector<TracedNetwork> &prebuilt, std::uint64_t index,
         RuntimeTally &tally)
{
    SweepOutcome out;
    std::vector<TracedNetwork> ownTraces;
    std::vector<CellOut> cells;
    std::vector<double> speedups;
    const Clock::time_point start = Clock::now();
    {
        Span root("bench.sweep", index);
        if (spec.tracesInSweep)
            ownTraces = buildTraces(suite, scenes, spec.workers, tally);
        const std::vector<TracedNetwork> &traced =
            spec.tracesInSweep ? ownTraces : prebuilt;
        const std::size_t nc = spec.configs.size();
        SweepScheduler scheduler =
            makeSweepScheduler(schedulerParams(spec.workers));
        {
            Span map("runtime.map");
            const std::uint32_t mapId = map.id();
            cells = scheduler.map(traced.size() * nc, [&](SweepJob &job) {
                Span cell("bench.cell", job.index, mapId);
                return runCell(traced[job.index / nc],
                               spec.configs[job.index % nc]);
            });
        }
        tally.add(scheduler.stats());
        // Speedup over the network's VAA baseline, as speedupOver()
        // computes it: the ratio of mean-frame-time FPS.
        auto fps = [&](const CellOut &cell, const GridConfig &g) {
            double total = 0.0;
            for (double c : cell.cycles)
                total += c;
            return g.cfg.clockHz /
                   (total / static_cast<double>(cell.cycles.size()));
        };
        for (std::size_t n = 0; n < traced.size(); ++n) {
            const double base = fps(cells[n * nc], spec.configs[0]);
            for (std::size_t c = 1; c < nc; ++c)
                speedups.push_back(
                    fps(cells[n * nc + c], spec.configs[c]) / base);
        }
        out.seconds = secondsSince(start);
        if (spec.tracesInSweep)
            out.gmacs = gmacsOf(ownTraces);
    }

    Digest digest;
    double traffic = 0.0;
    double cycles = 0.0;
    for (const CellOut &cell : cells) {
        digest.add(cell.digest);
        traffic += cell.trafficBytes;
        for (double c : cell.cycles)
            cycles += c;
        out.outputs += cell.outputs;
        out.frameSeconds.insert(out.frameSeconds.end(),
                                cell.frameSeconds.begin(),
                                cell.frameSeconds.end());
    }
    for (double s : speedups)
        digest.add(s);
    out.trafficMb = traffic / 1e6;
    out.gcycles = cycles / 1e9;
    digest.add(out.gmacs);
    digest.add(out.trafficMb);
    digest.add(out.gcycles);
    out.digest = digest.value();
    out.operations = out.frameSeconds.size() +
                     (spec.tracesInSweep ? suite.size() * scenes.size() : 0);
    checkInvariants(spec, cells, suite.size(), out.problems);
    return out;
}

/** End-to-end figures of a set of sweeps. */
struct SweepFigures
{
    double sweepS = 0.0;
    double frameP50Ms = 0.0;
    double frameP99Ms = 0.0;
    double capacityFps = 0.0;
    std::size_t samples = 0;
};

SweepFigures
figuresOf(const std::vector<SweepOutcome> &sweeps)
{
    SweepFigures f;
    std::vector<double> seconds;
    std::vector<double> frames;
    std::vector<std::vector<double>> perSweep;
    for (const SweepOutcome &s : sweeps) {
        seconds.push_back(s.seconds);
        frames.insert(frames.end(), s.frameSeconds.begin(),
                      s.frameSeconds.end());
        perSweep.push_back(s.frameSeconds);
    }
    f.sweepS = median(seconds);
    f.frameP50Ms = quantile(frames, 0.50) * 1e3;
    f.frameP99Ms = segmentedQuantile(perSweep, 0.99) * 1e3;
    f.samples = frames.size();
    f.capacityFps = static_cast<double>(sweeps.front().frameSeconds.size()) /
                    f.sweepS;
    return f;
}

void
runSweepWorkload(const Options &opts, const SweepSpec &spec,
                 std::uint64_t pinned, Result &result)
{
    const std::vector<NetworkSpec> suite = ciDnnSuite();
    const std::vector<SceneParams> scenes =
        scenesFor(opts.seed, spec.scenes, spec.crop);
    RuntimeTally untracedTally;

    // Set-up, kSetups times, reporting the median: the dse_ci traces, or
    // for figs_ci (whose sweep starts cold) a warm-up sweep at smoke
    // size that settles lazy initialisation and code paging.
    std::vector<double> setups;
    std::vector<TracedNetwork> prebuilt;
    for (int r = 0; r < kSetups; ++r) {
        const Clock::time_point start = Clock::now();
        if (spec.tracesInSweep) {
            Options small = opts;
            small.smoke = true;
            SweepSpec warm = figsSpec(small);
            runSweep(warm, suite, scenesFor(opts.seed, warm.scenes, warm.crop),
                     {}, 0, untracedTally);
        } else {
            prebuilt = buildTraces(suite, scenes, spec.workers, untracedTally);
        }
        setups.push_back(secondsSince(start));
    }

    // dse_ci's network forwards run in set-up only: trace one more
    // build there, so that nn and image report what set-up pays.
    if (opts.trace && !spec.tracesInSweep) {
        RuntimeTally setupTally;
        SpanLog::global().setEnabled(true);
        {
            Span root("bench.setup");
            buildTraces(suite, scenes, spec.workers, setupTally);
        }
        SpanLog::global().setEnabled(false);
    }

    std::vector<SweepOutcome> untraced;
    std::vector<SweepOutcome> traced;
    RuntimeTally tracedTally;
    const Clock::time_point start = Clock::now();
    if (!opts.trace) {
        // At least three sweeps, so that sweep_s is a median.
        while (untraced.size() < 3 || secondsSince(start) < opts.seconds)
            untraced.push_back(runSweep(spec, suite, scenes, prebuilt,
                                        untraced.size(), untracedTally));
    } else {
        untraced.push_back(
            runSweep(spec, suite, scenes, prebuilt, 0, untracedTally));
        SpanLog::global().setEnabled(true);
        while (traced.empty() || secondsSince(start) < opts.seconds)
            traced.push_back(runSweep(spec, suite, scenes, prebuilt,
                                      traced.size() + 1, tracedTally));
        SpanLog::global().setEnabled(false);
    }

    // Checks: every sweep reproduces the first one bit for bit, the
    // model invariants hold, and the default seed matches its pin.
    std::vector<SweepOutcome> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    for (const SweepOutcome &s : all) {
        result.attempted += s.operations;
        if (s.digest != all.front().digest) {
            ++result.failed;
            result.wrong("sweep " + hex(s.digest) +
                         " differs from the first sweep " +
                         hex(all.front().digest));
        }
        for (const std::string &p : s.problems) {
            ++result.failed;
            result.wrong(p);
        }
    }
    result.checkDigest(opts, "sweep", all.front().digest, pinned);
    std::printf("counts nn.gmacs=%.17g encode.traffic_mb=%.17g "
                "sim.gcycles=%.17g\n",
                all.front().gmacs, all.front().trafficMb,
                all.front().gcycles);

    const SweepFigures base = figuresOf(untraced);
    if (!opts.trace) {
        std::printf("samples frames=%zu frame_p99_ms=%.6g sweeps=%zu, "
                    "seconds:",
                    base.samples, base.frameP99Ms, untraced.size());
        for (const SweepOutcome &o : untraced)
            std::printf(" %.4f", o.seconds);
        std::printf("\n");
        result.add("setup_s", median(setups), "s");
        result.add("sweep_s", base.sweepS, "s");
        result.add("frame_p50_ms", base.frameP50Ms, "ms");
        result.add("capacity_fps", base.capacityFps, "1/s");
        result.add("rss_peak_mb", rssPeakMb(), "MB");
        return;
    }

    const SweepFigures withSpans = figuresOf(traced);
    const std::vector<SpanRecord> spans = SpanLog::global().spans();
    const auto byName = selfSeconds(spans, false, "bench.sweep");
    const auto byLayer = selfSeconds(spans, true, "bench.sweep");
    // nn and image: per sweep where the sweep traces, else per set-up.
    const bool inSweep = spec.tracesInSweep;
    const auto forwardByName =
        inSweep ? byName : selfSeconds(spans, false, "bench.setup");
    const auto forwardByLayer =
        inSweep ? byLayer : selfSeconds(spans, true, "bench.setup");
    auto self = [&](const std::map<std::string, double> &m,
                    const std::string &key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    };
    const double n = static_cast<double>(traced.size());
    double encodeCalls = 0.0;
    for (const SpanRecord &s : spans)
        encodeCalls += s.name == "encode.traffic";
    const double simSeconds = self(byName, "sim.compute.vaa") +
                              self(byName, "sim.compute.pra") +
                              self(byName, "sim.compute.diffy");

    const double builds = inSweep ? n : 1.0;
    LayerMetrics m;
    m.nnForwardS = self(forwardByLayer, "nn") / builds;
    for (const char *net : kCiNetworks)
        m.nnForwardByNet[net] =
            self(forwardByName, std::string("nn.forward.") + net) / builds;
    m.nnGmacs = inSweep ? traced.front().gmacs : gmacsOf(prebuilt);
    m.encodeTrafficS = self(byName, "encode.traffic") / n;
    m.encodeTrafficCalls = encodeCalls / n;
    m.encodeTrafficMb = traced.front().trafficMb;
    m.simComputeVaaS = self(byName, "sim.compute.vaa") / n;
    m.simComputePraS = self(byName, "sim.compute.pra") / n;
    m.simComputeDiffyS = self(byName, "sim.compute.diffy") / n;
    m.simGcycles = traced.front().gcycles;
    m.simNsPerOutput = simSeconds * 1e9 / (traced.front().outputs * n);
    m.runtimeUtilization = tracedTally.workerSeconds > 0.0
                               ? tracedTally.busy / tracedTally.workerSeconds
                               : 0.0;
    m.runtimeQueueWaitS =
        tracedTally.jobs > 0.0 ? tracedTally.queueWait / tracedTally.jobs
                               : 0.0;
    m.imageRenderS = self(forwardByLayer, "image") / builds;
    m.frameSamples = static_cast<double>(withSpans.samples);
    m.frameP99Ms = base.frameP99Ms;
    m.overheadSweepS = withSpans.sweepS - base.sweepS;
    m.overheadFrameP50Ms = withSpans.frameP50Ms - base.frameP50Ms;
    m.attributedShare = attributedShare(byLayer);
    std::printf("traced sweeps=%zu sweep_s=%.6f untraced sweep_s=%.6f "
                "self seconds:",
                traced.size(), withSpans.sweepS, base.sweepS);
    for (const auto &[layer, seconds] : byLayer)
        std::printf(" %s=%.6f", layer.c_str(), seconds / n);
    std::printf("\n");
    m.emit(result);
}

} // namespace

void
runFigsCi(const Options &opts, Result &result)
{
    runSweepWorkload(opts, figsSpec(opts), pins::kFigsCi, result);
}

void
runDseCi(const Options &opts, Result &result)
{
    runSweepWorkload(opts, dseSpec(opts), pins::kDseCi, result);
}

} // namespace perfbench
