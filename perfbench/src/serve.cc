/**
 * @file
 * serve_pan: an open-loop StreamServer driven by one thread.
 *
 * 8 pan-motion MicroServe streams at 32x32 on 2 workers, oracle
 * verification off. Every stream's frames are due at a fixed 10 fps
 * (see Arrivals): 80 fps offered, about a quarter of the saturated
 * capacity of a calm host and under two thirds of it when the host runs
 * at 40% of its speed. At 20 fps (the knee of this one-driver loop: a
 * lone frame's batch takes about 6.5 ms, so batches of one top out near
 * 155 fps) and at 15 fps (saturated whenever a loaded host cut
 * capacity to 130-170 fps, taking p50 to 45-67 ms) the latencies
 * measured the host rather than the server. Cameras send whether or not the
 * server keeps up, hence the open loop: a frame's latency runs from
 * its due time, so a stall also charges the frames queued behind it.
 * A saturated closed loop (offer a frame on every stream, drain,
 * repeat) measures capacity. The two alternate in blocks of about 5 s,
 * so that each samples the host over the whole measured phase.
 *
 * The server calls image, nn and core internally, so the traced run
 * replays each stream's frames through FrameSequence::frame ->
 * runNetwork -> temporalStep on one thread, with the server's stream
 * seeds, and checks that the replay reproduces the server's counters.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "layers.hh"
#include "nn/models.hh"
#include "pins.hh"
#include "runtime/sweep.hh"
#include "serve/stream_server.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

using namespace diffy;

constexpr double kFramePeriodS = 1.0 / 10.0;
/** Closed-loop rounds (one frame per stream) per capacity sweep. */
constexpr int kRoundsPerSweep = 16;
/**
 * A measured phase is cut into blocks of about this length, each an
 * open-loop window followed by closed-loop sweeps. With one window of
 * each, every metric saw a single stretch of a host whose speed drifts
 * by 10-30% over tens of seconds, and the sweep figures spread by up to
 * 0.28 of their median across seeds.
 */
constexpr double kBlockSeconds = 5.0;
/** Share of each block that runs open loop. */
constexpr double kOpenShare = 0.6;
/** Rounds of the untimed checks and of the traced replay. */
constexpr int kCheckRounds = 24;

ServeOptions
serveOptions(const Options &opts)
{
    ServeOptions so;
    so.network = "MicroServe";
    so.streams = opts.smoke ? 2 : 8;
    so.threads = 2;
    // Deep enough (4 frames a stream, about 0.27 s of arrivals) that a
    // host stall delays frames instead of refusing them.
    so.queueCapacity = 32;
    so.frameHeight = opts.smoke ? 16 : 32;
    so.frameWidth = so.frameHeight;
    so.seed = SweepScheduler::jobSeed(opts.seed, 1);
    so.motion = MotionKind::Pan;
    so.verifyOracle = false;
    return so;
}

/** Stream k's sequence, as StreamServer builds it. */
SequenceParams
streamParams(const ServeOptions &so, int k)
{
    const SceneKind kinds[] = {SceneKind::Nature, SceneKind::City,
                               SceneKind::Texture, SceneKind::Gradient,
                               SceneKind::Portrait};
    SequenceParams p;
    p.scene.kind = kinds[k % 5];
    p.scene.width = so.frameWidth;
    p.scene.height = so.frameHeight;
    p.scene.seed =
        SweepScheduler::jobSeed(so.seed, static_cast<std::size_t>(k));
    p.motion = so.motion;
    p.amplitude = so.amplitude;
    p.motionSeed = SweepScheduler::jobSeed(so.seed ^ 0xD1FF5EEDULL,
                                           static_cast<std::size_t>(k));
    return p;
}

std::uint64_t
requestId(int stream, std::uint64_t frame)
{
    return (static_cast<std::uint64_t>(stream) << 32) | frame;
}

/** Frames served or failed so far on each stream. */
std::vector<std::uint64_t>
retired(const StreamServer &server)
{
    std::vector<std::uint64_t> out;
    for (int k = 0; k < server.options().streams; ++k)
        out.push_back(server.counters(k).served + server.counters(k).failed);
    return out;
}

/**
 * Open-loop arrival schedule: every stream sends at a fixed rate, and
 * the streams are staggered evenly over the frame period, in a seeded
 * order and at a seeded offset, as the cameras of one rig would be.
 * Random phases were tried and rejected: with them two streams now and
 * then send within a millisecond of each other, and p99 then rests on
 * how often a noisy host stretches a batch while a frame waits behind
 * it; it spread by 0.39 of its median across seeds.
 */
class Arrivals
{
  public:
    Arrivals(int streams, std::uint64_t seed)
    {
        Rng rng(seed);
        for (int k = 0; k < streams; ++k)
            slot_.push_back(k);
        for (int k = streams - 1; k > 0; --k)
            std::swap(slot_[k],
                      slot_[rng.below(static_cast<std::uint64_t>(k) + 1)]);
        offset_ = rng.uniform();
    }

    /** Due time of stream k's n-th frame, seconds from the start. */
    double due(int k, std::uint64_t n) const
    {
        const double slots = static_cast<double>(slot_.size());
        return (static_cast<double>(n) + (slot_[k] + offset_) / slots) *
               kFramePeriodS;
    }

  private:
    std::vector<int> slot_;
    double offset_ = 0.0;
};

/** What one open-loop window measured. */
struct OpenLoop
{
    std::vector<double> latencies; ///< seconds from due to done
    std::vector<double> batchSeconds;
    std::vector<double> batchSizes;
    std::vector<double> queueWaits; ///< offer to batch start
    double lateMax = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t refused = 0;
    std::uint64_t failed = 0;

    void append(const OpenLoop &o)
    {
        latencies.insert(latencies.end(), o.latencies.begin(),
                         o.latencies.end());
        batchSeconds.insert(batchSeconds.end(), o.batchSeconds.begin(),
                            o.batchSeconds.end());
        batchSizes.insert(batchSizes.end(), o.batchSizes.begin(),
                          o.batchSizes.end());
        queueWaits.insert(queueWaits.end(), o.queueWaits.begin(),
                          o.queueWaits.end());
        lateMax = std::max(lateMax, o.lateMax);
        offered += o.offered;
        refused += o.refused;
        failed += o.failed;
    }
};

/**
 * Offer every stream's frames at their due times for @p window seconds
 * and serve them as they queue up. A refused or failed frame never
 * completes: its latency is the whole window, past any limit.
 */
OpenLoop
runOpenLoop(StreamServer &server, const Arrivals &arrivals, double window)
{
    const int n = server.options().streams;
    OpenLoop out;
    struct InFlight
    {
        double due;
        double offered;
    };
    std::vector<std::deque<InFlight>> inflight(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> sent(static_cast<std::size_t>(n), 0);
    std::vector<double> nextDue;
    for (int k = 0; k < n; ++k)
        nextDue.push_back(arrivals.due(k, 0));
    std::vector<std::uint64_t> done = retired(server);
    std::vector<std::uint64_t> failedSeen;
    for (int k = 0; k < n; ++k)
        failedSeen.push_back(server.counters(k).failed);
    const Clock::time_point t0 = Clock::now();
    Span root("bench.serve");
    for (;;) {
        // Offer every frame that is due, earliest first.
        for (;;) {
            auto k = static_cast<std::size_t>(
                std::min_element(nextDue.begin(), nextDue.end()) -
                nextDue.begin());
            const double due = nextDue[k];
            if (due >= window || due > secondsSince(t0))
                break;
            const int stream = static_cast<int>(k);
            nextDue[k] = arrivals.due(stream, ++sent[k]);
            const double now = secondsSince(t0);
            out.lateMax = std::max(out.lateMax, now - due);
            bool admitted;
            {
                Span span("serve.offer",
                          requestId(stream, server.counters(stream).offered));
                admitted = server.offer(stream);
            }
            ++out.offered;
            if (admitted) {
                inflight[k].push_back({due, now});
            } else {
                ++out.refused;
                out.latencies.push_back(window);
            }
        }
        if (server.pending() > 0) {
            const double start = secondsSince(t0);
            {
                Span span("serve.batch");
                server.runBatch();
            }
            const double end = secondsSince(t0);
            // runBatch() serves at most one frame per stream, so each
            // stream retires its oldest in-flight frame or nothing.
            const std::vector<std::uint64_t> now = retired(server);
            int size = 0;
            for (std::size_t k = 0; k < now.size(); ++k) {
                if (now[k] == done[k])
                    continue;
                done[k] = now[k];
                ++size;
                const InFlight f = inflight[k].front();
                inflight[k].pop_front();
                out.queueWaits.push_back(start - f.offered);
                const std::uint64_t failedNow =
                    server.counters(static_cast<int>(k)).failed;
                if (failedNow != failedSeen[k]) {
                    failedSeen[k] = failedNow;
                    ++out.failed;
                    out.latencies.push_back(window);
                } else {
                    out.latencies.push_back(end - f.due);
                }
            }
            out.batchSeconds.push_back(end - start);
            out.batchSizes.push_back(size);
            continue;
        }
        const double next = *std::min_element(nextDue.begin(), nextDue.end());
        if (next >= window)
            break;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(next)));
    }
    return out;
}

/**
 * Saturated closed loop: each round offers one frame on every stream
 * and drains the queue. Returns the seconds of each sweep of
 * kRoundsPerSweep rounds; at least one sweep, then until @p budget.
 */
std::vector<double>
runClosedLoop(StreamServer &server, double budget, std::uint64_t &refused)
{
    std::vector<double> sweeps;
    const Clock::time_point t0 = Clock::now();
    Span root("bench.serve");
    while (sweeps.empty() || secondsSince(t0) < budget) {
        const Clock::time_point start = Clock::now();
        for (int r = 0; r < kRoundsPerSweep; ++r) {
            for (int k = 0; k < server.options().streams; ++k) {
                Span span("serve.offer",
                          requestId(k, server.counters(k).offered));
                refused += server.offer(k) ? 0 : 1;
            }
            for (;;) {
                Span span("serve.batch");
                if (server.runBatch() == 0)
                    break;
            }
        }
        sweeps.push_back(secondsSince(start));
    }
    return sweeps;
}

/** One round-robin round per stream frame: offer all, drain. */
StreamCounters
serveRounds(const ServeOptions &so, int rounds)
{
    StreamServer server(so);
    for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < so.streams; ++k)
            server.offer(k);
        server.drainAll();
    }
    return server.totals().sum;
}

std::uint64_t
temporalDigest(const StreamCounters &c)
{
    Digest d;
    for (std::uint64_t v :
         {c.served, c.anchoredLayers, c.layers, c.values, c.rawTerms,
          c.spatialTerms, c.temporalTerms, c.temporalSpatialTerms,
          c.codecBits})
        d.add(v);
    return d.value();
}

/** End-to-end figures of one measured phase. */
struct ServeFigures
{
    double sweepS = 0.0;
    double frameP50Ms = 0.0;
    double frameP99Ms = 0.0;
    double capacityFps = 0.0;
    OpenLoop open;
    std::uint64_t closedFrames = 0;
    std::uint64_t closedRefused = 0;
};

/** Alternate open-loop and closed-loop blocks for @p seconds. */
ServeFigures
measure(StreamServer &server, const Arrivals &arrivals, double seconds)
{
    ServeFigures f;
    const int blocks =
        std::max(1, static_cast<int>(std::lround(seconds / kBlockSeconds)));
    const double block = seconds / blocks;
    std::vector<std::vector<double>> latencyByBlock;
    std::vector<double> sweeps;
    for (int b = 0; b < blocks; ++b) {
        const OpenLoop open =
            runOpenLoop(server, arrivals, kOpenShare * block);
        latencyByBlock.push_back(open.latencies);
        f.open.append(open);
        const std::vector<double> closed = runClosedLoop(
            server, (1.0 - kOpenShare) * block, f.closedRefused);
        sweeps.insert(sweeps.end(), closed.begin(), closed.end());
    }
    const double framesPerSweep =
        static_cast<double>(kRoundsPerSweep) * server.options().streams;
    f.closedFrames = static_cast<std::uint64_t>(framesPerSweep) *
                     sweeps.size();
    f.sweepS = median(sweeps);
    f.capacityFps = framesPerSweep / f.sweepS;
    f.frameP50Ms = quantile(f.open.latencies, 0.50) * 1e3;
    // p99 per block, then the median over the blocks.
    f.frameP99Ms = segmentedQuantile(latencyByBlock, 0.99) * 1e3;
    return f;
}

} // namespace

void
runServePan(const Options &opts, Result &result)
{
    const ServeOptions so = serveOptions(opts);

    const Arrivals arrivals(so.streams, SweepScheduler::jobSeed(opts.seed, 2));

    // Set-up, kSetups times: server construction plus warmup rounds.
    std::vector<double> setups;
    std::unique_ptr<StreamServer> server;
    for (int r = 0; r < kSetups; ++r) {
        server.reset();
        const Clock::time_point start = Clock::now();
        server = std::make_unique<StreamServer>(so);
        for (int w = 0; w < 8; ++w) {
            for (int k = 0; k < so.streams; ++k)
                server->offer(k);
            server->drainAll();
        }
        setups.push_back(secondsSince(start));
    }

    const double s = opts.seconds;
    ServeFigures base;
    ServeFigures traced;
    if (!opts.trace) {
        base = measure(*server, arrivals, s);
    } else {
        base = measure(*server, arrivals, 0.5 * s);
        SpanLog::global().setEnabled(true);
        traced = measure(*server, arrivals, 0.5 * s);
        SpanLog::global().setEnabled(false);
    }

    // Checks. Timed phases: nothing refused or failed. Untimed phase:
    // an oracle-verified server (every delta reconstruction checked
    // against the dense per-frame result) with pinned counters.
    for (const ServeFigures *f : {&base, &traced}) {
        result.attempted += f->open.offered + f->closedFrames;
        result.failed += f->open.refused + f->open.failed + f->closedRefused;
    }
    const ServeTotals totals = server->totals();
    ServeOptions verified = so;
    verified.verifyOracle = true;
    const StreamCounters check = serveRounds(verified, kCheckRounds);
    const std::uint64_t checkFrames =
        static_cast<std::uint64_t>(kCheckRounds) * so.streams;
    result.attempted += checkFrames;
    if (check.served != checkFrames || check.failed != 0) {
        result.failed += check.failed;
        result.wrong("oracle-verified serving served " +
                     std::to_string(check.served) + " of " +
                     std::to_string(checkFrames) + " frames, " +
                     std::to_string(check.failed) + " failed");
    }
    if (totals.sum.failed != 0) {
        result.wrong(std::to_string(totals.sum.failed) +
                     " frames failed while timed");
    }
    result.checkDigest(opts, "temporal", temporalDigest(check),
                       pins::kServePan);
    std::printf("counts served=%llu anchored_layers=%llu layers=%llu "
                "values=%llu raw_terms=%llu temporal_terms=%llu "
                "codec_bits=%llu\n",
                static_cast<unsigned long long>(check.served),
                static_cast<unsigned long long>(check.anchoredLayers),
                static_cast<unsigned long long>(check.layers),
                static_cast<unsigned long long>(check.values),
                static_cast<unsigned long long>(check.rawTerms),
                static_cast<unsigned long long>(check.temporalTerms),
                static_cast<unsigned long long>(check.codecBits));

    if (!opts.trace) {
        std::printf("samples frames=%zu frame_p99_ms=%.6g late_ms_max=%.3f "
                    "sweeps_frames=%llu\n",
                    base.open.latencies.size(), base.frameP99Ms,
                    base.open.lateMax * 1e3,
                    static_cast<unsigned long long>(base.closedFrames));
        result.add("setup_s", median(setups), "s");
        result.add("sweep_s", base.sweepS, "s");
        result.add("frame_p50_ms", base.frameP50Ms, "ms");
        result.add("capacity_fps", base.capacityFps, "1/s");
        result.add("rss_peak_mb", rssPeakMb(), "MB");
        return;
    }

    // Single-thread replay of the served frames, one span per layer
    // call, rooted per frame.
    SpanLog::global().setEnabled(true);
    const NetworkSpec net = makeNetwork(so.network);
    TemporalOptions topts;
    topts.reanchorInterval = so.reanchorInterval;
    StreamCounters replay;
    double macs = 0.0;
    for (int k = 0; k < so.streams; ++k) {
        FrameSequence seq(streamParams(so, k));
        TemporalNetState state;
        for (int t = 0; t < kCheckRounds; ++t) {
            Span root("bench.replay", requestId(k, t));
            Tensor3<float> rgb = [&] {
                Span span("image.frame");
                return seq.frame(t);
            }();
            NetworkTrace trace = [&] {
                Span span("nn.forward." + net.name);
                return runNetwork(net, rgb, so.exec);
            }();
            TemporalFrameStats st = [&] {
                Span span("core.temporal");
                return temporalStep(state, trace, t, topts);
            }();
            for (const LayerTrace &lt : trace.layers)
                macs += static_cast<double>(lt.outCount()) *
                        static_cast<double>(lt.spec.macsPerOutput());
            ++replay.served;
            replay.anchoredLayers += static_cast<std::uint64_t>(st.anchored);
            replay.layers += static_cast<std::uint64_t>(st.layerCount);
            replay.values += st.values;
            replay.rawTerms += st.rawTerms;
            replay.spatialTerms += st.spatialTerms;
            replay.temporalTerms += st.temporalTerms;
            replay.temporalSpatialTerms += st.temporalSpatialTerms;
            replay.codecBits += st.codecBits;
        }
    }
    SpanLog::global().setEnabled(false);
    if (temporalDigest(replay) != temporalDigest(check))
        result.wrong("the single-thread replay does not reproduce the "
                     "server's temporal counters");

    const std::vector<SpanRecord> spans = SpanLog::global().spans();
    const auto byLayer = selfSeconds(spans, true, "bench.replay");
    auto self = [&](const std::string &layer) {
        auto it = byLayer.find(layer);
        return it == byLayer.end() ? 0.0 : it->second;
    };
    const double frames = static_cast<double>(replay.served);
    const OpenLoop &open = traced.open;
    LayerMetrics m;
    m.nnForwardS = self("nn") / frames;
    m.nnGmacs = macs / 1e9;
    m.imageFrameS = self("image") / frames;
    m.coreTemporalS = self("core") / frames;
    m.coreAnchorShare = static_cast<double>(replay.anchoredLayers) /
                        static_cast<double>(replay.layers);
    m.encodeTemporalBitsPerValue = static_cast<double>(replay.codecBits) /
                                   static_cast<double>(replay.values);
    m.serveBatchS = median(open.batchSeconds);
    double batched = 0.0;
    for (double b : open.batchSizes)
        batched += b;
    m.serveBatchSize =
        open.batchSizes.empty() ? 0.0 : batched / open.batchSizes.size();
    m.serveQueueWaitMsP50 = median(open.queueWaits) * 1e3;
    m.serveRejected = static_cast<double>(open.refused + traced.closedRefused);
    m.loadLateMsMax = open.lateMax * 1e3;
    m.frameSamples = static_cast<double>(open.latencies.size());
    m.frameP99Ms = base.frameP99Ms;
    m.overheadSweepS = traced.sweepS - base.sweepS;
    m.overheadFrameP50Ms = traced.frameP50Ms - base.frameP50Ms;
    m.attributedShare = attributedShare(byLayer);
    std::printf("replay frames=%.0f self seconds per frame:", frames);
    for (const auto &[layer, seconds] : byLayer)
        std::printf(" %s=%.6f", layer.c_str(), seconds / frames);
    std::printf("\n");
    m.emit(result);
}

} // namespace perfbench
