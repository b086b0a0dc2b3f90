#include "serve/stream_server.hh"

#include <array>
#include <stdexcept>
#include <utility>

#include "common/pool.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "runtime/sweep.hh"

namespace diffy
{

namespace
{

/** Scene family of stream @p k — cycled so a fleet of streams covers
 *  the synthesizer's statistics rather than five copies of one. */
SceneKind
streamScene(int k)
{
    switch (k % 5) {
      case 0:
        return SceneKind::Nature;
      case 1:
        return SceneKind::City;
      case 2:
        return SceneKind::Texture;
      case 3:
        return SceneKind::Gradient;
      default:
        return SceneKind::Portrait;
    }
}

constexpr std::size_t kFailureKinds =
    static_cast<std::size_t>(FailureKind::Unknown) + 1;

} // namespace

void
ServeOptions::validate() const
{
    auto bad = [](const std::string &msg) {
        throw std::invalid_argument("ServeOptions: " + msg);
    };
    if (streams < 1)
        bad("streams must be >= 1, got " + std::to_string(streams));
    if (queueCapacity < 1)
        bad("queueCapacity must be >= 1, got " +
            std::to_string(queueCapacity));
    if (batchMax < 1)
        bad("batchMax must be >= 1, got " + std::to_string(batchMax));
    if (threads < 0)
        bad("threads must be >= 0, got " + std::to_string(threads));
    if (reanchorInterval < 0)
        bad("reanchorInterval must be >= 0, got " +
            std::to_string(reanchorInterval));
    if (frameHeight < 8 || frameWidth < 8)
        bad("frame size must be >= 8x8, got " +
            std::to_string(frameHeight) + "x" + std::to_string(frameWidth));
    if (amplitude < 0)
        bad("amplitude must be >= 0, got " + std::to_string(amplitude));
}

/** One logical client: its sequence, temporal state, and tallies. */
struct StreamServer::Stream
{
    FrameSequence seq;
    TemporalNetState state;
    /** Next frame index to offer; advances on every offer. */
    std::int64_t clock = 0;
    StreamCounters counters;
    /** Per-stream latency histogram handle (stable for the process). */
    obs::LatencyHistogram *latency = nullptr;
    /**
     * Per-stream frame arena, rewound at the start of each job. Safe
     * because runBatch() never picks two requests of one stream, so at
     * most one worker touches this arena at a time, and nothing
     * arena-backed survives the job: cross-frame state (prevImap /
     * prevOmap) is copy-assigned, which keeps its heap storage.
     */
    FrameArena arena;

    explicit Stream(const SequenceParams &p) : seq(p) {}
};

StreamServer::StreamServer(const ServeOptions &opts)
    : opts_(opts), failuresByKind_(kFailureKinds, 0)
{
    opts_.validate();
    threads_ = SweepScheduler::resolveThreadCount(opts_.threads);
    net_ = makeNetwork(opts_.network);
    streams_.reserve(static_cast<std::size_t>(opts_.streams));
    for (int k = 0; k < opts_.streams; ++k) {
        SequenceParams p;
        p.scene.kind = streamScene(k);
        p.scene.width = opts_.frameWidth;
        p.scene.height = opts_.frameHeight;
        p.scene.seed = SweepScheduler::jobSeed(
            opts_.seed, static_cast<std::size_t>(k));
        p.motion = opts_.motion;
        p.amplitude = opts_.amplitude;
        p.motionSeed = SweepScheduler::jobSeed(
            opts_.seed ^ 0xD1FF5EEDULL, static_cast<std::size_t>(k));
        // One-time construction, not the steady-state serve path.
        auto s = std::make_unique<Stream>(p); // diffy-lint: allow(R9)
        s->latency = &obs::MetricsRegistry::instance().histogram(
            "serve.frame_seconds:s" +
            std::to_string(k)); // diffy-lint: allow(R9)
        streams_.push_back(std::move(s));
    }
    auto &registry = obs::MetricsRegistry::instance();
    bytesGauge_ = &registry.gauge("pool.bytes_in_use");
    steadyGauge_ = &registry.gauge("pool.allocs_steady_state");
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);
}

StreamServer::~StreamServer() = default;

bool
StreamServer::offer(int stream)
{
    if (stream < 0 || stream >= static_cast<int>(streams_.size()))
        throw std::out_of_range("StreamServer: no stream " +
                                std::to_string(stream));
    Stream &s = *streams_[static_cast<std::size_t>(stream)];
    ++s.counters.offered;
    // The frame clock tracks the *camera*, not the queue: a rejected
    // offer drops the frame, and the next admitted one carries the
    // correspondingly wider temporal delta.
    const std::int64_t frame = s.clock++;
    if (pending_.size() >= static_cast<std::size_t>(opts_.queueCapacity)) {
        ++s.counters.rejected;
        obs::MetricsRegistry::instance().counter("serve.rejected").add(1);
        return false;
    }
    pending_.push_back({stream, frame});
    ++s.counters.admitted;
    return true;
}

int
StreamServer::runBatch()
{
    // Drain up to batchMax requests, never two of one stream: frame
    // t+1 needs frame t's omap as its temporal reference, so a
    // stream's requests are strictly sequential across batches.
    // Unpicked requests are compacted toward the front in place —
    // FIFO order among what remains, and no scratch deque per batch.
    std::vector<Request> batch;
    batch.reserve(static_cast<std::size_t>(opts_.batchMax));
    std::vector<bool> picked(streams_.size(), false);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Request r = pending_[i];
        if (batch.size() < static_cast<std::size_t>(opts_.batchMax) &&
            !picked[static_cast<std::size_t>(r.stream)]) {
            picked[static_cast<std::size_t>(r.stream)] = true;
            batch.push_back(r);
        } else {
            pending_[kept++] = r;
        }
    }
    pending_.resize(kept);
    if (batch.empty())
        return 0;

    struct JobResult
    {
        bool ok = false;
        FailureKind kind = FailureKind::None;
        std::string message;
        TemporalFrameStats stats;
    };
    std::vector<JobResult> results(batch.size());

    auto body = [this](const Request &req, JobResult &out) {
        Stream &s = *streams_[static_cast<std::size_t>(req.stream)];
        obs::ScopedLatency timer(*s.latency);
        // Recycle the previous frame's scratch storage and make the
        // arena ambient for everything this job allocates. JobResult
        // carries no tensors, so nothing arena-backed escapes.
        s.arena.rewind();
        ArenaScope scope(s.arena);
        try {
            const Tensor3<float> rgb = s.seq.frame(req.frame);
            const NetworkTrace trace = runNetwork(net_, rgb, opts_.exec);
            TemporalOptions topts;
            topts.reanchorInterval = opts_.reanchorInterval;
            topts.verifyAgainstOracle = opts_.verifyOracle;
            out.stats = temporalStep(s.state, trace,
                                     static_cast<int>(req.frame), topts);
            out.ok = true;
        } catch (...) {
            // Never escapes the job: classified into the sweep
            // taxonomy and recorded in slot order below, so failure
            // accounting is independent of scheduling.
            out.kind =
                classifyException(std::current_exception(), &out.message);
        }
    };

    {
        obs::ScopedLatency timer(
            obs::MetricsRegistry::instance().histogram(
                "serve.batch_seconds"));
        if (pool_) {
            for (std::size_t i = 0; i < batch.size(); ++i)
                pool_->submit(
                    [&, i] { body(batch[i], results[i]); });
            pool_->wait();
        } else {
            for (std::size_t i = 0; i < batch.size(); ++i)
                body(batch[i], results[i]);
        }
    }

    // Reduce in admission order — the deterministic half of the loop.
    auto &registry = obs::MetricsRegistry::instance();
    std::uint64_t servedDelta = 0;
    std::array<std::uint64_t, kFailureKinds> failedDelta{};
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Stream &s = *streams_[static_cast<std::size_t>(batch[i].stream)];
        const JobResult &r = results[i];
        if (r.ok) {
            ++s.counters.served;
            s.counters.anchoredLayers +=
                static_cast<std::uint64_t>(r.stats.anchored);
            s.counters.layers +=
                static_cast<std::uint64_t>(r.stats.layerCount);
            s.counters.values += r.stats.values;
            s.counters.rawTerms += r.stats.rawTerms;
            s.counters.spatialTerms += r.stats.spatialTerms;
            s.counters.temporalTerms += r.stats.temporalTerms;
            s.counters.temporalSpatialTerms += r.stats.temporalSpatialTerms;
            s.counters.codecBits += r.stats.codecBits;
            ++servedDelta;
        } else {
            ++s.counters.failed;
            ++failuresByKind_[static_cast<std::size_t>(r.kind)];
            ++failedDelta[static_cast<std::size_t>(r.kind)];
        }
    }
    // Metric emission is batch-granular report assembly: the counter
    // names are built once per batch here, not once per frame above.
    if (servedDelta > 0)
        registry.counter("serve.frames").add(servedDelta);
    for (std::size_t k = 0; k < kFailureKinds; ++k)
        if (failedDelta[k] > 0)
            registry
                .counter("serve.errors." + // diffy-lint: allow(R9)
                         to_string(static_cast<FailureKind>(k)))
                .add(failedDelta[k]);
    bytesGauge_->set(static_cast<double>(arenaBytes()));
    steadyGauge_->set(static_cast<double>(steadyFetches()));
    return static_cast<int>(batch.size());
}

void
StreamServer::drainAll()
{
    while (runBatch() > 0) {
    }
}

void
StreamServer::markSteadyState()
{
    steady_ = true;
    fetchesAtSteady_ = slabFetches();
}

std::uint64_t
StreamServer::slabFetches() const
{
    std::uint64_t fetches = 0;
    for (const auto &s : streams_)
        fetches += s->arena.slabCount();
    return fetches;
}

std::uint64_t
StreamServer::steadyFetches() const
{
    return steady_ ? slabFetches() - fetchesAtSteady_ : 0;
}

std::uint64_t
StreamServer::arenaBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &s : streams_)
        bytes += s->arena.heldBytes();
    return bytes;
}

const StreamCounters &
StreamServer::counters(int stream) const
{
    if (stream < 0 || stream >= static_cast<int>(streams_.size()))
        throw std::out_of_range("StreamServer: no stream " +
                                std::to_string(stream));
    return streams_[static_cast<std::size_t>(stream)]->counters;
}

ServeTotals
StreamServer::totals() const
{
    ServeTotals t;
    t.failuresByKind = failuresByKind_;
    for (const auto &s : streams_) {
        const StreamCounters &c = s->counters;
        t.sum.offered += c.offered;
        t.sum.admitted += c.admitted;
        t.sum.rejected += c.rejected;
        t.sum.served += c.served;
        t.sum.failed += c.failed;
        t.sum.anchoredLayers += c.anchoredLayers;
        t.sum.layers += c.layers;
        t.sum.values += c.values;
        t.sum.rawTerms += c.rawTerms;
        t.sum.spatialTerms += c.spatialTerms;
        t.sum.temporalTerms += c.temporalTerms;
        t.sum.temporalSpatialTerms += c.temporalSpatialTerms;
        t.sum.codecBits += c.codecBits;
    }
    return t;
}

} // namespace diffy
