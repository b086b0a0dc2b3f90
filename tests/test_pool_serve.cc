/**
 * @file
 * Stream-arena integration tests for the serve loop (DESIGN.md §16).
 * Lives in the runtime test binary so the ThreadSanitizer CI job
 * covers the claim that per-stream arenas recycled across serve
 * batches never alias an in-flight frame: each arena is touched by at
 * most one worker per batch, and cross-frame temporal state is
 * copy-assigned onto heap storage before the next rewind.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/pool.hh"
#include "obs/metrics.hh"
#include "serve/saturation.hh"
#include "serve/stream_server.hh"

namespace diffy
{
namespace
{

ServeOptions
poolServe(int streams, int threads)
{
    ServeOptions o;
    o.streams = streams;
    o.queueCapacity = streams;
    o.batchMax = streams;
    o.threads = threads;
    o.reanchorInterval = 4;
    o.frameHeight = 16;
    o.frameWidth = 16;
    o.seed = 21;
    o.motion = MotionKind::Pan;
    o.amplitude = 2;
    // Every reconstruction is checked against the per-frame oracle:
    // if buffer reuse ever aliased an in-flight frame, the decoded
    // tensors would diverge and this would fail loudly.
    o.verifyOracle = true;
    return o;
}

/** One round-robin inject-then-drain round over every stream. */
void
runRound(StreamServer &server)
{
    for (int k = 0; k < server.options().streams; ++k)
        server.offer(k);
    server.drainAll();
}

TEST(ServePool, BatchesReuseBuffersWithoutAliasingInFlightFrames)
{
    // Multi-threaded on purpose: four workers rewind and fill four
    // distinct arenas concurrently, each installed as its worker's
    // ambient scratch resource — the exact surface the TSan job must
    // see.
    StreamServer server(poolServe(4, 4));
    runRound(server); // warmup: arenas fetch their slabs
    const std::uint64_t fetchesAfterWarmup = server.slabFetches();
    EXPECT_GT(fetchesAfterWarmup, 0u);

    for (int r = 0; r < 6; ++r)
        runRound(server);

    // Steady state: later batches ran entirely out of recycled
    // arena slabs — zero new heap fetches across six rounds.
    EXPECT_EQ(server.slabFetches(), fetchesAfterWarmup);
    EXPECT_GE(server.arenaBytes(),
              fetchesAfterWarmup * FrameArena::kSlabBytes);
    // And the frames were all served and oracle-verified.
    const ServeTotals totals = server.totals();
    EXPECT_EQ(totals.sum.served, 28u);
    EXPECT_EQ(totals.sum.failed, 0u);
}

TEST(ServePool, MarkBeforeWarmupCountsEveryFirstSlab)
{
    // The gate must be able to fail: a server marked steady before it
    // has served a frame sees each stream's arena fetch its first
    // slab inside the "steady" window, and reports all of them.
    StreamServer server(poolServe(4, 4));
    server.markSteadyState();
    EXPECT_EQ(server.steadyFetches(), 0u);
    runRound(server);

    EXPECT_EQ(server.steadyFetches(), 4u);
    EXPECT_EQ(server.steadyFetches(), server.slabFetches());
    EXPECT_EQ(obs::MetricsRegistry::instance()
                  .gauge("pool.allocs_steady_state")
                  .value(),
              4.0);
    EXPECT_EQ(obs::MetricsRegistry::instance()
                  .gauge("pool.bytes_in_use")
                  .value(),
              static_cast<double>(server.arenaBytes()));
}

TEST(ServePool, SteadyStateGaugeStaysZeroAfterWarmup)
{
    const AllocationGateReport report =
        runAllocationGate(poolServe(3, 2), /*warmupRounds=*/3,
                          /*steadyRounds=*/8);
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(report.steadyPoolFetches, 0u);
    EXPECT_EQ(report.steadyServed, 24u);
    EXPECT_GT(report.poolHeapFetches, 0u);
}

TEST(ServePool, UnverifiedSteadyStateFetchesNothing)
{
    // The default serving path: no oracle, so temporalStep keeps no
    // omap and runs no convolution. Its steady rounds must still run
    // entirely out of recycled arena slabs.
    ServeOptions o = poolServe(3, 2);
    o.verifyOracle = false;
    const AllocationGateReport report =
        runAllocationGate(o, /*warmupRounds=*/3, /*steadyRounds=*/8);
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(report.steadyPoolFetches, 0u);
    EXPECT_EQ(report.steadyServed, 24u);
    EXPECT_GT(report.poolHeapFetches, 0u);
}

} // namespace
} // namespace diffy
