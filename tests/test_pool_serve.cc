/**
 * @file
 * Buffer-pool integration tests for the runtime surface (DESIGN.md
 * §16). Lives in the runtime test binary so the ThreadSanitizer CI
 * job covers the claim that per-stream arenas recycled across serve
 * batches never alias an in-flight frame: each arena is touched by at
 * most one worker per batch, and cross-frame temporal state is
 * copy-assigned onto heap storage before the next rewind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <set>
#include <vector>

#include "common/pool.hh"
#include "runtime/sweep.hh"
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
    // Multi-threaded on purpose: four workers rewind four distinct
    // arenas concurrently while the pool's mutex arbitrates slab
    // traffic — the exact surface the TSan job must see.
    StreamServer server(poolServe(4, 4));
    runRound(server); // warmup: arenas fetch their slabs
    const std::uint64_t fetchesAfterWarmup =
        server.bufferPool().stats().heapFetches;
    EXPECT_GT(fetchesAfterWarmup, 0u);

    for (int r = 0; r < 6; ++r)
        runRound(server);

    const BufferPool::Stats stats = server.bufferPool().stats();
    // Steady state: later batches ran entirely out of recycled
    // arena slabs — zero new heap fetches across six rounds.
    EXPECT_EQ(stats.heapFetches, fetchesAfterWarmup);
    // And the frames were all served and oracle-verified.
    const ServeTotals totals = server.totals();
    EXPECT_EQ(totals.sum.served, 28u);
    EXPECT_EQ(totals.sum.failed, 0u);
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

TEST(SweepPool, JobsGetRecycledArenas)
{
    SweepScheduler sched(4, 7);
    // First sweep: every job allocates frame-sized scratch from its
    // leased arena. 16 jobs over at most 4 arenas forces reuse. The
    // first four jobs to start wait for each other, so all 4 workers
    // hold an arena at once and the roster reaches its full size; a
    // sweep that happened to overlap fewer jobs would leave the
    // second sweep leasing fresh, slab-less arenas.
    std::atomic<int> started{0};
    std::latch allWorkersLeased(4);
    std::vector<std::size_t> slabCounts(16, 0);
    sched.forEach(16, [&](SweepJob &job) {
        if (started.fetch_add(1) < 4)
            allWorkersLeased.arrive_and_wait();
        ASSERT_NE(job.arena, nullptr);
        ArenaScope scope(*job.arena);
        AlignedVec<std::int32_t> plane(
            4096, static_cast<std::int32_t>(job.index),
            scratchAlloc<std::int32_t>());
        slabCounts[job.index] = job.arena->slabCount();
        EXPECT_EQ(plane[0], static_cast<std::int32_t>(job.index));
    });
    for (std::size_t n : slabCounts)
        EXPECT_GE(n, 1u);

    // Second sweep on the same scheduler: the arenas (and their
    // slabs) come back from the free list instead of the heap.
    sched.forEach(16, [&](SweepJob &job) {
        ASSERT_NE(job.arena, nullptr);
        EXPECT_GE(job.arena->slabCount(), 1u);
        // Rewound before the body ran: the full slab is available.
        void *p = job.arena->allocate(64, 32);
        EXPECT_NE(p, nullptr);
    });
}

} // namespace
} // namespace diffy
