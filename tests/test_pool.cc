/**
 * @file
 * FrameArena / ArenaScope unit tests plus the AlignedAllocator
 * propagation regression suite (DESIGN.md §16). The propagation tests
 * pin the contract that makes mixing heap- and arena-backed vectors
 * safe: copy assignment keeps the destination's resource, move
 * assignment and swap transfer it, copy construction falls back to
 * the heap.
 */

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "common/aligned.hh"
#include "common/pool.hh"
#include "tensor/tensor.hh"

using namespace diffy;

TEST(FrameArena, BumpAllocatesAlignedAndRecycles)
{
    FrameArena arena;
    void *a = arena.allocate(100, 32);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 32, 0u);
    arena.rewind();
    // Same storage again after a rewind: the zero-allocation loop.
    void *b = arena.allocate(100, 32);
    EXPECT_EQ(b, a);
    EXPECT_EQ(arena.slabCount(), 1u);
}

TEST(FrameArena, OversizeRequestGetsDedicatedSlab)
{
    FrameArena arena;
    void *small = arena.allocate(64, 32);
    ASSERT_NE(small, nullptr);
    void *big = arena.allocate(FrameArena::kSlabBytes + 1, 32);
    ASSERT_NE(big, nullptr);
    EXPECT_GE(arena.slabCount(), 2u);
    // The oversize slab is retained across rewinds like any other.
    arena.rewind();
    const std::size_t slabs = arena.slabCount();
    (void)arena.allocate(FrameArena::kSlabBytes + 1, 32);
    EXPECT_EQ(arena.slabCount(), slabs);
}

TEST(FrameArena, HeldBytesCountsEverySlab)
{
    FrameArena arena;
    EXPECT_EQ(arena.heldBytes(), 0u);
    (void)arena.allocate(64, 32);
    EXPECT_EQ(arena.heldBytes(), FrameArena::kSlabBytes);
    // An oversize request is sized to fit, alignment slack included.
    (void)arena.allocate(FrameArena::kSlabBytes + 1, 32);
    EXPECT_EQ(arena.heldBytes(),
              FrameArena::kSlabBytes + FrameArena::kSlabBytes + 1 + 32);
    // A rewind keeps every slab.
    arena.rewind();
    EXPECT_EQ(arena.heldBytes(),
              FrameArena::kSlabBytes + FrameArena::kSlabBytes + 1 + 32);
}

TEST(ArenaScope, InstallsAndRestoresAmbientScratch)
{
    EXPECT_EQ(&scratchResource(), &heapResource());
    FrameArena arena;
    {
        ArenaScope scope(arena);
        EXPECT_EQ(&scratchResource(), &arena);
        AlignedVec<int> v(100, 0, scratchAlloc<int>());
        // The vector's storage really came from the arena.
        EXPECT_EQ(arena.slabCount(), 1u);
    }
    EXPECT_EQ(&scratchResource(), &heapResource());
}

/* ------------------------------------------------------------------ */
/* Allocator propagation regression (the POCCA/POCMA/POCS contract)    */
/* ------------------------------------------------------------------ */

TEST(AlignedAllocatorPropagation, CopyAssignKeepsDestinationResource)
{
    FrameArena arena;
    AlignedVec<std::int16_t> persistent(8, 1); // heap-backed state
    {
        ArenaScope scope(arena);
        AlignedVec<std::int16_t> frame(64, 7, scratchAlloc<std::int16_t>());
        // POCCA = false: the assignment copies values, the destination
        // stays on the heap — safe to keep across the arena's rewind.
        persistent = frame;
    }
    arena.rewind();
    EXPECT_EQ(persistent.get_allocator().resource(), &heapResource());
    EXPECT_EQ(persistent.size(), 64u);
    for (std::int16_t v : persistent)
        EXPECT_EQ(v, 7);
}

TEST(AlignedAllocatorPropagation, MoveAssignTransfersAllocatorAndBuffer)
{
    FrameArena arena;
    AlignedVec<std::int16_t> dst(4, 0);
    AlignedVec<std::int16_t> src(32, 3,
                                 AlignedAllocator<std::int16_t>(&arena));
    const std::int16_t *buf = src.data();
    // POCMA = true: O(1), the buffer and its deallocator move together.
    dst = std::move(src);
    EXPECT_EQ(dst.data(), buf);
    EXPECT_EQ(dst.get_allocator().resource(), &arena);
    // Must drop the adopted arena storage before the arena dies.
    dst = AlignedVec<std::int16_t>();
}

TEST(AlignedAllocatorPropagation, SwapExchangesAllocators)
{
    FrameArena arena;
    AlignedVec<std::int16_t> a(8, 1);
    AlignedVec<std::int16_t> b(16, 2,
                               AlignedAllocator<std::int16_t>(&arena));
    const std::int16_t *pa = a.data();
    const std::int16_t *pb = b.data();
    // POCS = true: swapping unequal allocators is well-defined (no UB)
    // and keeps each buffer paired with the resource that made it.
    a.swap(b);
    EXPECT_EQ(a.data(), pb);
    EXPECT_EQ(b.data(), pa);
    EXPECT_EQ(a.get_allocator().resource(), &arena);
    EXPECT_EQ(b.get_allocator().resource(), &heapResource());
    a = AlignedVec<std::int16_t>(); // release arena storage first
}

TEST(AlignedAllocatorPropagation, CopyConstructionNeverInheritsArena)
{
    FrameArena arena;
    AlignedVec<std::int16_t> src(16, 9,
                                 AlignedAllocator<std::int16_t>(&arena));
    // select_on_container_copy_construction: copies default to heap.
    AlignedVec<std::int16_t> copy(src);
    EXPECT_EQ(copy.get_allocator().resource(), &heapResource());
    EXPECT_EQ(copy, src);
}

TEST(AlignedAllocatorPropagation, TensorCopyAssignFromArenaStaysHeap)
{
    FrameArena arena;
    TensorI16 state(Shape3{2, 4, 4}, 0);
    {
        ArenaScope scope(arena);
        TensorI16 frame(Shape3{2, 4, 4}, scratchAlloc<std::int16_t>(), 5);
        // The core/temporal.cc idiom: cross-frame state is
        // copy-assigned from per-frame arena tensors and must keep
        // its heap storage through the next rewind.
        state = frame;
    }
    arena.rewind();
    EXPECT_EQ(state.at(1, 2, 3), 5);
}
