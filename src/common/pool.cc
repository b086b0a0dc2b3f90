#include "common/pool.hh"

#include <cstdint>

#include "common/cache_registry.hh"

namespace diffy
{

namespace
{

/* The ambient scratch resource ArenaScope installs. A raw TLS pointer
 * (not a memo cache, but registered below all the same so sweep setup
 * provably starts arena-free on reused caller threads). */
thread_local MemoryResource *t_scratch = nullptr;

void
clearScratchResource()
{
    t_scratch = nullptr;
}

} // namespace

DIFFY_REGISTER_THREAD_CACHE(common_pool_scratch, clearScratchResource);

MemoryResource &
scratchResource() noexcept
{
    return t_scratch != nullptr ? *t_scratch : heapResource();
}

/* ------------------------------------------------------------------ */
/* FrameArena                                                          */
/* ------------------------------------------------------------------ */

FrameArena::~FrameArena()
{
    for (const Slab &slab : slabs_)
        alignedFree(slab.base);
}

void *
FrameArena::allocate(std::size_t bytes, std::size_t align)
{
    if (align < kBufferAlign)
        align = kBufferAlign;
    // Bump within the current slab, walking forward through retained
    // slabs (they may have different sizes after oversize requests).
    while (cur_ < slabs_.size()) {
        const Slab &slab = slabs_[cur_];
        const std::uintptr_t base =
            reinterpret_cast<std::uintptr_t>(slab.base);
        const std::uintptr_t aligned =
            (base + offset_ + align - 1) &
            ~(static_cast<std::uintptr_t>(align) - 1);
        const std::size_t end =
            static_cast<std::size_t>(aligned - base) + bytes;
        if (end <= slab.cap) {
            offset_ = end;
            return reinterpret_cast<void *>(aligned);
        }
        ++cur_;
        offset_ = 0;
    }
    // No retained slab fits: fetch one big enough from the heap.
    Slab slab;
    slab.cap = bytes + align > kSlabBytes ? bytes + align : kSlabBytes;
    slab.base = alignedAlloc(slab.cap);
    slabs_.push_back(slab);
    cur_ = slabs_.size() - 1;
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(slab.base);
    const std::uintptr_t aligned =
        (base + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
    offset_ = static_cast<std::size_t>(aligned - base) + bytes;
    return reinterpret_cast<void *>(aligned);
}

std::size_t
FrameArena::heldBytes() const noexcept
{
    std::size_t held = 0;
    for (const Slab &slab : slabs_)
        held += slab.cap;
    return held;
}

/* ------------------------------------------------------------------ */
/* ArenaScope                                                          */
/* ------------------------------------------------------------------ */

ArenaScope::ArenaScope(FrameArena &arena) noexcept : prev_(t_scratch)
{
    t_scratch = &arena;
}

ArenaScope::~ArenaScope()
{
    t_scratch = prev_;
}

} // namespace diffy
