/**
 * @file
 * Recycled aligned scratch storage for the serve frame loop: a
 * FrameArena bump allocator plus the ArenaScope that makes it the
 * thread's ambient scratch resource.
 *
 * Ownership and lifetime contract (DESIGN.md section 16):
 *
 *  - A FrameArena is owned by one long-lived stream (StreamServer
 *    keeps one per stream). It fetches 32-byte-aligned slabs from the
 *    heap and bump-allocates out of them. rewind() makes every past
 *    allocation invalid but keeps the slabs, so the next frame runs
 *    allocation-free once the arena has grown to the pipeline's peak
 *    working set. Slabs return to the heap only when the arena is
 *    destroyed, so slabCount() is also the arena's heap-fetch count.
 *  - An ArenaScope installs an arena as the calling thread's ambient
 *    scratch resource (scratchAlloc() in common/aligned.hh). One
 *    arena may be current on at most one thread at a time — arenas
 *    are single-writer and unsynchronized.
 *
 * The zero-allocation gate (StreamServer::markSteadyState()) counts
 * slab fetches made after warmup; any is a bug.
 */

#ifndef DIFFY_COMMON_POOL_HH
#define DIFFY_COMMON_POOL_HH

#include <cstddef>
#include <vector>

#include "common/aligned.hh"

namespace diffy
{

/**
 * Bump allocator over heap slabs. deallocate() is a no-op; rewind()
 * recycles everything at once. Single-threaded by contract.
 */
class FrameArena final : public MemoryResource
{
  public:
    /** Default slab size; oversize requests get a dedicated slab. */
    static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

    FrameArena() = default;
    ~FrameArena() override;
    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;

    void *allocate(std::size_t bytes, std::size_t align) override;

    void
    deallocate(void *, std::size_t, std::size_t) noexcept override
    {}

    /** Drop every allocation; keep all slabs. */
    void
    rewind() noexcept
    {
        cur_ = 0;
        offset_ = 0;
    }

    /** Slabs fetched from the heap so far (never shrinks). */
    std::size_t
    slabCount() const noexcept
    {
        return slabs_.size();
    }

    /** Heap bytes held by the slabs. */
    std::size_t heldBytes() const noexcept;

  private:
    struct Slab
    {
        void *base = nullptr;
        std::size_t cap = 0;
    };

    std::vector<Slab> slabs_;
    std::size_t cur_ = 0;    ///< slab the bump pointer lives in
    std::size_t offset_ = 0; ///< bump offset within slabs_[cur_]
};

/**
 * RAII: install @p arena as the calling thread's ambient scratch
 * resource (scratchResource()/scratchAlloc()); restore the previous
 * resource on destruction. Scopes nest.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(FrameArena &arena) noexcept;
    ~ArenaScope();
    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    MemoryResource *prev_;
};

} // namespace diffy

#endif // DIFFY_COMMON_POOL_HH
