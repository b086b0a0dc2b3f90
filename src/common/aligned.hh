/**
 * @file
 * 32-byte-aligned allocation for the plane buffers the SIMD kernels
 * chew through (term planes, delta scratch rows, imap storage).
 *
 * The vector kernels themselves use unaligned loads — exact-width
 * chunking handles tails, so alignment is a throughput optimization,
 * not a correctness requirement — but keeping every plane on a
 * 32-byte boundary lets aligned 256-bit accesses dominate.
 *
 * AlignedAllocator is stateful: it carries a MemoryResource pointer,
 * defaulting to the global heap but swappable for a per-stream
 * FrameArena (common/pool.hh). The propagation traits follow the
 * std::pmr playbook so mixing heap- and arena-backed vectors is
 * well-defined:
 *
 *  - copy assignment keeps the destination's resource (POCCA=false):
 *    persistent state copy-assigned from a per-frame arena tensor
 *    stays on the heap and reuses its capacity;
 *  - move assignment and swap transfer the resource (POCMA/POCS=
 *    true): both stay O(1) and never mix a buffer with the wrong
 *    deallocator — but they DO adopt the source's arena, so never
 *    move/swap a scratch buffer into state that outlives the frame;
 *  - copy construction selects the default (heap) allocator
 *    (select_on_container_copy_construction), so copies never
 *    silently inherit an arena.
 */

#ifndef DIFFY_COMMON_ALIGNED_HH
#define DIFFY_COMMON_ALIGNED_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace diffy
{

/** Alignment of every bulk value/plane buffer: one AVX2 register. */
inline constexpr std::size_t kBufferAlign = 32;

/**
 * Allocate @p bytes with @p align alignment via aligned operator new,
 * so sanitizers track the block like any other allocation. Release
 * with alignedFree() using the same alignment.
 */
inline void *
alignedAlloc(std::size_t bytes, std::size_t align = kBufferAlign)
{
    return ::operator new(bytes, std::align_val_t{align});
}

inline void
alignedFree(void *p, std::size_t align = kBufferAlign) noexcept
{
    ::operator delete(p, std::align_val_t{align});
}

/**
 * Upstream source of raw aligned memory behind AlignedAllocator — the
 * project-local analogue of std::pmr::memory_resource. Two
 * implementations exist: the process-wide heap (below) and the
 * per-frame bump arena (common/pool.hh).
 */
class MemoryResource
{
  public:
    virtual ~MemoryResource() = default;
    virtual void *allocate(std::size_t bytes, std::size_t align) = 0;
    virtual void deallocate(void *p, std::size_t bytes,
                            std::size_t align) noexcept = 0;
};

namespace detail
{

class HeapMemoryResource final : public MemoryResource
{
  public:
    void *
    allocate(std::size_t bytes, std::size_t align) override
    {
        return alignedAlloc(bytes, align);
    }

    void
    deallocate(void *p, std::size_t, std::size_t align) noexcept override
    {
        alignedFree(p, align);
    }
};

} // namespace detail

/** The process-wide heap resource — the allocator default. */
inline MemoryResource &
heapResource() noexcept
{
    static detail::HeapMemoryResource heap;
    return heap;
}

/**
 * The ambient scratch resource for the current thread: the FrameArena
 * installed by an ArenaScope (common/pool.hh), or the heap when no
 * scope is active. Defined in pool.cc.
 */
MemoryResource &scratchResource() noexcept;

/**
 * C++20 allocator over a MemoryResource. Defaults to the heap; see
 * the file comment for the propagation contract.
 */
template <typename T>
struct AlignedAllocator
{
    using value_type = T;
    using propagate_on_container_copy_assignment = std::false_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    AlignedAllocator() noexcept : res_(&heapResource()) {}

    explicit AlignedAllocator(MemoryResource *res) noexcept : res_(res)
    {}

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U> &other) noexcept
        : res_(other.resource())
    {}

    /** Copies never inherit an arena (the std::pmr idiom). */
    AlignedAllocator
    select_on_container_copy_construction() const noexcept
    {
        return AlignedAllocator();
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            res_->allocate(n * sizeof(T), alignFor()));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        res_->deallocate(p, n * sizeof(T), alignFor());
    }

    MemoryResource *
    resource() const noexcept
    {
        return res_;
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U> &other) const noexcept
    {
        return res_ == other.resource();
    }

  private:
    static constexpr std::size_t
    alignFor() noexcept
    {
        return alignof(T) > kBufferAlign ? alignof(T) : kBufferAlign;
    }

    MemoryResource *res_;
};

/**
 * Allocator bound to the current thread's scratch resource — arena
 * inside an ArenaScope, heap elsewhere. The opt-in handle transient
 * per-frame buffers use; nothing routes to an arena implicitly.
 */
template <typename T>
AlignedAllocator<T>
scratchAlloc() noexcept
{
    return AlignedAllocator<T>(&scratchResource());
}

/** std::vector whose storage starts on a kBufferAlign boundary. */
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

/** Aligned byte buffer — encoded streams, bitstream payloads. */
using ByteVec = AlignedVec<std::uint8_t>;

} // namespace diffy

#endif // DIFFY_COMMON_ALIGNED_HH
