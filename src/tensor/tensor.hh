/**
 * @file
 * Dense CHW tensors used throughout the reproduction.
 *
 * Activations and weights are stored channel-major (C, H, W), matching
 * the brick layout of the modeled accelerators: a "brick" is 16
 * consecutive channels at one (y, x) position, and a "pallet" is 16
 * bricks at consecutive x positions (PRA/Diffy terminology).
 */

#ifndef DIFFY_TENSOR_TENSOR_HH
#define DIFFY_TENSOR_TENSOR_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/aligned.hh"

namespace diffy
{

/** Shape of a 3D (C, H, W) tensor. */
struct Shape3
{
    int c = 0;
    int h = 0;
    int w = 0;

    std::size_t volume() const
    {
        return static_cast<std::size_t>(c) * h * w;
    }

    bool operator==(const Shape3 &o) const = default;
};

/**
 * Dense 3D tensor with CHW layout.
 *
 * @tparam T element type; the quantized pipeline uses int16_t for
 *           values and int32_t/int64_t for accumulators.
 */
template <typename T>
class Tensor3
{
  public:
    using allocator_type = AlignedAllocator<T>;

    Tensor3() = default;

    explicit Tensor3(Shape3 shape, T fill = T{})
        : shape_(shape), data_(shape.volume(), fill)
    {}

    Tensor3(int c, int h, int w, T fill = T{})
        : Tensor3(Shape3{c, h, w}, fill)
    {}

    /** Allocator-aware construction (e.g. scratchAlloc<T>()). */
    Tensor3(Shape3 shape, const allocator_type &alloc, T fill = T{})
        : shape_(shape), data_(shape.volume(), fill, alloc)
    {}

    Tensor3(int c, int h, int w, const allocator_type &alloc,
            T fill = T{})
        : Tensor3(Shape3{c, h, w}, alloc, fill)
    {}

    /** Allocator-extended copy: same contents, chosen resource. */
    Tensor3(const Tensor3 &o, const allocator_type &alloc)
        : shape_(o.shape_), data_(o.data_, alloc)
    {}

    Tensor3(const Tensor3 &) = default;
    Tensor3(Tensor3 &&) = default;
    Tensor3 &operator=(const Tensor3 &) = default;
    Tensor3 &operator=(Tensor3 &&) = default;

    const Shape3 &shape() const { return shape_; }
    int channels() const { return shape_.c; }
    int height() const { return shape_.h; }
    int width() const { return shape_.w; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    std::size_t
    index(int c, int y, int x) const
    {
        assert(c >= 0 && c < shape_.c);
        assert(y >= 0 && y < shape_.h);
        assert(x >= 0 && x < shape_.w);
        return (static_cast<std::size_t>(c) * shape_.h + y) * shape_.w + x;
    }

    T &at(int c, int y, int x) { return data_[index(c, y, x)]; }
    const T &at(int c, int y, int x) const { return data_[index(c, y, x)]; }

    /**
     * Element access with zero padding outside the spatial extent.
     * Channel indices must always be in range.
     */
    T
    atPadded(int c, int y, int x) const
    {
        if (y < 0 || y >= shape_.h || x < 0 || x >= shape_.w)
            return T{};
        return at(c, y, x);
    }

    /** Extract the spatial crop [y0, y0+h) x [x0, x0+w), all channels. */
    Tensor3<T>
    crop(int y0, int x0, int h, int w) const
    {
        assert(y0 >= 0 && x0 >= 0 && y0 + h <= shape_.h &&
               x0 + w <= shape_.w);
        // Crops are per-frame transients: route through the ambient
        // scratch resource (heap when no ArenaScope is active).
        Tensor3<T> out(shape_.c, h, w, scratchAlloc<T>());
        for (int c = 0; c < shape_.c; ++c) {
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x)
                    out.at(c, y, x) = at(c, y0 + y, x0 + x);
            }
        }
        return out;
    }

    void fill(T v) { data_.assign(data_.size(), v); }

    bool operator==(const Tensor3 &o) const = default;

  private:
    Shape3 shape_;
    // 32-byte aligned so the SIMD kernels' wide accesses to value and
    // term planes start on register boundaries (common/aligned.hh).
    AlignedVec<T> data_;
};

using TensorI16 = Tensor3<std::int16_t>;
using TensorI32 = Tensor3<std::int32_t>;
using TensorF = Tensor3<float>;

/** Shape of a 4D filter bank: K filters of (C, H, W) each. */
struct Shape4
{
    int k = 0;
    int c = 0;
    int h = 0;
    int w = 0;

    std::size_t volume() const
    {
        return static_cast<std::size_t>(k) * c * h * w;
    }

    bool operator==(const Shape4 &o) const = default;
};

/** Dense 4D filter bank, KCHW layout. */
template <typename T>
class Tensor4
{
  public:
    using allocator_type = AlignedAllocator<T>;

    Tensor4() = default;

    explicit Tensor4(Shape4 shape, T fill = T{})
        : shape_(shape), data_(shape.volume(), fill)
    {}

    Tensor4(int k, int c, int h, int w, T fill = T{})
        : Tensor4(Shape4{k, c, h, w}, fill)
    {}

    /** Allocator-aware construction (e.g. scratchAlloc<T>()). */
    Tensor4(Shape4 shape, const allocator_type &alloc, T fill = T{})
        : shape_(shape), data_(shape.volume(), fill, alloc)
    {}

    /** Allocator-extended copy: same contents, chosen resource. */
    Tensor4(const Tensor4 &o, const allocator_type &alloc)
        : shape_(o.shape_), data_(o.data_, alloc)
    {}

    Tensor4(const Tensor4 &) = default;
    Tensor4(Tensor4 &&) = default;
    Tensor4 &operator=(const Tensor4 &) = default;
    Tensor4 &operator=(Tensor4 &&) = default;

    const Shape4 &shape() const { return shape_; }
    int filters() const { return shape_.k; }
    int channels() const { return shape_.c; }
    int height() const { return shape_.h; }
    int width() const { return shape_.w; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    std::size_t
    index(int k, int c, int y, int x) const
    {
        assert(k >= 0 && k < shape_.k);
        assert(c >= 0 && c < shape_.c);
        assert(y >= 0 && y < shape_.h);
        assert(x >= 0 && x < shape_.w);
        return ((static_cast<std::size_t>(k) * shape_.c + c) * shape_.h + y)
                   * shape_.w + x;
    }

    T &at(int k, int c, int y, int x) { return data_[index(k, c, y, x)]; }
    const T &
    at(int k, int c, int y, int x) const
    {
        return data_[index(k, c, y, x)];
    }

    bool operator==(const Tensor4 &o) const = default;

  private:
    Shape4 shape_;
    AlignedVec<T> data_;
};

using FilterBankI16 = Tensor4<std::int16_t>;

/**
 * Geometry of a same-padded, strided, dilated convolution with a
 * square k x k kernel. Every conv path (the float forward, the
 * fixed-point direct/differential/temporal convolutions and the work
 * counters) derives its padding and output extent here, so they agree
 * by construction.
 */
struct ConvGeometry
{
    int k;        ///< kernel side
    int stride;
    int dilation;
    int effK;     ///< dilated extent, dilation * (k - 1) + 1
    int pad;      ///< leading zero padding on both axes
    int outH;
    int outW;

    ConvGeometry(int in_h, int in_w, int kernel, int conv_stride,
                 int conv_dilation)
        : k(kernel), stride(conv_stride), dilation(conv_dilation),
          effK(dilation * (k - 1) + 1), pad((effK - 1) / 2),
          outH((in_h + 2 * pad - effK) / stride + 1),
          outW((in_w + 2 * pad - effK) / stride + 1)
    {}

    /** Input coordinate read by output @p o through kernel tap @p t. */
    int
    input(int o, int t) const
    {
        return o * stride + t * dilation - pad;
    }

    /** Half-open output range [lo, hi); empty when hi <= lo. */
    struct Range
    {
        int lo;
        int hi;
    };

    /**
     * Outputs (of @p out along one axis) whose tap @p t reads inside
     * an input of extent @p in, so a loop over them needs no bounds
     * check.
     */
    Range
    validOutputs(int t, int in, int out) const
    {
        const int d = input(0, t);
        const int lo = d < 0 ? (-d + stride - 1) / stride : 0;
        // The last readable input sits at in - 1; none when d is past
        // it (division would truncate a negative span toward zero).
        const int span = in - 1 - d;
        return {lo, span < 0 ? lo : std::min(out, span / stride + 1)};
    }
};

/**
 * Compute the X-axis delta representation of an imap: for each row,
 * the x == 0 element stays raw and every other element becomes
 * a(c,y,x) - a(c,y,x-1). This is the storage format Diffy's Delta-out
 * engine writes to the activation memory.
 */
TensorI16 xDeltas(const TensorI16 &t);

/** Inverse of xDeltas(); reconstructs raw values by prefix summation. */
TensorI16 xDeltasInverse(const TensorI16 &deltas);

} // namespace diffy

#endif // DIFFY_TENSOR_TENSOR_HH
