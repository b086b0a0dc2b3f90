/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one call into a layer's public function, timed from the
 * benchmark's own code. Its name starts with the layer ("nn.forward.
 * VDSR" belongs to `nn`); spans named "bench.*" are the benchmark's
 * own glue. Spans are kept in memory and written out once at exit.
 * With the recorder disabled a Span costs one relaxed load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t id = 0;
    /** Causing span (0 = root); may live on another thread. */
    std::uint32_t parent = 0;
    /** Request the span served (frame, cell or sweep index). */
    std::uint64_t request = 0;
};

class SpanLog
{
  public:
    static SpanLog &global();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Nanoseconds since the log was created. */
    std::int64_t nowNs() const;
    std::uint32_t nextId() { return ++lastId_; }
    void record(SpanRecord span);

    /** Every span recorded so far. */
    std::vector<SpanRecord> spans() const;
    /** Write all spans as a Chrome trace-event JSON file. */
    bool writeJson(const std::string &path) const;

  private:
    SpanLog();

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> lastId_{0};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< guarded by mu_
    std::int64_t originNs_ = 0;
};

/**
 * RAII span. The parent defaults to the innermost open span on this
 * thread; jobs running on pool workers pass their cause explicitly.
 */
class Span
{
  public:
    static constexpr std::uint32_t kInherit = ~0u;

    explicit Span(const char *name, std::uint64_t request = 0,
                  std::uint32_t parent = kInherit);
    Span(const std::string &name, std::uint64_t request = 0,
         std::uint32_t parent = kInherit);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when the recorder is off). */
    std::uint32_t id() const { return rec_.id; }
    /** Start time in the log's clock (0 when the recorder is off). */
    std::int64_t startNs() const { return rec_.startNs; }

  private:
    void open(std::uint64_t request, std::uint32_t parent);

    bool on_ = false;
    std::uint32_t saved_ = 0;
    SpanRecord rec_;
};

/** Layer of a span: its name up to the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Self time of each span: its duration minus the union of its
 * children's intervals, summed by name (or by layer when @p byLayer).
 * Only spans under a root whose name starts with @p rootPrefix count.
 */
std::map<std::string, double>
selfSeconds(const std::vector<SpanRecord> &spans, bool byLayer,
            const std::string &rootPrefix);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
