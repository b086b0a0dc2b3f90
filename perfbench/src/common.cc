#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/simd.hh"
#include "layers.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Digest::addBytes(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001B3ULL;
    }
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Result::wrong(const std::string &why)
{
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        wrong("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

void
Result::checkDigest(const Options &opts, const std::string &what,
                    std::uint64_t got, std::uint64_t pinned)
{
    if (!opts.pinned()) {
        std::printf("digest %s %s (seed %llu, not pinned)\n", what.c_str(),
                    hex(got).c_str(),
                    static_cast<unsigned long long>(opts.seed));
        return;
    }
    if (got != pinned) {
        ++failed;
        wrong("digest " + what + " is " + hex(got) + ", pinned " +
              hex(pinned));
        return;
    }
    std::printf("digest %s %s (pinned, ok)\n", what.c_str(),
                hex(got).c_str());
}

void
Result::print() const
{
    const double errorRate =
        attempted ? static_cast<double>(failed) / attempted : 0.0;
    for (const Metric &m : metrics)
        std::printf("metric %-36s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("metric %-36s %.9g ratio (%llu of %llu operations)\n",
                "error_rate", errorRate,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0 || values[hi] == values[lo])
        return values[lo];
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
segmentedQuantile(const std::vector<std::vector<double>> &segments, double q)
{
    std::vector<double> perSegment;
    for (const std::vector<double> &segment : segments)
        if (!segment.empty())
            perSegment.push_back(quantile(segment, q));
    return median(perSegment);
}

double
rssPeakMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

void
printContext(const Options &opts)
{
    const char *isaEnv = std::getenv("DIFFY_ISA");
    std::printf("context workload=%s seed=%llu seconds=%g trace=%d "
                "smoke=%d nproc=%d isa=%s DIFFY_ISA=%s build=%s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.smoke ? 1 : 0, availableCpus(),
                diffy::simd::isaName(diffy::simd::activeIsa()),
                isaEnv ? isaEnv : "", PERFBENCH_BUILD_TYPE);
}

void
LayerMetrics::emit(Result &result) const
{
    result.add("nn.forward_s", nnForwardS, "s");
    for (const char *net : kCiNetworks) {
        auto it = nnForwardByNet.find(net);
        result.add(std::string("nn.forward_s.") + net,
                   it == nnForwardByNet.end() ? 0.0 : it->second, "s");
    }
    result.add("nn.gmacs", nnGmacs, "GMAC");
    result.add("encode.traffic_s", encodeTrafficS, "s");
    result.add("encode.traffic_calls", encodeTrafficCalls, "count");
    result.add("encode.traffic_mb", encodeTrafficMb, "MB");
    result.add("sim.compute_s.vaa", simComputeVaaS, "s");
    result.add("sim.compute_s.pra", simComputePraS, "s");
    result.add("sim.compute_s.diffy", simComputeDiffyS, "s");
    result.add("sim.gcycles", simGcycles, "Gcycles");
    result.add("sim.ns_per_output", simNsPerOutput, "ns");
    result.add("runtime.utilization", runtimeUtilization, "ratio");
    result.add("runtime.queue_wait_s", runtimeQueueWaitS, "s");
    result.add("image.render_s", imageRenderS, "s");
    result.add("image.frame_s", imageFrameS, "s");
    result.add("core.temporal_s", coreTemporalS, "s");
    result.add("core.anchor_share", coreAnchorShare, "ratio");
    result.add("encode.temporal_bits_per_value", encodeTemporalBitsPerValue,
               "bits");
    result.add("serve.batch_s", serveBatchS, "s");
    result.add("serve.batch_size", serveBatchSize, "frames");
    result.add("serve.queue_wait_ms_p50", serveQueueWaitMsP50, "ms");
    result.add("serve.rejected", serveRejected, "count");
    result.add("load.late_ms_max", loadLateMsMax, "ms");
    result.add("load.frame_samples", frameSamples, "count");
    result.add("frame_p99_ms", frameP99Ms, "ms");
    result.add("trace.overhead_sweep_s", overheadSweepS, "s");
    result.add("trace.overhead_frame_p50_ms", overheadFrameP50Ms, "ms");
    result.add("trace.attributed_share", attributedShare, "ratio");
}

double
attributedShare(const std::map<std::string, double> &selfByLayer)
{
    double all = 0.0;
    double layers = 0.0;
    for (const auto &[layer, seconds] : selfByLayer) {
        all += seconds;
        if (layer != "bench")
            layers += seconds;
    }
    return all > 0.0 ? layers / all : 0.0;
}

} // namespace perfbench
