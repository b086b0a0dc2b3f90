/**
 * @file
 * The per-layer metrics of a traced run. Every workload prints the
 * same list; a layer that does no work on a workload reads 0 there.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <map>
#include <string>

#include "bench.hh"

namespace perfbench
{

/** The CI-DNN suite, in the order the per-network metrics print. */
inline constexpr std::array<const char *, 5> kCiNetworks = {
    "DnCNN", "FFDNet", "IRCNN", "JointNet", "VDSR"};

struct LayerMetrics
{
    double nnForwardS = 0.0;
    std::map<std::string, double> nnForwardByNet;
    double nnGmacs = 0.0;
    double encodeTrafficS = 0.0;
    double encodeTrafficCalls = 0.0;
    double encodeTrafficMb = 0.0;
    double simComputeVaaS = 0.0;
    double simComputePraS = 0.0;
    double simComputeDiffyS = 0.0;
    double simGcycles = 0.0;
    double simNsPerOutput = 0.0;
    double runtimeUtilization = 0.0;
    double runtimeQueueWaitS = 0.0;
    double imageRenderS = 0.0;
    double imageFrameS = 0.0;
    double coreTemporalS = 0.0;
    double coreAnchorShare = 0.0;
    double encodeTemporalBitsPerValue = 0.0;
    double serveBatchS = 0.0;
    double serveBatchSize = 0.0;
    double serveQueueWaitMsP50 = 0.0;
    double serveRejected = 0.0;
    double loadLateMsMax = 0.0;
    double frameSamples = 0.0;
    /** The untraced pass's frame p99: too host-bound for a bound. */
    double frameP99Ms = 0.0;
    double overheadSweepS = 0.0;
    double overheadFrameP50Ms = 0.0;
    double attributedShare = 0.0;

    void emit(Result &result) const;
};

/**
 * Share of the recorded time that the layer spans account for: layer
 * self time over the self time of every span, the benchmark's own
 * glue ("bench.*") included. On one thread the denominator is the
 * traced wall time.
 */
double attributedShare(const std::map<std::string, double> &selfByLayer);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
