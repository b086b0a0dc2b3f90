/**
 * @file
 * Output digests pinned at the default seed (bench.hh kDefaultSeed) at
 * full size. A sweep digest folds every simulated FramePerf (total and
 * per-layer cycles), every speedup and the sweep's exact counts; the
 * serve digest folds the temporal counters of the oracle-verified
 * check phase. A change that alters simulated results must re-pin
 * these, and says so.
 */

#ifndef PERFBENCH_PINS_HH
#define PERFBENCH_PINS_HH

#include <cstdint>

namespace perfbench::pins
{

inline constexpr std::uint64_t kFigsCi = 0x771613e1b203ed02ULL;
inline constexpr std::uint64_t kDseCi = 0x5a9fd01021c40875ULL;
inline constexpr std::uint64_t kServePan = 0xada4cf8c009e9711ULL;

} // namespace perfbench::pins

#endif // PERFBENCH_PINS_HH
