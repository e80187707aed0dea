/**
 * @file
 * The host-speed reference's step functions (host_speed.hh). There
 * are kOpParts x kOpsPerPart of them; host_speed_ops.cc is compiled
 * once per part, with MSSR_PERF_OPS_PART set, so the parts build in
 * parallel.
 */

#ifndef MSSR_BENCH_PERF_HOST_SPEED_OPS_HH
#define MSSR_BENCH_PERF_HOST_SPEED_OPS_HH

#include <cstdint>

namespace mssr::perf
{

constexpr unsigned kOpParts = 4;
constexpr unsigned kOpsPerPart = 2048;
constexpr unsigned kOpTableBits = 17; // 2^17 x 8 B = 1 MiB
constexpr std::uint64_t kOpTableMask = (std::uint64_t{1} << kOpTableBits) - 1;

/** One step: the next state, from the state and the 1 MiB table. */
using HostSpeedOp = std::uint64_t (*)(std::uint64_t, std::uint64_t *);

/** Part @p Part's kOpsPerPart step functions. */
template <unsigned Part>
const HostSpeedOp *hostSpeedOps();

} // namespace mssr::perf

#endif // MSSR_BENCH_PERF_HOST_SPEED_OPS_HH
