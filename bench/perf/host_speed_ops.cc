// Compiled once per part, with MSSR_PERF_OPS_PART set (CMakeLists.txt).

#include "host_speed_ops.hh"

#include <array>
#include <utility>

#ifndef MSSR_PERF_OPS_PART
#error "MSSR_PERF_OPS_PART must name the part this object holds"
#endif

namespace mssr::perf
{

namespace
{

/**
 * One step of the reference work. Every N is a distinct function (its
 * constants differ), so all of them together make about 1.5 MB of
 * code: that is what lets the reference slow down with the host the
 * way the simulator's large code does.
 */
template <unsigned N>
std::uint64_t
op(std::uint64_t x, std::uint64_t *table)
{
    constexpr std::uint64_t k = 0x9e3779b97f4a7c15ull * (2 * N + 1);
    if (x & (std::uint64_t{1} << (N % 61)))
        x = x * k + N;
    else
        x ^= x >> (N % 29 + 3);
    table[(x >> 40) & kOpTableMask] += x;
    if ((x >> 17) % 3 == 0)
        x += table[(std::uint64_t{N} * 64) & kOpTableMask];
    return x * 0x100000001b3ull + 1;
}

template <unsigned Base, std::size_t... I>
constexpr std::array<HostSpeedOp, sizeof...(I)>
makeOps(std::index_sequence<I...>)
{
    return {&op<Base + I>...};
}

constexpr unsigned kPart = MSSR_PERF_OPS_PART;
static_assert(kPart < kOpParts);
constexpr auto kOps = makeOps<kPart * kOpsPerPart>(
    std::make_index_sequence<kOpsPerPart>{});

} // namespace

template <>
const HostSpeedOp *
hostSpeedOps<kPart>()
{
    return kOps.data();
}

} // namespace mssr::perf
