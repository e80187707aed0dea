#include "host_speed.hh"

#include <stdexcept>

#include "host_speed_ops.hh"

namespace mssr::perf
{

namespace
{

/** Steps per sample, sized so one takes about kReferenceS on the
 *  reference host. */
constexpr std::uint64_t kSteps = 200'000;

constexpr unsigned kOpBits = 13;
static_assert(kOpParts * kOpsPerPart == 1u << kOpBits);

} // namespace

HostSpeed::HostSpeed()
    : epoch_(Clock::now()), table_(std::size_t{1} << kOpTableBits)
{
    for (const HostSpeedOp *part :
         {hostSpeedOps<0>(), hostSpeedOps<1>(), hostSpeedOps<2>(),
          hostSpeedOps<3>()})
        ops_.insert(ops_.end(), part, part + kOpsPerPart);
    work(); // pages the code and the table in, so no sample pays for it
    epoch_ = Clock::now();
}

double
HostSpeed::work()
{
    const auto t0 = Clock::now();
    // Each step calls the function the state's top bits pick, through
    // the table: the calls land all over the code, unpredictably.
    std::uint64_t x = state_;
    for (std::uint64_t k = 0; k < kSteps; ++k)
        x = ops_[x >> (64 - kOpBits)](x, table_.data());
    state_ = x;
    return secondsBetween(t0, Clock::now());
}

void
HostSpeed::sample()
{
    const double s = work();
    samplesS_.push_back(s);
    spentS_ += s;
    lastS_ = now();
}

double
HostSpeed::now() const
{
    return secondsBetween(epoch_, Clock::now()) - spentS_;
}

double
HostSpeed::factorSince(std::size_t from) const
{
    if (from >= samplesS_.size())
        throw std::logic_error("HostSpeed: no samples to average");
    double sum = 0.0;
    for (std::size_t i = from; i < samplesS_.size(); ++i)
        sum += samplesS_[i];
    return kReferenceS * static_cast<double>(samplesS_.size() - from) / sum;
}

} // namespace mssr::perf
