/**
 * @file
 * Lightweight statistics collection. Simulation units keep plain
 * counters and export them into a StatSet at end of run; StatSet
 * supports stable ordered dumping and simple queries for the
 * benchmark-harness table printers.
 */

#ifndef MSSR_COMMON_STATS_HH
#define MSSR_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"

namespace mssr
{

/**
 * Fixed-bucket histogram (last bucket is an overflow bucket). The
 * bucket count is fixed at construction: a default-constructed
 * histogram has no buckets and sample() panics on it. (The seed
 * version silently lazy-resized a default-constructed histogram to
 * 1 bucket + overflow, which turned every distribution into "0 or
 * more" without any diagnostic.)
 */
class Histogram
{
  public:
    /** No buckets; sample() panics until a sized histogram is assigned. */
    Histogram() = default;

    /** Creates @p nbuckets buckets covering [0, nbuckets-1] plus overflow. */
    explicit Histogram(std::size_t nbuckets)
        : buckets_(nbuckets + 1, 0)
    {
        mssr_assert(nbuckets >= 1, "histogram needs at least one bucket");
    }

    /** Records one sample of value @p v (clamped into the overflow
     *  bucket when v >= numBuckets()-1). */
    void
    sample(std::uint64_t v)
    {
        mssr_assert(!buckets_.empty(),
                    "sample() on a default-constructed Histogram");
        if (v + 1 >= buckets_.size())
            ++buckets_.back();
        else
            ++buckets_[v];
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Fraction of samples in bucket @p i (0 when empty). */
    double
    fraction(std::size_t i) const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(buckets_.at(i)) /
                                 static_cast<double>(count_);
    }

    /** Fraction of samples in buckets [0, i]. */
    double
    cumulativeFraction(std::size_t i) const
    {
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b)
            acc += buckets_[b];
        return count_ == 0 ? 0.0
                           : static_cast<double>(acc) /
                                 static_cast<double>(count_);
    }

    /**
     * Mean of the recorded (clamped) values: overflow samples count
     * as the overflow bucket's index, so the mean is a lower bound
     * when anything overflowed. NaN when no sample was recorded (a
     * sized-but-empty histogram has no mean; formatters render NaN as
     * "n/a", and 0.0 would silently read as "every sample was zero").
     * Panics on a default-constructed histogram like sample().
     */
    double
    mean() const
    {
        mssr_assert(!buckets_.empty(),
                    "mean() on a default-constructed Histogram");
        if (count_ == 0)
            return std::numeric_limits<double>::quiet_NaN();
        double sum = 0.0;
        for (std::size_t b = 0; b < buckets_.size(); ++b)
            sum += static_cast<double>(b) * static_cast<double>(buckets_[b]);
        return sum / static_cast<double>(count_);
    }

    /**
     * Value at percentile @p p (a fraction in [0, 1]): the smallest
     * bucket index whose cumulative count reaches p x count. Overflow
     * samples report the overflow bucket's index. NaN when no sample
     * was recorded (same rationale as mean(): an empty distribution
     * has no percentiles, and formatters render NaN as "n/a"). Panics
     * on a default-constructed histogram like sample().
     */
    double
    percentile(double p) const
    {
        mssr_assert(!buckets_.empty(),
                    "percentile() on a default-constructed Histogram");
        mssr_assert(p >= 0.0 && p <= 1.0, "percentile fraction ", p);
        if (count_ == 0)
            return std::numeric_limits<double>::quiet_NaN();
        const double target = p * static_cast<double>(count_);
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            acc += buckets_[b];
            if (static_cast<double>(acc) >= target && acc > 0)
                return static_cast<double>(b);
        }
        return static_cast<double>(buckets_.size() - 1);
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        count_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/**
 * A named bag of scalar statistics. Keys are hierarchical strings
 * ("core.commit.insts"); ordering is lexicographic for stable dumps.
 */
class StatSet
{
  public:
    /** Sets (or overwrites) a scalar statistic. */
    void set(const std::string &name, double value);

    /** Returns the scalar value, or @p dflt when absent. */
    double get(const std::string &name, double dflt = 0.0) const;

    /** True when the scalar exists. */
    bool has(const std::string &name) const;

    /** Writes "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    const std::map<std::string, double> &scalars() const { return scalars_; }

  private:
    std::map<std::string, double> scalars_;
};

} // namespace mssr

#endif // MSSR_COMMON_STATS_HH
