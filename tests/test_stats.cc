#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/stats.hh"

using namespace mssr;

TEST(StatSet, SetGet)
{
    StatSet s;
    EXPECT_FALSE(s.has("x"));
    EXPECT_EQ(s.get("x", -1.0), -1.0);
    s.set("x", 3.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_EQ(s.get("x"), 3.0);
    s.set("x", 5.0); // set overwrites
    EXPECT_EQ(s.get("x"), 5.0);
}

TEST(StatSet, DumpSortedByName)
{
    StatSet s;
    s.set("b", 2);
    s.set("a", 1);
    std::ostringstream os;
    s.dump(os);
    const std::string text = os.str();
    EXPECT_LT(text.find("a"), text.find("b"));
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4); // buckets 0..3 + overflow
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(9); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow bucket
}

TEST(Histogram, Fractions)
{
    Histogram h(4);
    for (int i = 0; i < 3; ++i)
        h.sample(0);
    h.sample(1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(1), 1.0);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(0), 0.75);
}

TEST(Histogram, EmptyFractionsAreZero)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(3), 0.0);
}

TEST(Histogram, Reset)
{
    Histogram h(2);
    h.sample(1);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(Histogram, DefaultConstructedPanicsOnSample)
{
    // The seed silently lazy-resized to one bucket + overflow here,
    // collapsing every distribution into "0 or more" with no warning.
    Histogram h;
    EXPECT_EQ(h.numBuckets(), 0u);
    EXPECT_THROW(h.sample(0), SimPanic);
}

TEST(Histogram, DefaultConstructedPanicsOnMeanAndPercentile)
{
    // Reading a distribution nobody could ever have sampled into is
    // the same bug class as sampling into one: panic, don't return 0.
    Histogram h;
    EXPECT_THROW(h.mean(), SimPanic);
    EXPECT_THROW(h.percentile(0.5), SimPanic);

    // A sized-but-unsampled histogram is a legitimate "nothing
    // happened" distribution -- e.g. a sampled window with no reuse
    // lag entries -- but it has no mean and no percentiles. Both read
    // as NaN (rendered "n/a" by the formatters, like percent()/
    // fixed()); 0.0 would silently claim "every sample was zero".
    Histogram sized(4);
    EXPECT_TRUE(std::isnan(sized.mean()));
    EXPECT_TRUE(std::isnan(sized.percentile(0.0)));
    EXPECT_TRUE(std::isnan(sized.percentile(0.5)));
    EXPECT_TRUE(std::isnan(sized.percentile(1.0)));
    // One sample flips both from NaN to defined values.
    sized.sample(2);
    EXPECT_DOUBLE_EQ(sized.mean(), 2.0);
    EXPECT_DOUBLE_EQ(sized.percentile(0.5), 2.0);
    // reset() returns the histogram to the no-distribution state.
    sized.reset();
    EXPECT_TRUE(std::isnan(sized.mean()));
    EXPECT_TRUE(std::isnan(sized.percentile(0.5)));
}

TEST(Histogram, Mean)
{
    Histogram h(8);
    EXPECT_TRUE(std::isnan(h.mean())); // empty: no distribution
    h.sample(2);
    h.sample(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    // Overflow samples are clamped into the overflow bucket (index
    // 8), so the mean becomes a lower bound: (2 + 4 + 8) / 3.
    h.sample(100);
    EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 3.0);
}

TEST(Histogram, Percentile)
{
    Histogram h(10);
    for (std::uint64_t v : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 9u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0); // smallest non-empty bucket
    EXPECT_THROW(h.percentile(1.5), SimPanic);

    Histogram empty(4);
    EXPECT_TRUE(std::isnan(empty.percentile(0.5)));

    // Overflow samples report the overflow bucket's index.
    Histogram o(4);
    o.sample(99);
    EXPECT_DOUBLE_EQ(o.percentile(1.0), 4.0);
}
