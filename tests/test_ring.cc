/**
 * Ring, the fixed-capacity queue behind the ROB, LSQ, FTQ, free list
 * and front pipe: wraparound, pops from both ends, iteration order,
 * stable slots, overflow, and that a popped handle is let go.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/log.hh"
#include "common/ring.hh"
#include "core/dyn_inst.hh"

using namespace mssr;

namespace
{

std::vector<int>
contents(const Ring<int> &ring)
{
    return std::vector<int>(ring.begin(), ring.end());
}

} // namespace

TEST(Ring, WrapsAroundTheEnd)
{
    Ring<int> ring(4);
    for (int round = 0; round < 5; ++round) {
        // Each round starts the front one slot further on.
        ring.pushBack(10 * round);
        ring.pushBack(10 * round + 1);
        ring.pushBack(10 * round + 2);
        EXPECT_EQ(contents(ring),
                  (std::vector<int>{10 * round, 10 * round + 1,
                                    10 * round + 2}));
        ring.popFront();
        ring.popFront();
        ring.popFront();
        ring.pushBack(-1);
        ring.popFront();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, PopsFromBothEnds)
{
    Ring<int> ring(3);
    ring.pushBack(1);
    ring.pushBack(2);
    ring.pushBack(3);
    ring.popBack();
    EXPECT_EQ(ring.back(), 2);
    ring.popFront();
    EXPECT_EQ(ring.front(), 2);
    ring.pushBack(4);
    ring.pushBack(5); // wraps
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 4, 5}));
    ring.popBack();
    ring.popBack();
    ring.popBack();
    EXPECT_TRUE(ring.empty());
    EXPECT_THROW(ring.popBack(), SimPanic);
    EXPECT_THROW(ring.popFront(), SimPanic);
}

TEST(Ring, IteratesAndIndexesFrontToBack)
{
    Ring<int> ring(5);
    for (int v = 0; v < 5; ++v)
        ring.pushBack(v);
    ring.popFront();
    ring.popFront();
    ring.pushBack(5);
    ring.pushBack(6); // the back now sits before the front in storage
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5, 6}));
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.begin(), ring.end());
}

TEST(Ring, SlotsStayPutUntilPopped)
{
    Ring<int> ring(3);
    ring.pushBack(0);
    ring.popFront();
    const std::size_t a = ring.pushBack(7);
    const std::size_t b = ring.pushBack(8);
    const std::size_t c = ring.pushBack(9); // wraps to slot 0
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 0u);
    ring.popFront();
    EXPECT_EQ(ring.slot(b), 8);
    EXPECT_EQ(ring.slot(c), 9);
    ring.slot(b) = 80;
    EXPECT_EQ(ring.front(), 80);
}

TEST(Ring, OverflowPanicsInsteadOfWrapping)
{
    Ring<int> ring(2);
    ring.pushBack(1);
    ring.pushBack(2);
    EXPECT_TRUE(ring.full());
    EXPECT_THROW(ring.pushBack(3), SimPanic);
    EXPECT_THROW(ring.extendBack(), SimPanic);
    EXPECT_EQ(contents(ring), (std::vector<int>{1, 2}));
}

TEST(Ring, PoppedHandleIsReleased)
{
    DynInstPool pool;
    Ring<DynInstPtr> ring(2);
    ring.pushBack(pool.acquire());
    ring.pushBack(pool.acquire());
    EXPECT_EQ(pool.live(), 2u);
    ring.popFront();
    EXPECT_EQ(pool.live(), 1u);
    ring.popBack();
    EXPECT_EQ(pool.live(), 0u);
    ring.pushBack(pool.acquire());
    ring.clear();
    EXPECT_EQ(pool.live(), 0u);
}
