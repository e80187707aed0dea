#include <gtest/gtest.h>

#include "common/log.hh"
#include "frontend/ftq.hh"

using namespace mssr;

namespace
{

PredBlock
block(std::uint64_t id, Addr start, unsigned insts, Addr next = 0)
{
    PredBlock b;
    b.id = id;
    b.startPC = start;
    b.endPC = start + (insts - 1) * InstBytes;
    b.nextPC = next ? next : b.endPC + InstBytes;
    return b;
}

} // namespace

TEST(Ftq, FetchCursorWalksBlocks)
{
    Ftq ftq(8);
    ftq.push(block(1, 0x1000, 2));
    ftq.push(block(2, 0x2000, 3));
    ASSERT_NE(ftq.fetchHead(), nullptr);
    EXPECT_EQ(ftq.fetchHead()->id, 1u);
    ftq.advanceFetch(1);
    EXPECT_EQ(ftq.fetchOffset(), 1u);
    ftq.advanceFetch(1); // block 1 done
    EXPECT_EQ(ftq.fetchHead()->id, 2u);
    EXPECT_EQ(ftq.fetchOffset(), 0u);
}

TEST(Ftq, FullAndEmpty)
{
    Ftq ftq(2);
    EXPECT_TRUE(ftq.empty());
    ftq.push(block(1, 0x1000, 1));
    ftq.push(block(2, 0x2000, 1));
    EXPECT_TRUE(ftq.full());
    EXPECT_THROW(ftq.push(block(3, 0x3000, 1)), SimPanic);
}

TEST(Ftq, SquashAfterMidBlock)
{
    Ftq ftq(8);
    ftq.push(block(1, 0x1000, 4)); // insts at 0x1000..0x100c
    ftq.push(block(2, 0x2000, 4));
    // Fetch everything.
    for (int i = 0; i < 8; ++i)
        ftq.advanceFetch(1);
    // Redirecting instruction: 0x1004 in block 1; everything after is
    // the squashed path.
    ftq.squashAfter(1, 0x1004);
    EXPECT_EQ(ftq.size(), 1u); // truncated pivot remains
}

TEST(Ftq, RetireDeallocatesOldBlocks)
{
    Ftq ftq(4);
    ftq.push(block(1, 0x1000, 1));
    ftq.push(block(2, 0x2000, 1));
    ftq.push(block(3, 0x3000, 1));
    for (int i = 0; i < 3; ++i)
        ftq.advanceFetch(1);
    ftq.retireUpTo(3); // blocks 1 and 2 retire
    EXPECT_EQ(ftq.size(), 1u);
    EXPECT_FALSE(ftq.full());
}

TEST(Ftq, SquashWithRetiredPivotFlushesEverything)
{
    Ftq ftq(4);
    ftq.push(block(5, 0x1000, 1));
    ftq.advanceFetch(1);
    // Pivot id 3 no longer exists (retired before): conservative flush.
    ftq.squashAfter(3, 0x0900);
    EXPECT_TRUE(ftq.empty());
}
