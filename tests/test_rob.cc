#include <gtest/gtest.h>

#include "core/rob.hh"

using namespace mssr;

namespace
{

DynInstPool pool; // outlives every handle the tests make

DynInstPtr
makeInst(SeqNum seq)
{
    auto inst = pool.acquire();
    inst->seq = seq;
    return inst;
}

} // namespace

TEST(Rob, FifoOrder)
{
    Rob rob(4);
    rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_EQ(rob.head()->seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head()->seq, 2u);
}

TEST(Rob, CapacityEnforced)
{
    Rob rob(2);
    rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_TRUE(rob.full());
    EXPECT_THROW(rob.push(makeInst(3)), SimPanic);
}

TEST(Rob, ProgramOrderEnforced)
{
    Rob rob(4);
    rob.push(makeInst(5));
    EXPECT_THROW(rob.push(makeInst(4)), SimPanic);
}

TEST(Rob, SquashAfterWalksYoungestFirst)
{
    Rob rob(8);
    for (SeqNum s = 1; s <= 5; ++s)
        rob.push(makeInst(s));
    std::vector<SeqNum> undone;
    rob.squashAfter(2, [&](const DynInstPtr &inst) {
        undone.push_back(inst->seq);
    });
    EXPECT_EQ(undone, (std::vector<SeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, SquashAfterNoMatchIsNoOp)
{
    Rob rob(4);
    rob.push(makeInst(1));
    int count = 0;
    rob.squashAfter(10, [&](const DynInstPtr &) { ++count; });
    EXPECT_EQ(count, 0);
    EXPECT_EQ(rob.size(), 1u);
}

TEST(Rob, IterationOldestFirst)
{
    Rob rob(4);
    rob.push(makeInst(7));
    rob.push(makeInst(8));
    SeqNum expect = 7;
    for (const auto &inst : rob)
        EXPECT_EQ(inst->seq, expect++);
}
