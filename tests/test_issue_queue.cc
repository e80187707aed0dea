#include <gtest/gtest.h>

#include "core/issue_queue.hh"

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

TEST(IssueQueue, SelectsOldestReadyFirst)
{
    IssueQueue iq(8);
    auto a = makeInst(1), b = makeInst(2), c = makeInst(3);
    iq.insert(a);
    iq.insert(b);
    iq.insert(c);
    // Only b and c ready; width 1 picks b (oldest ready).
    std::vector<DynInstPtr> picked;
    iq.selectReady(
        1, [&](const DynInstPtr &inst) { return inst->seq >= 2; }, picked);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0]->seq, 2u);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_FALSE(b->inIq);
    EXPECT_TRUE(a->inIq);
}

TEST(IssueQueue, WidthLimitsSelection)
{
    IssueQueue iq(8);
    for (SeqNum s = 1; s <= 5; ++s)
        iq.insert(makeInst(s));
    std::vector<DynInstPtr> picked;
    iq.selectReady(3, [](const DynInstPtr &) { return true; }, picked);
    EXPECT_EQ(picked.size(), 3u);
    EXPECT_EQ(picked[0]->seq, 1u);
    EXPECT_EQ(picked[2]->seq, 3u);
}

TEST(IssueQueue, CapacityEnforced)
{
    IssueQueue iq(1);
    iq.insert(makeInst(1));
    EXPECT_TRUE(iq.full());
    EXPECT_THROW(iq.insert(makeInst(2)), SimPanic);
}

TEST(IssueQueue, SquashRemovesYounger)
{
    IssueQueue iq(8);
    for (SeqNum s = 1; s <= 4; ++s)
        iq.insert(makeInst(s));
    iq.squashAfter(2);
    EXPECT_EQ(iq.size(), 2u);
    std::vector<DynInstPtr> picked;
    iq.selectReady(8, [](const DynInstPtr &) { return true; }, picked);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[1]->seq, 2u);
}

TEST(IssueQueue, NoneReadyNoneSelected)
{
    IssueQueue iq(4);
    iq.insert(makeInst(1));
    // A stale buffer is replaced, not appended to.
    std::vector<DynInstPtr> picked{makeInst(9)};
    iq.selectReady(4, [](const DynInstPtr &) { return false; }, picked);
    EXPECT_TRUE(picked.empty());
    EXPECT_EQ(iq.size(), 1u);
}
