#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/lsq.hh"
#include "test_helpers.hh"

using namespace mssr;

using test::makeInst;

TEST(Lsq, ForwardFullCoverage)
{
    Lsq lsq(8, 8);
    auto st = makeInst(1);
    lsq.insertStore(st);
    lsq.storeResolved(st, 0x1000, 8, 0x1122334455667788ull);
    // Younger load fully covered by the store.
    const ForwardResult full = lsq.searchForward(2, 0x1000, 8);
    EXPECT_EQ(full.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(full.data, 0x1122334455667788ull);
    // Sub-word load inside the store: extract the right bytes.
    const ForwardResult sub = lsq.searchForward(2, 0x1004, 4);
    EXPECT_EQ(sub.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(sub.data, 0x11223344u);
}

TEST(Lsq, ForwardYoungestOlderStoreWins)
{
    Lsq lsq(8, 8);
    auto s1 = makeInst(1), s2 = makeInst(2);
    lsq.insertStore(s1);
    lsq.insertStore(s2);
    lsq.storeResolved(s1, 0x1000, 8, 111);
    lsq.storeResolved(s2, 0x1000, 8, 222);
    const ForwardResult fwd = lsq.searchForward(3, 0x1000, 8);
    EXPECT_EQ(fwd.data, 222u);
    // A load between the stores sees only the older one.
    const ForwardResult mid = lsq.searchForward(2, 0x1000, 8);
    EXPECT_EQ(mid.data, 111u);
}

TEST(Lsq, PartialOverlapStalls)
{
    Lsq lsq(8, 8);
    auto st = makeInst(1);
    lsq.insertStore(st);
    lsq.storeResolved(st, 0x1004, 4, 7);
    const ForwardResult fwd = lsq.searchForward(2, 0x1000, 8);
    EXPECT_EQ(fwd.kind, ForwardResult::Kind::Stall);
}

TEST(Lsq, NoOverlapReadsMemory)
{
    Lsq lsq(8, 8);
    auto st = makeInst(1);
    lsq.insertStore(st);
    lsq.storeResolved(st, 0x2000, 8, 7);
    EXPECT_EQ(lsq.searchForward(2, 0x1000, 8).kind,
              ForwardResult::Kind::None);
}

TEST(Lsq, ViolationDetectsYoungerExecutedLoad)
{
    Lsq lsq(8, 8);
    auto st = makeInst(5);
    auto ld1 = makeInst(6), ld2 = makeInst(7);
    lsq.insertStore(st);
    lsq.insertLoad(ld1);
    lsq.insertLoad(ld2);
    lsq.loadExecuted(ld2, 0x1000, 8); // younger load went early
    lsq.loadExecuted(ld1, 0x1000, 8);
    const DynInstPtr victim = lsq.checkViolation(5, 0x1004, 4);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->seq, 6u); // oldest violating load
    // Loads older than the store never violate.
    EXPECT_EQ(lsq.checkViolation(9, 0x1000, 8), nullptr);
    // Disjoint store address: no violation.
    EXPECT_EQ(lsq.checkViolation(5, 0x3000, 8), nullptr);
}

TEST(Lsq, UnexecutedLoadsCannotViolate)
{
    Lsq lsq(8, 8);
    auto ld = makeInst(6);
    lsq.insertLoad(ld);
    EXPECT_EQ(lsq.checkViolation(5, 0x1000, 8), nullptr);
}

TEST(Lsq, SquashRemovesYoungEntries)
{
    Lsq lsq(8, 8);
    auto ld1 = makeInst(1), ld2 = makeInst(5);
    auto st = makeInst(3);
    lsq.insertLoad(ld1);
    lsq.insertStore(st);
    lsq.insertLoad(ld2);
    lsq.squashAfter(2);
    EXPECT_EQ(lsq.numLoads(), 1u);
    EXPECT_EQ(lsq.numStores(), 0u);
    EXPECT_EQ(ld2->lqIdx, -1);
}

TEST(Lsq, CommitPopsInOrder)
{
    Lsq lsq(8, 8);
    auto ld = makeInst(1);
    auto st = makeInst(2);
    lsq.insertLoad(ld);
    lsq.insertStore(st);
    lsq.commitLoad(ld);
    lsq.commitStore(st);
    EXPECT_EQ(lsq.numLoads(), 0u);
    EXPECT_EQ(lsq.numStores(), 0u);
}

TEST(Lsq, CapacityChecks)
{
    Lsq lsq(1, 1);
    lsq.insertLoad(makeInst(1));
    lsq.insertStore(makeInst(2));
    EXPECT_TRUE(lsq.loadQueueFull());
    EXPECT_TRUE(lsq.storeQueueFull());
    EXPECT_THROW(lsq.insertLoad(makeInst(3)), SimPanic);
}
