#include <gtest/gtest.h>

#include "ri/integration_table.hh"

using namespace mssr;

namespace
{

class RiTest : public ::testing::Test
{
  protected:
    RiTest() : freeList(64, 32) {}

    void
    build(unsigned sets = 4, unsigned ways = 2)
    {
        cfg.sets = sets;
        cfg.ways = ways;
        table = std::make_unique<IntegrationTable>(cfg, freeList);
    }

    DynInstPtr
    squashedAlu(SeqNum seq, Addr pc, ArchReg rd, ArchReg rs1,
                PhysReg src_preg)
    {
        auto inst = pool.acquire();
        inst->seq = seq;
        inst->pc = pc;
        inst->si = isa::Inst{isa::Op::ADDI, rd, rs1, 0, 1};
        inst->src[0] = src_preg;
        inst->dst = freeList.alloc();
        inst->executed = true;
        return inst;
    }

    DynInstPtr
    freshCopy(const DynInstPtr &other, PhysReg src_preg)
    {
        auto inst = pool.acquire();
        inst->seq = other->seq + 1000;
        inst->pc = other->pc;
        inst->si = other->si;
        inst->src[0] = src_preg;
        return inst;
    }

    DynInstPool pool; // first: outlives every handle below
    RegIntConfig cfg;
    FreeList freeList;
    std::unique_ptr<IntegrationTable> table;
};

} // namespace

TEST_F(RiTest, InsertionReservesAndIntegrationAdopts)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, /*src preg*/ 6);
    const PhysReg preg = squashed->dst;
    table->onBranchSquash({squashed});
    EXPECT_EQ(freeList.state(preg), PregState::Reserved);

    auto incoming = freshCopy(squashed, 6);
    const PhysReg cur[2] = {6, InvalidPhysReg};
    const IntegrationAdvice advice = table->tryIntegrate(incoming, cur);
    EXPECT_TRUE(advice.reuse);
    EXPECT_EQ(advice.destPreg, preg);
    EXPECT_EQ(freeList.state(preg), PregState::InFlight);
    // The entry is consumed: a second lookup misses.
    EXPECT_FALSE(table->tryIntegrate(incoming, cur).reuse);
}

TEST_F(RiTest, SourcePregMismatchMisses)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, 6);
    table->onBranchSquash({squashed});
    auto incoming = freshCopy(squashed, 40); // different physical name
    const PhysReg cur[2] = {40, InvalidPhysReg};
    EXPECT_FALSE(table->tryIntegrate(incoming, cur).reuse);
}

TEST_F(RiTest, ConflictReplacementCountsAndFrees)
{
    build(/*sets*/ 1, /*ways*/ 1);
    auto a = squashedAlu(11, 0x2000, 5, 6, 6);
    auto b = squashedAlu(12, 0x2010, 7, 8, 8); // same (only) set
    const PhysReg pa = a->dst;
    table->onBranchSquash({a});
    table->onBranchSquash({b});
    EXPECT_EQ(freeList.state(pa), PregState::Free); // evicted
    EXPECT_EQ(freeList.state(b->dst), PregState::Reserved);
    std::uint64_t total = 0;
    for (auto c : table->replacementCounts())
        total += c;
    EXPECT_EQ(total, 1u);
}

TEST_F(RiTest, TransitiveInvalidationCascades)
{
    build(/*sets*/ 4, /*ways*/ 2);
    // Chain: b sources a's destination; c sources b's destination.
    auto a = squashedAlu(11, 0x2000, 5, 6, 6);
    auto b = squashedAlu(12, 0x2004, 7, 5, a->dst);
    auto c = squashedAlu(13, 0x2008, 8, 7, b->dst);
    table->onBranchSquash({a, b, c});
    EXPECT_EQ(freeList.state(a->dst), PregState::Reserved);
    // a's destination preg gets reallocated by rename: the whole
    // dependent chain of entries must be invalidated (section 3.7.2).
    freeList.release(a->dst); // entry eviction path frees it first
    table->onPregReallocated(a->dst);
    EXPECT_EQ(freeList.state(b->dst), PregState::Free);
    EXPECT_EQ(freeList.state(c->dst), PregState::Free);
}

TEST_F(RiTest, UnexecutedSquashedInstsAreReleasedNotInserted)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, 6);
    squashed->executed = false;
    const PhysReg preg = squashed->dst;
    table->onBranchSquash({squashed});
    EXPECT_EQ(freeList.state(preg), PregState::Free);
}

TEST_F(RiTest, ImmediateMustMatch)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, 6);
    table->onBranchSquash({squashed});
    auto incoming = freshCopy(squashed, 6);
    incoming->si.imm = 2; // same pc shape, different immediate
    const PhysReg cur[2] = {6, InvalidPhysReg};
    EXPECT_FALSE(table->tryIntegrate(incoming, cur).reuse);
}

TEST_F(RiTest, LoadsNeedVerification)
{
    build();
    auto load = pool.acquire();
    load->seq = 11;
    load->pc = 0x2000;
    load->si = isa::Inst{isa::Op::LD, 5, 6, 0, 8};
    load->src[0] = 6;
    load->dst = freeList.alloc();
    load->executed = true;
    load->memAddr = 0x8000;
    table->onBranchSquash({load});
    auto incoming = freshCopy(load, 6);
    const PhysReg cur[2] = {6, InvalidPhysReg};
    const IntegrationAdvice advice = table->tryIntegrate(incoming, cur);
    EXPECT_TRUE(advice.reuse);
    EXPECT_TRUE(advice.needVerify);
    EXPECT_EQ(advice.memAddr, 0x8000u);
}

TEST_F(RiTest, ReclaimOneEvictsLru)
{
    build();
    auto a = squashedAlu(11, 0x2000, 5, 6, 6);
    auto b = squashedAlu(12, 0x2100, 7, 8, 8);
    table->onBranchSquash({a, b});
    EXPECT_TRUE(table->reclaimOne());
    EXPECT_EQ(freeList.state(a->dst), PregState::Free); // oldest insert
    EXPECT_EQ(freeList.state(b->dst), PregState::Reserved);
    EXPECT_TRUE(table->reclaimOne());
    EXPECT_FALSE(table->reclaimOne()); // empty now
}

TEST_F(RiTest, InvalidateAllReleasesEverything)
{
    build();
    auto a = squashedAlu(11, 0x2000, 5, 6, 6);
    table->onBranchSquash({a});
    table->invalidateAll();
    EXPECT_EQ(freeList.state(a->dst), PregState::Free);
}
