/**
 * Unit tests of the ReuseUnit state machine: stream capture with
 * register reservation, reconvergence detection, lockstep reuse tests,
 * divergence handling, timeout, and free-list pressure reclamation --
 * all driven with hand-built dynamic instructions.
 */

#include <gtest/gtest.h>

#include "reuse/reuse_unit.hh"

using namespace mssr;

namespace
{

class ReuseUnitTest : public ::testing::Test
{
  protected:
    ReuseUnitTest() : freeList(64, 32) {}

    void
    build(unsigned streams = 2, unsigned log_entries = 8)
    {
        cfg.numStreams = streams;
        cfg.squashLogEntriesPerStream = log_entries;
        cfg.wpbEntriesPerStream = 4;
        cfg.restrictVpn = false;
        unit = std::make_unique<ReuseUnit>(cfg, freeList);
    }

    /** Builds an executed squashed ALU instruction owning a preg. */
    DynInstPtr
    squashedAlu(SeqNum seq, Addr pc, ArchReg rd, ArchReg rs1,
                Rgid src_rgid, Rgid dst_rgid)
    {
        auto inst = pool.acquire();
        inst->seq = seq;
        inst->pc = pc;
        inst->si = isa::Inst{isa::Op::ADDI, rd, rs1, 0, 1};
        inst->dst = freeList.alloc();
        inst->srcRgid[0] = src_rgid;
        inst->dstRgid = dst_rgid;
        inst->executed = true;
        return inst;
    }

    /** The same instruction arriving on the corrected path. */
    DynInstPtr
    freshCopy(const DynInstPtr &other)
    {
        auto inst = pool.acquire();
        inst->seq = other->seq + 1000;
        inst->pc = other->pc;
        inst->si = other->si;
        return inst;
    }

    PredBlock
    blockAt(Addr start, unsigned insts)
    {
        PredBlock b;
        b.startPC = start;
        b.endPC = start + (insts - 1) * InstBytes;
        return b;
    }

    DynInstPool pool; // first: outlives every handle below
    ReuseConfig cfg;
    FreeList freeList;
    std::unique_ptr<ReuseUnit> unit;
};

} // namespace

TEST_F(ReuseUnitTest, CaptureReservesExecutedDestinations)
{
    build();
    auto executed = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    auto unexecuted = squashedAlu(12, 0x2004, 7, 5, 2, 3);
    unexecuted->executed = false;
    const PhysReg p1 = executed->dst, p2 = unexecuted->dst;
    unit->onBranchSquash(10, {executed, unexecuted});
    // Policy (1): executed kept, unexecuted released.
    EXPECT_EQ(freeList.state(p1), PregState::Reserved);
    EXPECT_EQ(freeList.state(p2), PregState::Free);
    EXPECT_TRUE(unit->wpb().stream(0).valid);
    EXPECT_EQ(unit->squashLog().stream(0).numEntries, 2u);
}

TEST_F(ReuseUnitTest, SuccessfulReuseAdoptsRegister)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, /*src*/ 1, /*dst*/ 2);
    const PhysReg preg = squashed->dst;
    unit->onBranchSquash(10, {squashed});
    unit->onBlockFormed(blockAt(0x2000, 1));

    auto incoming = freshCopy(squashed);
    const Rgid cur[2] = {1, 0}; // matches the squash-time source RGID
    const ReuseAdvice advice = unit->processRename(incoming, cur);
    EXPECT_TRUE(advice.reuse);
    EXPECT_EQ(advice.destPreg, preg);
    EXPECT_EQ(advice.dstRgid, 2u);
    EXPECT_EQ(freeList.state(preg), PregState::InFlight);
}

TEST_F(ReuseUnitTest, RgidMismatchReleasesReservation)
{
    build();
    auto squashed = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    const PhysReg preg = squashed->dst;
    unit->onBranchSquash(10, {squashed});
    unit->onBlockFormed(blockAt(0x2000, 1));

    auto incoming = freshCopy(squashed);
    const Rgid cur[2] = {9, 0}; // source was re-renamed since
    const ReuseAdvice advice = unit->processRename(incoming, cur);
    EXPECT_FALSE(advice.reuse);
    // Policy (3): failed test frees the register.
    EXPECT_EQ(freeList.state(preg), PregState::Free);
}

TEST_F(ReuseUnitTest, DivergenceInvalidatesStream)
{
    build();
    auto a = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    auto b = squashedAlu(12, 0x2004, 7, 5, 2, 1);
    const PhysReg pb = b->dst;
    unit->onBranchSquash(10, {a, b});
    unit->onBlockFormed(blockAt(0x2000, 2));

    auto first = freshCopy(a);
    const Rgid cur[2] = {1, 0};
    EXPECT_TRUE(unit->processRename(first, cur).reuse);

    // Next instruction has a different PC: policy (4).
    auto divergent = pool.acquire();
    divergent->pc = 0x3000;
    divergent->si = isa::Inst{isa::Op::NOP, 0, 0, 0, 0};
    const Rgid none[2] = {0, 0};
    EXPECT_FALSE(unit->processRename(divergent, none).reuse);
    EXPECT_FALSE(unit->wpb().stream(0).valid);
    EXPECT_EQ(freeList.state(pb), PregState::Free);
}

TEST_F(ReuseUnitTest, StoresAndControlAreNeverReused)
{
    build();
    auto store = pool.acquire();
    store->seq = 11;
    store->pc = 0x2000;
    store->si = isa::Inst{isa::Op::SD, 0, 6, 7, 0};
    store->executed = true;
    unit->onBranchSquash(10, {store});
    unit->onBlockFormed(blockAt(0x2000, 1));
    auto incoming = freshCopy(store);
    const Rgid cur[2] = {0, 0};
    EXPECT_FALSE(unit->processRename(incoming, cur).reuse);
}

TEST_F(ReuseUnitTest, TimeoutReleasesStream)
{
    build();
    cfg.reconvTimeoutInsts = 4;
    unit = std::make_unique<ReuseUnit>(cfg, freeList);
    auto squashed = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    const PhysReg preg = squashed->dst;
    unit->onBranchSquash(10, {squashed});
    // No reconvergence: renamed instructions age the stream out.
    auto unrelated = pool.acquire();
    unrelated->pc = 0x9000;
    unrelated->si = isa::Inst{isa::Op::NOP, 0, 0, 0, 0};
    const Rgid cur[2] = {0, 0};
    for (int i = 0; i < 6; ++i)
        unit->processRename(unrelated, cur);
    EXPECT_FALSE(unit->wpb().stream(0).valid);
    EXPECT_EQ(freeList.state(preg), PregState::Free);
}

TEST_F(ReuseUnitTest, RoundRobinOverwriteReleasesVictim)
{
    build(/*streams*/ 1);
    auto first = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    const PhysReg p1 = first->dst;
    unit->onBranchSquash(10, {first});
    auto second = squashedAlu(21, 0x4000, 5, 6, 3, 4);
    unit->onBranchSquash(20, {second});
    // The single stream was recycled: first's register is free again.
    EXPECT_EQ(freeList.state(p1), PregState::Free);
    EXPECT_EQ(freeList.state(second->dst), PregState::Reserved);
}

TEST_F(ReuseUnitTest, PressureReclaimFreesLeastRecentStream)
{
    build(/*streams*/ 2);
    auto a = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    auto b = squashedAlu(21, 0x4000, 5, 6, 3, 4);
    unit->onBranchSquash(10, {a});
    unit->onBranchSquash(20, {b});
    EXPECT_TRUE(unit->reclaimLeastRecentStream());
    EXPECT_EQ(freeList.state(a->dst), PregState::Free);    // older stream
    EXPECT_EQ(freeList.state(b->dst), PregState::Reserved); // kept
}

TEST_F(ReuseUnitTest, VerificationRequestedForReusedLoads)
{
    build();
    auto load = pool.acquire();
    load->seq = 11;
    load->pc = 0x2000;
    load->si = isa::Inst{isa::Op::LD, 5, 6, 0, 8};
    load->dst = freeList.alloc();
    load->srcRgid[0] = 1;
    load->dstRgid = 2;
    load->executed = true;
    load->memAddr = 0x8000;
    unit->onBranchSquash(10, {load});
    unit->onBlockFormed(blockAt(0x2000, 1));
    auto incoming = freshCopy(load);
    const Rgid cur[2] = {1, 0};
    const ReuseAdvice advice = unit->processRename(incoming, cur);
    EXPECT_TRUE(advice.reuse);
    EXPECT_TRUE(advice.needVerify); // re-execute & compare (sec 3.8.3)
    EXPECT_EQ(advice.memAddr, 0x8000u);
    EXPECT_EQ(advice.memSize, 8u);
}

TEST_F(ReuseUnitTest, BloomHitBlocksLoadReuse)
{
    build();
    cfg.useBloomFilter = true;
    unit = std::make_unique<ReuseUnit>(cfg, freeList);
    auto load = pool.acquire();
    load->seq = 11;
    load->pc = 0x2000;
    load->si = isa::Inst{isa::Op::LD, 5, 6, 0, 8};
    load->dst = freeList.alloc();
    load->srcRgid[0] = 1;
    load->dstRgid = 2;
    load->executed = true;
    load->memAddr = 0x8000;
    unit->onBranchSquash(10, {load});
    // A store to the load's address executes while the log is occupied.
    unit->onStoreExecuted(0x8000, 8);
    unit->onBlockFormed(blockAt(0x2000, 1));
    auto incoming = freshCopy(load);
    const Rgid cur[2] = {1, 0};
    const ReuseAdvice advice = unit->processRename(incoming, cur);
    EXPECT_FALSE(advice.reuse); // must re-execute
}

TEST_F(ReuseUnitTest, VerifyFailSquashInvalidatesEverything)
{
    build(2);
    auto a = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    unit->onBranchSquash(10, {a});
    auto doomed = squashedAlu(31, 0x5000, 7, 6, 1, 2);
    const PhysReg pd = doomed->dst;
    unit->onOtherSquash({doomed}, /*invalidate_all*/ true);
    EXPECT_FALSE(unit->wpb().anyValid());
    EXPECT_EQ(freeList.state(pd), PregState::Free);
    EXPECT_EQ(freeList.state(a->dst), PregState::Free);
}

TEST_F(ReuseUnitTest, RgidCapacityWindowBlocksStaleReuse)
{
    // A 4-bit RGID tag distinguishes 14 generations. Age the squashed
    // mapping past the window before the reuse test: a hardware tag
    // would have wrapped, so the reuse must be rejected.
    cfg.rgidBits = 4;
    build();
    unit = std::make_unique<ReuseUnit>(cfg, freeList);
    // Allocate through the unit so its allocator tracks generations.
    const Rgid srcGen = unit->allocDstRgid(6);
    const Rgid dstGen = unit->allocDstRgid(5);
    auto squashed = squashedAlu(11, 0x2000, 5, 6, srcGen, dstGen);
    const PhysReg preg = squashed->dst;
    unit->onBranchSquash(10, {squashed});
    // Advance the destination register 20 generations.
    for (int i = 0; i < 20; ++i)
        unit->allocDstRgid(5);
    unit->onBlockFormed(blockAt(0x2000, 1));
    auto incoming = freshCopy(squashed);
    const Rgid cur[2] = {srcGen, 0};
    const ReuseAdvice advice = unit->processRename(incoming, cur);
    EXPECT_FALSE(advice.reuse);
    EXPECT_EQ(freeList.state(preg), PregState::Free); // released
}

TEST_F(ReuseUnitTest, ChainedSessionsAcrossStreams)
{
    // The corrected path reuses from the most recent stream, exhausts
    // it, and chains to an older stream covering the continuation --
    // the multi-stream behaviour of Figure 1.
    build(/*streams*/ 2, /*log*/ 8);
    // Older stream covers [0x2000, 0x2004].
    auto a0 = squashedAlu(11, 0x2000, 5, 6, 1, 2);
    auto a1 = squashedAlu(12, 0x2004, 7, 5, 2, 1);
    unit->onBranchSquash(10, {a0, a1});
    // Newer stream covers only [0x2000].
    auto b0 = squashedAlu(21, 0x2000, 5, 6, 1, 3);
    unit->onBranchSquash(20, {b0});

    // Detection picks the newer stream first...
    unit->onBlockFormed(blockAt(0x2000, 1));
    // ...whose coverage is exhausted immediately, so the next block
    // can chain onto the older stream.
    unit->onBlockFormed(blockAt(0x2004, 1));

    auto i0 = freshCopy(b0);
    const Rgid cur0[2] = {1, 0};
    const ReuseAdvice adv0 = unit->processRename(i0, cur0);
    EXPECT_TRUE(adv0.reuse);
    EXPECT_EQ(adv0.dstRgid, 3u); // from the newer stream

    auto i1 = freshCopy(a1);
    const Rgid cur1[2] = {2, 0};
    const ReuseAdvice adv1 = unit->processRename(i1, cur1);
    EXPECT_TRUE(adv1.reuse);
    EXPECT_EQ(adv1.dstRgid, 1u); // from the older stream
}
