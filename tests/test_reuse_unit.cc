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

    /**
     * Squashes an executed ALU instruction (source RGID 1, destination
     * RGID @p dst_rgid) at each of @p pcs, oldest first.
     * @return their destination registers.
     */
    std::vector<PhysReg>
    squashPath(SeqNum branch_seq, const std::vector<Addr> &pcs,
               Rgid dst_rgid)
    {
        std::vector<DynInstPtr> path;
        std::vector<PhysReg> pregs;
        for (Addr pc : pcs) {
            path.push_back(
                squashedAlu(branch_seq + 1 + path.size(), pc, 5, 6, 1,
                            dst_rgid));
            pregs.push_back(path.back()->dst);
        }
        unit->onBranchSquash(branch_seq, path);
        return pregs;
    }

    /** Renames the corrected-path copy of a squashPath() instruction. */
    ReuseAdvice
    renameAt(Addr pc)
    {
        auto inst = pool.acquire();
        inst->pc = pc;
        inst->si = isa::Inst{isa::Op::ADDI, 5, 6, 0, 1};
        const Rgid cur[2] = {1, 0};
        return unit->processRename(inst, cur);
    }

    /**
     * A squashed path in four WPB entries: [0x2000, 0x201c] and
     * [0x2020, 0x2024] (split at the fetch-block size), then past gaps
     * [0x3000, 0x3008] and [0x4000, 0x4004] -- 15 instructions.
     */
    static std::vector<Addr>
    multiEntryPath()
    {
        std::vector<Addr> pcs;
        for (Addr pc = 0x2000; pc <= 0x2024; pc += InstBytes)
            pcs.push_back(pc);
        for (Addr pc = 0x3000; pc <= 0x3008; pc += InstBytes)
            pcs.push_back(pc);
        for (Addr pc = 0x4000; pc <= 0x4004; pc += InstBytes)
            pcs.push_back(pc);
        return pcs;
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
    EXPECT_GT(unit->wpb().stream(0).numEntries, 0u);
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
    EXPECT_EQ(unit->wpb().stream(0).numEntries, 0u);
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
    EXPECT_EQ(unit->wpb().stream(0).numEntries, 0u);
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

TEST_F(ReuseUnitTest, SessionFollowsStreamAcrossWpbEntries)
{
    build(/*streams*/ 2, /*log*/ 16);
    squashPath(10, multiEntryPath(), /*dst*/ 2);
    ASSERT_EQ(unit->wpb().stream(0).numEntries, 4u);
    // A newer stream over the later blocks: detection on any of them
    // would pick it first and cover more entries.
    squashPath(30, {0x3000, 0x3004, 0x3008, 0x4000, 0x4004, 0x4008, 0x400c},
               /*dst*/ 3);
    ASSERT_EQ(unit->wpb().stream(1).numEntries, 2u);

    // Detection in the middle of the first entry, with a block that
    // runs on into the second: path instructions 4..14 are covered.
    unit->onBlockFormed(blockAt(0x2010, 6));
    EXPECT_EQ(unit->funnel().covered, 11u);
    // A block that matches the third entry and carries the IFU into
    // the fourth: no detection.
    unit->onBlockFormed(blockAt(0x3000, 3));
    EXPECT_EQ(unit->funnel().covered, 11u);
    // Partial match: the fourth entry ends after 0x4004. No detection
    // on this block either.
    unit->onBlockFormed(blockAt(0x4000, 4));
    EXPECT_EQ(unit->funnel().covered, 11u);
    // Detection resumes with the next block, on the newer stream.
    unit->onBlockFormed(blockAt(0x4008, 2));
    EXPECT_EQ(unit->funnel().covered, 13u);

    // Rename reuses the first stream's covered instructions, then the
    // newer stream's from its reconvergence PC (told apart by their
    // destination RGIDs).
    std::vector<Addr> fromFirst;
    for (Addr pc = 0x2010; pc <= 0x2024; pc += InstBytes)
        fromFirst.push_back(pc);
    for (Addr pc : {0x3000, 0x3004, 0x3008, 0x4000, 0x4004})
        fromFirst.push_back(pc);
    for (Addr pc : fromFirst) {
        const ReuseAdvice advice = renameAt(pc);
        EXPECT_TRUE(advice.reuse) << std::hex << pc;
        EXPECT_EQ(advice.dstRgid, 2u) << std::hex << pc;
    }
    for (Addr pc : {0x4008, 0x400c}) {
        const ReuseAdvice advice = renameAt(pc);
        EXPECT_TRUE(advice.reuse) << std::hex << pc;
        EXPECT_EQ(advice.dstRgid, 3u) << std::hex << pc;
    }
    EXPECT_EQ(unit->funnel().reused, 13u);
}

TEST_F(ReuseUnitTest, DivergentBlockResumesDetection)
{
    build(/*streams*/ 2, /*log*/ 16);
    const std::vector<PhysReg> pregs =
        squashPath(10, multiEntryPath(), /*dst*/ 2);
    squashPath(30, {0x5000, 0x5004}, /*dst*/ 3);

    unit->onBlockFormed(blockAt(0x2010, 6));
    EXPECT_EQ(unit->funnel().covered, 11u);
    unit->onBlockFormed(blockAt(0x3000, 3));
    EXPECT_EQ(unit->funnel().covered, 11u);
    // The IFU expects 0x4000: a block that diverges at its first
    // instruction is checked for a new reconvergence at once.
    unit->onBlockFormed(blockAt(0x5000, 2));
    EXPECT_EQ(unit->funnel().covered, 13u);

    for (Addr pc = 0x2010; pc <= 0x2024; pc += InstBytes)
        EXPECT_TRUE(renameAt(pc).reuse) << std::hex << pc;
    for (Addr pc = 0x3000; pc <= 0x3008; pc += InstBytes)
        EXPECT_TRUE(renameAt(pc).reuse) << std::hex << pc;
    // 0x5000 diverges from the first stream at rename, which releases
    // its last two reservations, and starts the second session.
    for (Addr pc : {0x5000, 0x5004}) {
        const ReuseAdvice advice = renameAt(pc);
        EXPECT_TRUE(advice.reuse) << std::hex << pc;
        EXPECT_EQ(advice.dstRgid, 3u) << std::hex << pc;
    }
    EXPECT_EQ(freeList.state(pregs[13]), PregState::Free);
    EXPECT_EQ(freeList.state(pregs[14]), PregState::Free);
    EXPECT_EQ(unit->funnel().reused, 11u);
}
