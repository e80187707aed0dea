#include "core/o3cpu.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bitops.hh"
#include "common/log.hh"
#include "sim/checkpoint.hh"

namespace mssr
{

WarmState::WarmState(const SimConfig &cfg, const isa::Program &prog,
                     const Checkpoint *snapshot)
    : bpu(cfg.core, prog), caches(cfg.core)
{
    if (!snapshot)
        return;
    if (cfg.warmBpu) {
        // Replay the prefix's recorded control outcomes through the
        // commit-update path: trains the conditional predictor and the
        // BTB exactly as committing those branches would have.
        for (const BranchOutcome &rec : snapshot->branchHist)
            bpu.commitControl(rec.pc, prog.instAt(rec.pc), rec.taken,
                              rec.next);
    }
    if (cfg.warmCaches) {
        // Replay the prefix's recorded data accesses through the
        // normal access path so the window starts with the prefix's
        // working set resident, then reset the hierarchy's counters:
        // warm-up traffic must never appear in window stats.
        for (const MemAccess &rec : snapshot->memHist) {
            if (rec.isStore)
                caches.storeAccess(rec.addr);
            else
                caches.loadLatency(rec.addr);
        }
        caches.resetStats();
    }
}

bool
WarmState::sameState(const SimConfig &a, const SimConfig &b)
{
    return a.core == b.core && a.warmBpu == b.warmBpu &&
           a.warmCaches == b.warmCaches;
}

O3Cpu::O3Cpu(const SimConfig &cfg, const isa::Program &prog, Memory &mem,
             const Checkpoint *snapshot)
    : O3Cpu(cfg, prog, mem, snapshot, WarmState(cfg, prog, snapshot))
{
}

O3Cpu::O3Cpu(const SimConfig &cfg, const isa::Program &prog, Memory &mem,
             const Checkpoint *snapshot, WarmState warm)
    : cfg_(cfg),
      prog_(prog),
      mem_(mem),
      hierarchy_(std::move(warm.caches)),
      bpu_(std::move(warm.bpu)),
      ftq_(cfg.core.ftqEntries),
      // Every fetched, unrenamed instruction belongs to a queued FTQ
      // block, so the FTQ bounds the front pipe.
      frontPipe_(cfg.core.ftqEntries *
                 (cfg.core.fetchBlockBytes / InstBytes)),
      rob_(cfg.core.robEntries),
      freeList_(cfg.core.physRegs, NumArchRegs),
      regs_(cfg.core.physRegs),
      iqInt_(cfg.core.intRvsEntries, cfg.core.physRegs),
      iqMem_(cfg.core.memRvsEntries, cfg.core.physRegs),
      lsq_(cfg.core.loadQueueEntries, cfg.core.storeQueueEntries)
{
    mssr_assert(cfg.core.physRegs > NumArchRegs,
                "need more physical than architectural registers");
    const CoreConfig &core = cfg.core;
    const Cycle maxLatency =
        std::max({core.l1dLatency + core.l2Latency + core.dramLatency,
                  core.mulLatency, core.divLatency, core.aluLatency,
                  core.branchLatency, 1u});
    wbWheel_.resize(std::bit_ceil(maxLatency + 1));
    wbMask_ = wbWheel_.size() - 1;
    if (cfg.profiling)
        profile_ = std::make_unique<PcProfile>();
    if (cfg.pipeview || profile_)
        probe_ = std::make_unique<Probe>(cfg.pipeview, profile_.get());
    switch (cfg.reuseKind) {
      case ReuseKind::Rgid:
        reuse_ = std::make_unique<ReuseUnit>(cfg.reuse, freeList_);
        reuse_->setProbe(probe_.get());
        break;
      case ReuseKind::RegInt:
        ri_ = std::make_unique<IntegrationTable>(cfg.regint, freeList_);
        break;
      case ReuseKind::None:
        break;
    }

    if (!snapshot) {
        prog_.loadInto(mem_);
        // Initial architectural state: all zero, sp = stack top; the
        // identity RAT maps arch reg r to preg r.
        for (unsigned r = 0; r < NumArchRegs; ++r)
            regs_.write(static_cast<PhysReg>(r), 0);
        regs_.write(2, prog_.stackTop());
        archState_[2] = prog_.stackTop();
        return;
    }

    // Snapshot start: the caller already restored the memory image, so
    // only the register file and the fetch PC need seeding. The
    // identity RAT still maps arch reg r to preg r at this point.
    for (unsigned r = 0; r < NumArchRegs; ++r) {
        regs_.write(static_cast<PhysReg>(r), snapshot->regs[r]);
        archState_[r] = snapshot->regs[r];
    }
    bpu_.redirectSimple(snapshot->pc);
    if (snapshot->halted)
        halted_ = true;
}

// ---------------------------------------------------------------- helpers

namespace
{

/**
 * Squash urgency at equal cause sequence number: a mispredicted
 * branch's redirect supersedes the re-fetch redirects of the
 * same-instruction verification or ordering fixups.
 */
int
squashPriority(SquashReason reason)
{
    switch (reason) {
      case SquashReason::BranchMispredict:
        return 3;
      case SquashReason::ReuseVerifyFail:
        return 2;
      case SquashReason::MemOrderViolation:
        return 1;
      case SquashReason::None:
        break;
    }
    return 0;
}

} // namespace

RegVal
O3Cpu::srcValue(const DynInstPtr &inst, unsigned idx) const
{
    return regs_.value(inst->src[idx]);
}

bool
O3Cpu::srcsReady(const DynInstPtr &inst) const
{
    if (inst->si.hasRs1() && !regs_.ready(inst->src[0]))
        return false;
    if (inst->si.hasRs2() && !regs_.ready(inst->src[1]))
        return false;
    return true;
}

void
O3Cpu::writeReg(PhysReg reg, RegVal value)
{
    regs_.write(reg, value);
    iqInt_.wakeup(reg);
    iqMem_.wakeup(reg);
}

void
O3Cpu::dispatch(IssueQueue &iq, const DynInstPtr &inst)
{
    // A load awaiting verification issues at once: it re-executes
    // with the address its reuse recorded.
    PhysReg waits[2];
    unsigned n = 0;
    if (!inst->verifyPending) {
        if (inst->si.hasRs1() && !regs_.ready(inst->src[0]))
            waits[n++] = inst->src[0];
        if (inst->si.hasRs2() && !regs_.ready(inst->src[1]))
            waits[n++] = inst->src[1];
    }
    iq.insert(inst, {waits, n});
}

void
O3Cpu::scheduleWriteback(const DynInstPtr &inst, Cycle latency)
{
    mssr_assert(latency <= wbMask_, "writeback latency ", latency,
                " beyond the ", wbWheel_.size(), "-cycle wheel");
    // Writeback takes a bucket in sequence order (for determinism), so
    // a bucket is kept sorted as it fills; most arrivals are youngest.
    std::vector<DynInstPtr> &bucket =
        wbWheel_[(cycle_ + std::max<Cycle>(latency, 1)) & wbMask_];
    bucket.push_back(inst);
    for (std::size_t i = bucket.size() - 1;
         i > 0 && bucket[i - 1]->seq > inst->seq; --i)
        swap(bucket[i - 1], bucket[i]);
}

void
O3Cpu::requestSquash(SeqNum after_seq, Addr redirect, DynInstPtr cause,
                     SquashReason reason)
{
    if (pendingSquash_.valid) {
        // A strictly older squash point subsumes this one outright.
        if (pendingSquash_.afterSeq < after_seq)
            return;
        if (pendingSquash_.afterSeq == after_seq) {
            // Same squash point but possibly a different redirect: the
            // older cause wins (its redirect re-fetches and re-resolves
            // the younger cause); at equal cause, reason priority
            // breaks the tie so the redirect is deterministic.
            const SeqNum pendingCause =
                pendingSquash_.cause ? pendingSquash_.cause->seq : 0;
            const SeqNum newCause = cause ? cause->seq : 0;
            if (pendingCause < newCause)
                return;
            if (pendingCause == newCause &&
                squashPriority(pendingSquash_.reason) >=
                    squashPriority(reason))
                return;
        }
    }
    pendingSquash_ =
        PendingSquash{true, after_seq, redirect, std::move(cause), reason};
}

// ------------------------------------------------------------------ stages

void
O3Cpu::commitStage()
{
    unsigned n = 0;
    while (n < cfg_.core.commitWidth && !rob_.empty()) {
        // A reference: the ROB keeps the instruction until popHead(),
        // the last use of it.
        const DynInstPtr &inst = rob_.head();
        if (!inst->completed || inst->verifyPending)
            break;

        if (inst->si.isHalt()) {
            if (probe_)
                probe_->emit({.kind = ProbeKind::Commit, .seq = inst->seq,
                              .pc = inst->pc});
            ++commits_;
            halted_ = true;
            lastCommitCycle_ = cycle_;
            return;
        }
        if (inst->isStore()) {
            mem_.write(inst->memAddr, inst->result, inst->si.memBytes());
            hierarchy_.storeAccess(inst->memAddr);
            lsq_.commitStore(inst);
            ++storesCommitted_;
        }
        if (inst->isLoad())
            lsq_.commitLoad(inst);
        if (inst->isControl()) {
            bpu_.commitControl(inst->pc, inst->si, inst->actualTaken,
                               inst->actualNext);
            if (inst->si.isCondBranch()) {
                ++condBranchesCommitted_;
                if (inst->mispredicted)
                    ++condMispredictsCommitted_;
            }
        }
        if (inst->si.hasRd()) {
            archState_[inst->si.rd] = inst->result;
            freeList_.setArch(inst->dst);
            freeList_.release(inst->oldDst);
        }
        if (probe_)
            probe_->emit({.kind = ProbeKind::Commit,
                          .reuse = inst->reused ? ReuseOutcome::Reused
                                                : ReuseOutcome::None,
                          .seq = inst->seq, .pc = inst->pc,
                          .arg = inst->result});
        ftq_.retireUpTo(inst->ftqId);
        rob_.popHead();
        ++commits_;
        ++n;
        lastCommitCycle_ = cycle_;
        if (cfg_.maxInsts != 0 && commits_ >= cfg_.maxInsts) {
            halted_ = true;
            return;
        }
    }
}

void
O3Cpu::writebackStage()
{
    // This cycle's bucket, in sequence order (see scheduleWriteback).
    std::vector<DynInstPtr> &due = wbWheel_[cycle_ & wbMask_];

    for (const DynInstPtr &inst : due) {
        if (inst->squashed)
            continue;

        if (inst->verifyPending) {
            // Reused load verification (section 3.8.3, NoSQ-style).
            inst->verifyPending = false;
            const bool ok = inst->result == inst->reusedValue;
            if (probe_)
                probe_->emit({.kind = ProbeKind::Verify,
                              .squash = ok ? SquashReason::None
                                           : SquashReason::ReuseVerifyFail,
                              .seq = inst->seq, .pc = inst->pc,
                              .arg = ok});
            if (ok) {
                ++verifyOk_;
            } else {
                // Dependents consumed a stale value: flush younger
                // instructions, fix this load's value in place.
                ++verifyFailFlushes_;
                writeReg(inst->dst, inst->result);
                requestSquash(inst->seq, inst->pc + InstBytes, inst,
                              SquashReason::ReuseVerifyFail);
            }
            continue;
        }

        inst->executed = true;
        inst->completed = true;
        if (probe_)
            probe_->emit({.kind = ProbeKind::Writeback, .seq = inst->seq,
                          .pc = inst->pc, .arg = inst->result});
        if (inst->si.hasRd())
            writeReg(inst->dst, inst->result);
        if (inst->isLoad())
            ++loadsExecuted_;
        if (inst->isControl() && inst->mispredicted) {
            ++branchMispredicts_;
            requestSquash(inst->seq, inst->actualNext, inst,
                          SquashReason::BranchMispredict);
        }
    }
    due.clear();
}

void
O3Cpu::executeBranch(const DynInstPtr &inst)
{
    const RegVal a = inst->si.hasRs1() ? srcValue(inst, 0) : 0;
    const RegVal b = inst->si.hasRs2() ? srcValue(inst, 1) : 0;
    if (inst->si.isCondBranch()) {
        inst->actualTaken = isa::evalCondBranch(inst->si, a, b);
    } else {
        inst->actualTaken = true;
        inst->result = inst->pc + InstBytes; // link value
    }
    inst->actualNext = inst->actualTaken
                           ? isa::evalTarget(inst->si, inst->pc, a)
                           : inst->pc + InstBytes;
    inst->mispredicted = inst->actualNext != inst->predNext;
    scheduleWriteback(inst, cfg_.core.branchLatency);
}

void
O3Cpu::executeLoad(const DynInstPtr &inst)
{
    const Addr addr = inst->verifyPending
                          ? inst->memAddr // RGID match => same address
                          : isa::evalMemAddr(inst->si, srcValue(inst, 0));
    const unsigned size = inst->si.memBytes();

    const ForwardResult fwd = lsq_.searchForward(inst->seq, addr, size);
    if (fwd.kind == ForwardResult::Kind::Stall) {
        // Partial overlap with an older store: retry once it drains.
        dispatch(iqMem_, inst);
        return;
    }

    inst->memAddr = addr;
    lsq_.loadExecuted(inst, addr, size);

    RegVal value;
    Cycle latency;
    if (fwd.kind == ForwardResult::Kind::Forward) {
        value = fwd.data;
        latency = 1;
    } else {
        value = mem_.read(addr, size);
        latency = hierarchy_.loadLatency(addr);
    }
    if (inst->si.memSigned())
        value = static_cast<RegVal>(sext(value, 8 * size));

    // A reused load awaiting verification stages the fresh value here;
    // writeback compares it with the reused one.
    inst->result = value;
    scheduleWriteback(inst, latency);
}

void
O3Cpu::executeStore(const DynInstPtr &inst)
{
    const Addr addr = isa::evalMemAddr(inst->si, srcValue(inst, 0));
    const unsigned size = inst->si.memBytes();
    const RegVal data = srcValue(inst, 1);

    inst->memAddr = addr;
    inst->result = data;
    lsq_.storeResolved(inst, addr, size, data);
    if (reuse_)
        reuse_->onStoreExecuted(addr, size);

    // XiangShan-style store-to-load violation check (section 3.8.1).
    if (DynInstPtr victim = lsq_.checkViolation(inst->seq, addr, size)) {
        ++memOrderFlushes_;
        requestSquash(victim->seq - 1, victim->pc, victim,
                      SquashReason::MemOrderViolation);
    }
    scheduleWriteback(inst, 1);
}

void
O3Cpu::executeInst(const DynInstPtr &inst)
{
    if (probe_)
        probe_->emit({.kind = ProbeKind::Issue, .seq = inst->seq,
                      .pc = inst->pc, .arg = inst->verifyPending});
    if (inst->isControl()) {
        executeBranch(inst);
    } else if (inst->isLoad()) {
        executeLoad(inst);
    } else if (inst->isStore()) {
        executeStore(inst);
    } else {
        const RegVal a = inst->si.hasRs1() ? srcValue(inst, 0) : 0;
        const RegVal b = inst->si.hasRs2() ? srcValue(inst, 1) : 0;
        inst->result = isa::evalAlu(inst->si, a, b);
        const unsigned latency =
            inst->si.latency(cfg_.core.aluLatency, cfg_.core.mulLatency,
                             cfg_.core.divLatency, cfg_.core.branchLatency);
        scheduleWriteback(inst, latency);
    }
}

void
O3Cpu::issueStage()
{
    // Select all, then execute: executeLoad() re-inserts a stalled
    // load into iqMem_ while the selected loads execute.
    using Pick = IssueQueue::Pick;
    auto issue = [&](IssueQueue &iq, unsigned width, Pick pick) {
        iq.select(width, pick, issueBuf_);
        for (const DynInstPtr &inst : issueBuf_)
            executeInst(inst);
    };
    issue(iqInt_, cfg_.core.numBru, Pick::Control);
    issue(iqInt_, cfg_.core.numAlu, Pick::NonControl);
    issue(iqMem_, cfg_.core.numLsu, Pick::Any);
    issueBuf_.clear();
}

O3Cpu::RenameOutcome
O3Cpu::renameOne(const DynInstPtr &inst)
{
    const isa::Inst &si = inst->si;

    // Structural-hazard checks first: nothing below may be partial,
    // because the reuse unit's lockstep state advances exactly once
    // per renamed instruction. The outcome names the blocking
    // structure so renameStage can charge the lost dispatch slots to
    // the right CPI-stack category.
    if (rob_.full())
        return RenameOutcome::RobFull;
    const isa::FuClass fu = si.fuClass();
    const bool isMem = fu == isa::FuClass::Load || fu == isa::FuClass::Store;
    if (isMem && iqMem_.full())
        return RenameOutcome::IqFull;
    if (!isMem && fu != isa::FuClass::None && iqInt_.full())
        return RenameOutcome::IqFull;
    if (si.isLoad() && lsq_.loadQueueFull())
        return RenameOutcome::LsqFull;
    if (si.isStore() && lsq_.storeQueueFull())
        return RenameOutcome::LsqFull;
    if (si.hasRd()) {
        // Policy (5): under free-list pressure reclaim the least
        // recent squashed stream before stalling.
        while (freeList_.empty()) {
            ++renameStallFreeList_;
            if (reuse_ && reuse_->reclaimLeastRecentStream())
                continue;
            if (ri_ && ri_->reclaimOne())
                continue;
            return RenameOutcome::FreeListEmpty;
        }
    }

    // Source renaming (with implicit intra-bundle bypass: the RAT is
    // updated per instruction within the cycle).
    if (si.hasRs1()) {
        inst->src[0] = rat_.preg(si.rs1);
        inst->srcRgid[0] = rat_.rgid(si.rs1);
    }
    if (si.hasRs2()) {
        inst->src[1] = rat_.preg(si.rs2);
        inst->srcRgid[1] = rat_.rgid(si.rs2);
    }

    // Reuse test / integration attempt.
    bool reused = false;
    bool needVerify = false;
    PhysReg reusedPreg = InvalidPhysReg;
    Rgid reusedRgid = 0;
    Addr reusedAddr = 0;
    if (reuse_) {
        Rgid cur[2] = {0, 0};
        unsigned n = 0;
        if (si.hasRs1())
            cur[n++] = inst->srcRgid[0];
        if (si.hasRs2())
            cur[n++] = inst->srcRgid[1];
        const ReuseAdvice advice = reuse_->processRename(inst, cur, cycle_);
        reused = advice.reuse;
        needVerify = advice.needVerify;
        reusedPreg = advice.destPreg;
        reusedRgid = advice.dstRgid;
        reusedAddr = advice.memAddr;
    } else if (ri_) {
        PhysReg cur[2] = {InvalidPhysReg, InvalidPhysReg};
        unsigned n = 0;
        if (si.hasRs1())
            cur[n++] = inst->src[0];
        if (si.hasRs2())
            cur[n++] = inst->src[1];
        // Serialized-access model (section 3.7.3): a source produced
        // by an integration earlier in this bundle makes this lookup
        // chained; only `ways` chained lookups resolve per cycle.
        bool chained = false;
        for (unsigned i = 0; i < n; ++i)
            for (PhysReg dst : riBundleDsts_)
                chained |= cur[i] == dst;
        if (chained && cfg_.regint.modelSerializedAccess &&
            riChainedThisCycle_ >= cfg_.regint.ways) {
            ++riChainBlocked_;
        } else {
            const IntegrationAdvice advice = ri_->tryIntegrate(inst, cur);
            reused = advice.reuse;
            needVerify = advice.needVerify;
            reusedPreg = advice.destPreg;
            reusedAddr = advice.memAddr;
            if (reused) {
                riBundleDsts_.push_back(reusedPreg);
                if (chained)
                    ++riChainedThisCycle_;
            }
        }
    }

    if (reused) {
        mssr_assert(si.hasRd());
        inst->oldDst = rat_.preg(si.rd);
        inst->oldDstRgid = rat_.rgid(si.rd);
        inst->dst = reusedPreg;
        inst->dstRgid = reusedRgid;
        rat_.set(si.rd, reusedPreg, reusedRgid);
        writeReg(reusedPreg, regs_.value(reusedPreg));
        inst->result = regs_.value(reusedPreg);
        inst->reusedValue = inst->result;
        inst->reused = true;
        inst->executed = true;
        inst->completed = true;
        if (si.isLoad()) {
            inst->memAddr = reusedAddr;
            lsq_.insertLoad(inst);
            lsq_.loadExecuted(inst, reusedAddr, si.memBytes());
            if (needVerify) {
                inst->verifyPending = true;
                dispatch(iqMem_, inst);
            }
        }
    } else {
        if (si.hasRd()) {
            const PhysReg dst = freeList_.alloc();
            if (ri_)
                ri_->onPregReallocated(dst);
            inst->oldDst = rat_.preg(si.rd);
            inst->oldDstRgid = rat_.rgid(si.rd);
            inst->dst = dst;
            inst->dstRgid = reuse_ ? reuse_->allocDstRgid(si.rd) : 0;
            rat_.set(si.rd, dst, inst->dstRgid);
            regs_.markNotReady(dst);
        }
        switch (fu) {
          case isa::FuClass::None:
            inst->completed = true; // NOP/HALT
            break;
          case isa::FuClass::Load:
            lsq_.insertLoad(inst);
            dispatch(iqMem_, inst);
            break;
          case isa::FuClass::Store:
            lsq_.insertStore(inst);
            dispatch(iqMem_, inst);
            break;
          default:
            dispatch(iqInt_, inst);
            break;
        }
    }

    if (probe_)
        probe_->emit({.kind = ProbeKind::Rename,
                      .reuse = inst->reused
                                   ? (inst->verifyPending
                                          ? ReuseOutcome::ReusedNeedVerify
                                          : ReuseOutcome::Reused)
                                   : ReuseOutcome::None,
                      .seq = inst->seq, .pc = inst->pc, .arg = inst->dst});
    rob_.push(inst);
    return RenameOutcome::Renamed;
}

void
O3Cpu::renameStage()
{
    riBundleDsts_.clear();
    riChainedThisCycle_ = 0;
    unsigned n = 0;
    RenameOutcome stall = RenameOutcome::Renamed;
    while (n < cfg_.core.decodeWidth && !frontPipe_.empty() &&
           frontPipe_.front().ready <= cycle_) {
        const DynInstPtr &inst = frontPipe_.front().inst;
        stall = renameOne(inst);
        if (stall != RenameOutcome::Renamed)
            break;
        // Slot accounting: a dispatched slot is either normal work or
        // work salvaged from a squashed stream.
        cpi_.charge(inst->reused ? CpiCat::ReuseSalvaged : CpiCat::Base);
        frontPipe_.popFront();
        ++n;
    }

    // Charge this cycle's unused dispatch slots to their blocking
    // cause so the stack always sums to cycles x decodeWidth: a
    // structural stall names the structure; an empty frontend within
    // a squash's refill shadow is that squash's penalty; anything
    // else is plain frontend starvation.
    if (n < cfg_.core.decodeWidth) {
        CpiCat cat = CpiCat::FrontendStarved;
        switch (stall) {
          case RenameOutcome::FreeListEmpty:
            cat = CpiCat::FreeListStall;
            break;
          case RenameOutcome::RobFull:
          case RenameOutcome::IqFull:
          case RenameOutcome::LsqFull:
            cat = CpiCat::Backpressure;
            break;
          case RenameOutcome::Renamed:
            if (n == 0 && recoveryReason_ != SquashReason::None) {
                cat = recoveryReason_ == SquashReason::BranchMispredict
                          ? CpiCat::BranchRecovery
                          : CpiCat::FlushRecovery;
                // Mirror of the CPI-stack recovery charge below, so
                // per-PC recovery slots reconcile with it exactly.
                if (probe_)
                    probe_->emit({.kind = ProbeKind::RecoverySlots,
                                  .squash = recoveryReason_,
                                  .pc = recoveryCausePC_,
                                  .arg = cfg_.core.decodeWidth});
            }
            break;
        }
        cpi_.charge(cat, cfg_.core.decodeWidth - n);
    }
    // The corrected path reached rename: the refill shadow is over.
    if (n > 0)
        recoveryReason_ = SquashReason::None;
}

void
O3Cpu::fetchStage()
{
    static const isa::Inst nopInst{}; // wrong-path fetch outside code
    unsigned n = 0;
    while (n < cfg_.core.decodeWidth) {
        const PredBlock *blk = ftq_.fetchHead();
        if (!blk)
            break;
        const Addr pc = blk->startPC + ftq_.fetchOffset() * InstBytes;

        DynInstPtr inst = pool_.acquire();
        inst->seq = nextSeq_++;
        inst->pc = pc;
        inst->si = prog_.hasInst(pc) ? prog_.instAt(pc) : nopInst;
        inst->ftqId = blk->id;
        inst->predNext = pc + InstBytes;
        for (const BranchInfo &info : blk->branches) {
            if (info.pc == pc) {
                inst->hasBranchInfo = true;
                inst->branchInfo = info;
                if (info.predTaken)
                    inst->predNext = info.predTarget;
                break;
            }
        }
        ftq_.advanceFetch(1);
        if (probe_)
            probe_->emit({.kind = ProbeKind::Fetch, .seq = inst->seq,
                          .pc = pc,
                          .aux = cycle_ + cfg_.core.frontendStages});
        const bool halt = inst->si.isHalt();
        frontPipe_.pushBack(
            FrontSlot{std::move(inst), cycle_ + cfg_.core.frontendStages});
        ++fetched_;
        ++n;
        if (halt)
            break; // nothing beyond a fetched halt
    }
}

void
O3Cpu::bpuStage()
{
    if (bpuStalled_ || ftq_.full())
        return;
    PredBlock &block = ftq_.allocate();
    bpu_.formBlock(block);
    if (reuse_)
        reuse_->onBlockFormed(block);
    // Stall once a halt enters the block: there is no control flow
    // beyond it until a redirect proves this path wrong.
    const Addr end = block.endPC;
    if (prog_.hasInst(end) && prog_.instAt(end).isHalt())
        bpuStalled_ = true;
}

void
O3Cpu::applySquash()
{
    const PendingSquash squash = std::exchange(pendingSquash_, {});
    mssr_assert(squash.valid);
    ++squashEvents_;

    // 1. ROB walk (youngest first): rename rollback.
    std::vector<DynInstPtr> &squashed = squashBuf_;
    rob_.squashAfter(squash.afterSeq, [&](DynInstPtr &inst) {
        inst->squashed = true;
        if (inst->si.hasRd())
            rat_.set(inst->si.rd, inst->oldDst, inst->oldDstRgid);
        squashed.push_back(std::move(inst));
    });
    std::reverse(squashed.begin(), squashed.end()); // oldest first

    // 2. Backend structures.
    iqInt_.squashAfter(squash.afterSeq);
    iqMem_.squashAfter(squash.afterSeq);
    lsq_.squashAfter(squash.afterSeq);

    // 3. Frontend pipe: everything in flight is younger than the ROB.
    // Both squashed populations (ROB walk + frontend pipe) are
    // reported, so per-instruction squashes reconcile with
    // squashedInsts_.
    const std::uint64_t killed = squashed.size() + frontPipe_.size();
    squashedInsts_ += killed;
    if (probe_) {
        probe_->emit({.kind = ProbeKind::Squash, .squash = squash.reason,
                      .seq = squash.cause->seq, .pc = squash.cause->pc,
                      .arg = squash.redirectPC, .aux = killed});
        auto killedInst = [&](const DynInstPtr &inst) {
            probe_->emit({.kind = ProbeKind::SquashInst,
                          .squash = squash.reason, .seq = inst->seq});
        };
        std::for_each(squashed.begin(), squashed.end(), killedInst);
        for (const FrontSlot &slot : frontPipe_)
            killedInst(slot.inst);
    }
    frontPipe_.clear();

    // 4. FTQ squash (also feeds the retire bookkeeping).
    ftq_.squashAfter(squash.cause->ftqId, squash.cause->pc);

    // 5. Physical-register disposition and wrong-path capture.
    if (reuse_) {
        if (squash.reason == SquashReason::BranchMispredict) {
            reuse_->onBranchSquash(squash.cause->seq, squashed, cycle_,
                                   squash.cause->pc);
        } else {
            reuse_->onOtherSquash(
                squashed, squash.reason == SquashReason::ReuseVerifyFail);
        }
    } else if (ri_) {
        if (squash.reason == SquashReason::BranchMispredict) {
            ri_->onBranchSquash(squashed);
        } else {
            ri_->onOtherSquash(squashed,
                               squash.reason ==
                                   SquashReason::ReuseVerifyFail);
        }
    } else {
        for (const auto &inst : squashed)
            if (inst->si.hasRd())
                freeList_.release(inst->dst);
    }

    // 6. Frontend redirect with speculative-state repair.
    if (squash.reason == SquashReason::BranchMispredict) {
        mssr_assert(squash.cause->hasBranchInfo,
                    "mispredicted branch without prediction metadata");
        bpu_.redirect(squash.cause->branchInfo, squash.cause->actualTaken,
                      squash.redirectPC, squash.cause->si);
    } else {
        // Repair speculative history to before the oldest squashed
        // control instruction, then redirect.
        for (const auto &inst : squashed) {
            if (inst->hasBranchInfo) {
                bpu_.repairTo(inst->branchInfo);
                break;
            }
        }
        bpu_.redirectSimple(squash.redirectPC);
    }
    bpuStalled_ = false;
    // Dispatch slots lost while the frontend refills from the
    // redirect are this squash's recovery penalty (CPI stack), and
    // the profiler charges them to the same causing PC.
    recoveryReason_ = squash.reason;
    recoveryCausePC_ = squash.cause->pc;
    squashed.clear();
}

void
O3Cpu::tick()
{
    if (probe_)
        probe_->setCycle(cycle_);
    commitStage();
    if (halted_)
        return;
    writebackStage();
    issueStage();
    renameStage();
    fetchStage();
    bpuStage();
    if (pendingSquash_.valid)
        applySquash();
    ++cycle_;

    if (cycle_ - lastCommitCycle_ > 200000)
        panic("no commit progress for 200000 cycles at cycle ", cycle_,
              " pc(head)=", rob_.empty() ? 0 : rob_.head()->pc);
}

void
O3Cpu::run()
{
    while (!halted_)
        tick();
}

ReuseFunnel
O3Cpu::funnel() const
{
    ReuseFunnel f = reuse_ ? reuse_->funnel() : ReuseFunnel{};
    f.squashed = squashedInsts_;
    f.verifyOk = verifyOk_;
    f.verifyFail = verifyFailFlushes_;
    return f;
}

StatSet
O3Cpu::stats() const
{
    StatSet out;
    out.set("core.cycles", static_cast<double>(cycle_));
    out.set("core.committedInsts", static_cast<double>(commits_));
    out.set("core.ipc", ipc());
    out.set("core.fetchedInsts", static_cast<double>(fetched_));
    out.set("core.squashedInsts", static_cast<double>(squashedInsts_));
    out.set("core.squashEvents", static_cast<double>(squashEvents_));
    out.set("core.branchMispredicts",
            static_cast<double>(branchMispredicts_));
    out.set("core.condBranchesCommitted",
            static_cast<double>(condBranchesCommitted_));
    out.set("core.condMispredictsCommitted",
            static_cast<double>(condMispredictsCommitted_));
    out.set("core.condMispredictRate",
            condBranchesCommitted_ == 0
                ? 0.0
                : static_cast<double>(condMispredictsCommitted_) /
                      static_cast<double>(condBranchesCommitted_));
    out.set("core.memOrderFlushes", static_cast<double>(memOrderFlushes_));
    out.set("core.verifyFailFlushes",
            static_cast<double>(verifyFailFlushes_));
    out.set("core.verifyOk", static_cast<double>(verifyOk_));
    out.set("core.renameStallFreeList",
            static_cast<double>(renameStallFreeList_));
    out.set("core.loadsExecuted", static_cast<double>(loadsExecuted_));
    out.set("core.storesCommitted", static_cast<double>(storesCommitted_));
    out.set("core.riChainBlocked", static_cast<double>(riChainBlocked_));
    // CPI stack: per-category dispatch slots; they sum exactly to
    // core.cycles x decodeWidth (ctest-enforced).
    for (std::size_t i = 0; i < NumCpiCats; ++i) {
        out.set(std::string("cpi.") + cpiCatKey(static_cast<CpiCat>(i)),
                static_cast<double>(cpi_.slots[i]));
    }
    // Reuse funnel: stage counts and kill reasons.
    const ReuseFunnel f = funnel();
    for (std::size_t i = 0; i < ReuseFunnel::NumStages; ++i) {
        out.set(std::string("funnel.") + ReuseFunnel::stageKey(i),
                static_cast<double>(f.stage(i)));
    }
    out.set("funnel.killKind", static_cast<double>(f.killKind));
    out.set("funnel.killNotExecuted",
            static_cast<double>(f.killNotExecuted));
    out.set("funnel.killRgid", static_cast<double>(f.killRgid));
    out.set("funnel.killRgidCapacity",
            static_cast<double>(f.killRgidCapacity));
    out.set("funnel.killBloom", static_cast<double>(f.killBloom));
    out.set("funnel.verifyOk", static_cast<double>(f.verifyOk));
    out.set("funnel.verifyFail", static_cast<double>(f.verifyFail));
    hierarchy_.reportStats(out);
    bpu_.reportStats(out);
    if (reuse_)
        reuse_->reportStats(out);
    if (ri_)
        ri_->reportStats(out);
    return out;
}

} // namespace mssr
