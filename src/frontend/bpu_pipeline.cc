#include "frontend/bpu_pipeline.hh"

#include "bpu/bimodal.hh"
#include "bpu/gshare.hh"
#include "bpu/tage_sc_l.hh"
#include "common/log.hh"

namespace mssr
{

namespace
{

std::unique_ptr<DirPredictor>
makePredictor(const CoreConfig &cfg)
{
    switch (cfg.predictor) {
      case BranchPredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>();
      case BranchPredictorKind::Gshare:
        return std::make_unique<GsharePredictor>();
      case BranchPredictorKind::TageScL:
        return std::make_unique<TageScLPredictor>();
    }
    panic("unknown predictor kind");
}

} // namespace

BpuPipeline::BpuPipeline(const CoreConfig &cfg, const isa::Program &prog)
    : blockInsts_(cfg.fetchBlockBytes / InstBytes),
      prog_(prog),
      predictor_(makePredictor(cfg)),
      btb_(cfg.btbEntries, 4),
      ras_(cfg.rasEntries),
      fetchPC_(prog.entry())
{
    mssr_assert(cfg.fetchBlockBytes >= InstBytes &&
                    cfg.fetchBlockBytes / InstBytes <= MaxBlockInsts,
                "fetchBlockBytes ", cfg.fetchBlockBytes,
                " outside [", InstBytes, ", ", MaxBlockInsts * InstBytes,
                "]");
}

BpuPipeline::BpuPipeline(const BpuPipeline &other)
    : blockInsts_(other.blockInsts_),
      prog_(other.prog_),
      predictor_(other.predictor_->clone()),
      btb_(other.btb_),
      ras_(other.ras_),
      fetchPC_(other.fetchPC_),
      nextBlockId_(other.nextBlockId_),
      blocksFormed_(other.blocksFormed_),
      condPredictions_(other.condPredictions_)
{
}

bool
BpuPipeline::isCall(const isa::Inst &inst)
{
    return inst.isJump() && inst.rd == 1; // link into ra
}

bool
BpuPipeline::isRet(const isa::Inst &inst)
{
    return inst.op == isa::Op::JALR && inst.rd == 0 && inst.rs1 == 1;
}

void
BpuPipeline::formBlock(PredBlock &block)
{
    block.id = nextBlockId_++;
    block.startPC = fetchPC_;
    block.branches.clear();
    ++blocksFormed_;

    const unsigned maxInsts = blockInsts_;
    Addr pc = fetchPC_;
    Addr next = fetchPC_;
    for (unsigned i = 0; i < maxInsts; ++i, pc += InstBytes) {
        block.endPC = pc;
        next = pc + InstBytes;
        if (!prog_.hasInst(pc)) {
            // Wrong-path fetch outside the code image: synthesize NOPs
            // to the fetch limit; an elder squash will clean this up.
            continue;
        }
        const isa::Inst &inst = prog_.instAt(pc);
        if (inst.isHalt()) {
            // Stop block formation; fetch will stall on halt.
            break;
        }
        if (!inst.isControl())
            continue;

        BranchInfo info;
        info.pc = pc;
        info.isCond = inst.isCondBranch();
        info.predSnap = predictor_->snapshot();
        info.rasSnap = ras_.snapshot();

        if (inst.isCondBranch()) {
            ++condPredictions_;
            info.predTaken = predictor_->predict(pc);
            info.predTarget = isa::evalTarget(inst, pc, 0);
            predictor_->specUpdate(pc, info.predTaken);
        } else if (inst.op == isa::Op::JAL) {
            info.predTaken = true;
            info.predTarget = isa::evalTarget(inst, pc, 0);
        } else { // JALR
            info.predTaken = true;
            if (isRet(inst)) {
                info.predTarget = ras_.pop();
            } else if (auto target = btb_.lookup(pc)) {
                info.predTarget = *target;
            } else {
                info.predTarget = pc + InstBytes; // no idea: fall through
            }
        }
        if (isCall(inst))
            ras_.push(pc + InstBytes);

        block.branches.pushBack(info);
        if (info.predTaken) {
            next = info.predTarget;
            break;
        }
    }
    block.nextPC = next;
    fetchPC_ = next;
}

void
BpuPipeline::redirect(const BranchInfo &branch, bool actual_taken,
                      Addr target, const isa::Inst &inst)
{
    predictor_->restore(branch.predSnap);
    ras_.restore(branch.rasSnap);
    if (inst.isCondBranch())
        predictor_->specUpdate(branch.pc, actual_taken);
    if (isRet(inst))
        ras_.pop();
    if (isCall(inst))
        ras_.push(branch.pc + InstBytes);
    fetchPC_ = target;
}

void
BpuPipeline::redirectSimple(Addr target)
{
    fetchPC_ = target;
}

void
BpuPipeline::repairTo(const BranchInfo &branch)
{
    predictor_->restore(branch.predSnap);
    ras_.restore(branch.rasSnap);
}

void
BpuPipeline::commitControl(Addr pc, const isa::Inst &inst, bool taken,
                           Addr target)
{
    if (inst.isCondBranch())
        predictor_->commitUpdate(pc, taken);
    if (inst.op == isa::Op::JALR && taken)
        btb_.update(pc, target);
}

void
BpuPipeline::reportStats(StatSet &stats) const
{
    stats.set("bpu.blocksFormed", static_cast<double>(blocksFormed_));
    stats.set("bpu.condPredictions", static_cast<double>(condPredictions_));
}

} // namespace mssr
