/**
 * @file
 * Block-forming branch prediction pipeline (decoupled frontend in the
 * style of XiangShan, paper section 3.3.1). Each call produces one
 * prediction block: instructions are scanned from the current fetch
 * target; conditional branches consult the direction predictor, JALR
 * consults RAS/BTB; the block ends at the first predicted-taken
 * control instruction or at the 32-byte fetch limit.
 */

#ifndef MSSR_FRONTEND_BPU_PIPELINE_HH
#define MSSR_FRONTEND_BPU_PIPELINE_HH

#include <memory>

#include "bpu/btb.hh"
#include "bpu/predictor.hh"
#include "bpu/ras.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "frontend/pred_block.hh"
#include "isa/program.hh"

namespace mssr
{

class BpuPipeline
{
  public:
    /** Panics unless a block of cfg.fetchBlockBytes fits a PredBlock. */
    BpuPipeline(const CoreConfig &cfg, const isa::Program &prog);

    /**
     * A copy that shares nothing with @p other but the program: its
     * own predictor (DirPredictor::clone), BTB, RAS and fetch target.
     */
    BpuPipeline(const BpuPipeline &other);
    BpuPipeline(BpuPipeline &&) = default;

    /**
     * Forms the next prediction block at the current fetch target into
     * @p block, overwriting every field (the FTQ hands out its tail
     * slot as is).
     */
    void formBlock(PredBlock &block);

    /** Current fetch target (start PC of the next block). */
    Addr fetchTarget() const { return fetchPC_; }

    /**
     * Redirects the frontend after a misprediction: restores the
     * predictor/RAS state captured before @p branch, applies the actual
     * outcome, and points the fetch target at @p target.
     */
    void redirect(const BranchInfo &branch, bool actual_taken, Addr target,
                  const isa::Inst &inst);

    /** Redirects to @p target without branch repair (flush/violation). */
    void redirectSimple(Addr target);

    /**
     * Restores speculative predictor and RAS state to just before
     * @p branch was predicted, without applying an outcome (used when
     * a non-branch flush squashes speculatively-predicted branches).
     */
    void repairTo(const BranchInfo &branch);

    /** Trains predictor/BTB with a retired control instruction. */
    void commitControl(Addr pc, const isa::Inst &inst, bool taken,
                       Addr target);

    DirPredictor &predictor() { return *predictor_; }

    void reportStats(StatSet &stats) const;

  private:
    /** True when @p inst pushes a return address (call). */
    static bool isCall(const isa::Inst &inst);
    /** True when @p inst pops a return address (return). */
    static bool isRet(const isa::Inst &inst);

    unsigned blockInsts_;          //!< instructions per fetch block
    const isa::Program &prog_;
    std::unique_ptr<DirPredictor> predictor_;
    Btb btb_;
    Ras ras_;
    Addr fetchPC_;
    std::uint64_t nextBlockId_ = 1;

    std::uint64_t blocksFormed_ = 0;
    std::uint64_t condPredictions_ = 0;
};

} // namespace mssr

#endif // MSSR_FRONTEND_BPU_PIPELINE_HH
