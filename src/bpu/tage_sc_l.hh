/**
 * @file
 * TAGE-SC-L composite predictor (Table 3's main branch predictor):
 * TAGE provides the primary prediction, the loop predictor overrides
 * for confidently-learned loops, and the statistical corrector can
 * revert weak TAGE predictions.
 */

#ifndef MSSR_BPU_TAGE_SC_L_HH
#define MSSR_BPU_TAGE_SC_L_HH

#include "bpu/loop_predictor.hh"
#include "bpu/predictor.hh"
#include "bpu/statistical_corrector.hh"
#include "bpu/tage.hh"

namespace mssr
{

class TageScLPredictor : public DirPredictor
{
  public:
    explicit TageScLPredictor(const TageConfig &cfg = TageConfig());

    bool predict(Addr pc) override;
    void specUpdate(Addr pc, bool taken) override;
    PredSnapshot snapshot() const override;
    void restore(const PredSnapshot &snap) override;
    void commitUpdate(Addr pc, bool taken) override;

    std::unique_ptr<DirPredictor>
    clone() const override
    {
        return std::make_unique<TageScLPredictor>(*this);
    }

  private:
    TagePredictor tage_;
    LoopPredictor loop_;
    StatisticalCorrector sc_;  //!< after tage_: its folds live there
};

} // namespace mssr

#endif // MSSR_BPU_TAGE_SC_L_HH
