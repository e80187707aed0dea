/**
 * @file
 * Statistical corrector (the "SC" of TAGE-SC-L): a small GEHL-style
 * bank of signed counters that can revert weak TAGE predictions when
 * they disagree statistically with PC/history-indexed counters.
 */

#ifndef MSSR_BPU_STATISTICAL_CORRECTOR_HH
#define MSSR_BPU_STATISTICAL_CORRECTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "bpu/predictor.hh"

namespace mssr
{

class StatisticalCorrector
{
  public:
    /** Registers one history fold, (hist_len, out_bits) -> slot. */
    using AddFold = std::function<unsigned(unsigned, unsigned)>;

    /**
     * @param add_fold registers each history fold the corrector reads,
     *        e.g. GlobalHistory::addFold or TagePredictor::addFold;
     *        every history passed in afterwards is read by the returned
     *        slots (GlobalHistory::folded).
     * @param table_bits log2 entries per table.
     * @param hist_lens history length per table (0 = bias table).
     */
    explicit StatisticalCorrector(
        const AddFold &add_fold, unsigned table_bits = 10,
        std::vector<unsigned> hist_lens = {0, 8, 16, 32});

    /**
     * Computes the corrector sum for (pc, tage_pred). Positive sums
     * agree with @p tage_pred.
     */
    int confidence(Addr pc, bool tage_pred, const GlobalHistory &hist) const;

    /** True when the corrector says to invert a weak TAGE prediction. */
    bool
    shouldRevert(Addr pc, bool tage_pred, bool tage_weak,
                 const GlobalHistory &hist) const
    {
        if (!tage_weak)
            return false;
        return confidence(pc, tage_pred, hist) < -threshold_;
    }

    /** Trains the counters toward the retired outcome. */
    void train(Addr pc, bool tage_pred, bool taken,
               const GlobalHistory &hist);

  private:
    std::size_t index(Addr pc, bool tage_pred, const GlobalHistory &hist,
                      unsigned table) const;

    unsigned tableBits_;
    std::vector<unsigned> histLens_;
    std::vector<unsigned> foldSlots_;  //!< per table; unused for bias
    /** 6-bit signed counters; table t's entry i is at
     *  (t << tableBits_) | i. */
    std::vector<std::int8_t> tables_;
    int threshold_ = 5;
};

} // namespace mssr

#endif // MSSR_BPU_STATISTICAL_CORRECTOR_HH
