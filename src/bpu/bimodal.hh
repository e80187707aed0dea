/**
 * @file
 * Bimodal predictor: PC-indexed table of 2-bit saturating counters.
 * Serves as the Table 3 next-line predictor and the TAGE base table.
 */

#ifndef MSSR_BPU_BIMODAL_HH
#define MSSR_BPU_BIMODAL_HH

#include <vector>

#include "bpu/predictor.hh"

namespace mssr
{

class BimodalPredictor : public DirPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries = 16384);

    bool predict(Addr pc) override;
    void specUpdate(Addr pc, bool taken) override {}
    PredSnapshot snapshot() const override { return {}; }
    void restore(const PredSnapshot &snap) override {}
    void commitUpdate(Addr pc, bool taken) override;

    std::unique_ptr<DirPredictor>
    clone() const override
    {
        return std::make_unique<BimodalPredictor>(*this);
    }

  private:
    std::size_t index(Addr pc) const;

    std::vector<std::uint8_t> counters_;
};

} // namespace mssr

#endif // MSSR_BPU_BIMODAL_HH
