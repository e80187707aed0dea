/**
 * @file
 * Gshare predictor: global history XOR PC indexes a table of 2-bit
 * counters. Provided as a mid-tier baseline between bimodal and TAGE.
 */

#ifndef MSSR_BPU_GSHARE_HH
#define MSSR_BPU_GSHARE_HH

#include <vector>

#include "bpu/predictor.hh"

namespace mssr
{

class GsharePredictor : public DirPredictor
{
  public:
    explicit GsharePredictor(unsigned entries = 65536,
                             unsigned hist_bits = 16);

    bool predict(Addr pc) override;
    void specUpdate(Addr pc, bool taken) override;
    PredSnapshot snapshot() const override;
    void restore(const PredSnapshot &snap) override;
    void commitUpdate(Addr pc, bool taken) override;

    std::unique_ptr<DirPredictor>
    clone() const override
    {
        return std::make_unique<GsharePredictor>(*this);
    }

  private:
    std::size_t index(Addr pc, std::uint64_t hist) const;

    std::vector<std::uint8_t> counters_;
    unsigned histBits_;
    std::uint64_t specHist_ = 0;
    std::uint64_t retiredHist_ = 0;
};

} // namespace mssr

#endif // MSSR_BPU_GSHARE_HH
