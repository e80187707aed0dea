#include "bpu/statistical_corrector.hh"

#include <algorithm>

#include "common/log.hh"

namespace mssr
{

StatisticalCorrector::StatisticalCorrector(const AddFold &add_fold,
                                           unsigned table_bits,
                                           std::vector<unsigned> hist_lens)
    : tableBits_(table_bits), histLens_(std::move(hist_lens)),
      tables_(histLens_.size() << tableBits_, 0)
{
    for (unsigned len : histLens_)
        foldSlots_.push_back(len > 0 ? add_fold(len, tableBits_) : 0);
}

std::size_t
StatisticalCorrector::index(Addr pc, bool tage_pred,
                            const GlobalHistory &hist, unsigned table) const
{
    const std::uint64_t pcbits = pc / InstBytes;
    std::uint64_t idx = pcbits ^ (pcbits >> tableBits_) ^
                        (tage_pred ? 0x155 : 0) ^
                        (std::uint64_t(table) * 0x9e3);
    if (histLens_[table] > 0)
        idx ^= hist.folded(foldSlots_[table]);
    return (std::size_t(table) << tableBits_) | (idx & mask(tableBits_));
}

int
StatisticalCorrector::confidence(Addr pc, bool tage_pred,
                                 const GlobalHistory &hist) const
{
    int sum = 0;
    for (unsigned t = 0; t < histLens_.size(); ++t)
        sum += 2 * tables_[index(pc, tage_pred, hist, t)] + 1;
    return sum;
}

void
StatisticalCorrector::train(Addr pc, bool tage_pred, bool taken,
                            const GlobalHistory &hist)
{
    // Counters learn "does the outcome agree with the TAGE prediction".
    const bool agree = taken == tage_pred;
    for (unsigned t = 0; t < histLens_.size(); ++t) {
        std::int8_t &ctr = tables_[index(pc, tage_pred, hist, t)];
        ctr = static_cast<std::int8_t>(agree ? std::min(ctr + 1, 31)
                                             : std::max(ctr - 1, -32));
    }
}

} // namespace mssr
