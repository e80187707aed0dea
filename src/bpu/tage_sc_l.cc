#include "bpu/tage_sc_l.hh"

namespace mssr
{

TageScLPredictor::TageScLPredictor(const TageConfig &cfg)
    : tage_(cfg), sc_([this](unsigned len, unsigned bits) {
          return tage_.addFold(len, bits);
      })
{
}

bool
TageScLPredictor::predict(Addr pc)
{
    const auto loopPred = loop_.predict(pc);
    if (loopPred.valid)
        return loopPred.taken;
    const TageLookup look =
        tage_.lookup(pc, TagePredictor::History::Speculative);
    if (sc_.shouldRevert(pc, look.pred, look.weak, tage_.specHist()))
        return !look.pred;
    return look.pred;
}

void
TageScLPredictor::specUpdate(Addr pc, bool taken)
{
    loop_.specUpdate(pc, taken);
    tage_.specUpdate(pc, taken);
}

PredSnapshot
TageScLPredictor::snapshot() const
{
    return tage_.snapshot();
}

void
TageScLPredictor::restore(const PredSnapshot &snap)
{
    tage_.restore(snap);
    loop_.squash();
}

void
TageScLPredictor::commitUpdate(Addr pc, bool taken)
{
    const TageLookup look =
        tage_.lookup(pc, TagePredictor::History::Retired);
    sc_.train(pc, look.pred, taken, tage_.retiredHist());
    loop_.commitUpdate(pc, taken);
    tage_.train(pc, taken, look);
    tage_.advanceRetired(taken);
}

} // namespace mssr
