#include "bpu/tage.hh"

#include "common/log.hh"

namespace mssr
{

TagePredictor::TagePredictor(const TageConfig &cfg)
    : cfg_(cfg), base_(cfg.baseEntries, 1)
{
    mssr_assert(isPow2(cfg.baseEntries));
    mssr_assert(!cfg.histLens.empty());
    mssr_assert(cfg.histLens.size() <= TageLookup::MaxTables,
                "TAGE supports at most ", TageLookup::MaxTables,
                " tagged tables");
    tables_.resize(cfg_.histLens.size());
    for (auto &table : tables_)
        table.resize(std::size_t(1) << cfg_.tableBits);
    for (unsigned len : cfg_.histLens)
        foldSlots_.push_back(FoldSlots{addFold(len, cfg_.tableBits),
                                       addFold(len, cfg_.tagBits),
                                       addFold(len, cfg_.tagBits - 1)});
}

unsigned
TagePredictor::addFold(unsigned hist_len, unsigned out_bits)
{
    const unsigned slot = specHist_.addFold(hist_len, out_bits);
    const unsigned retiredSlot = retiredHist_.addFold(hist_len, out_bits);
    mssr_assert(slot == retiredSlot, "history fold slots diverged");
    return slot;
}

std::uint32_t
TagePredictor::tableIndex(Addr pc, const GlobalHistory &hist,
                          unsigned table) const
{
    const std::uint64_t folded = hist.folded(foldSlots_[table].index);
    const std::uint64_t pcbits = pc / InstBytes;
    return static_cast<std::uint32_t>(
        (pcbits ^ (pcbits >> cfg_.tableBits) ^ folded ^
         (std::uint64_t(table) * 0x9e37)) & mask(cfg_.tableBits));
}

std::uint16_t
TagePredictor::tableTag(Addr pc, const GlobalHistory &hist,
                        unsigned table) const
{
    const std::uint64_t folded = hist.folded(foldSlots_[table].tag);
    const std::uint64_t folded2 = hist.folded(foldSlots_[table].tag2) << 1;
    const std::uint64_t pcbits = pc / InstBytes;
    return static_cast<std::uint16_t>(
        (pcbits ^ folded ^ folded2) & mask(cfg_.tagBits));
}

TageLookup
TagePredictor::lookup(Addr pc, History which) const
{
    const GlobalHistory &hist =
        which == History::Retired ? retiredHist_ : specHist_;
    TageLookup look;
    const unsigned n = static_cast<unsigned>(tables_.size());
    look.baseIndex = (pc / InstBytes) & (base_.size() - 1);

    for (unsigned t = 0; t < n; ++t) {
        look.indices[t] = tableIndex(pc, hist, t);
        look.tags[t] = tableTag(pc, hist, t);
    }
    // Longest-history match provides; next match is the alternate.
    for (int t = static_cast<int>(n) - 1; t >= 0; --t) {
        const Entry &e = tables_[t][look.indices[t]];
        if (e.tag == look.tags[t]) {
            if (look.provider < 0) {
                look.provider = t;
            } else {
                look.alt = t;
                break;
            }
        }
    }

    const bool basePred = base_[look.baseIndex] >= 2;
    look.altPred = look.alt >= 0
        ? tables_[look.alt][look.indices[look.alt]].ctr >= 0
        : basePred;
    if (look.provider >= 0) {
        const Entry &e = tables_[look.provider][look.indices[look.provider]];
        look.providerPred = e.ctr >= 0;
        look.weak = e.ctr == 0 || e.ctr == -1;
        // Newly-allocated weak entries may be less reliable than the
        // alternate prediction (use_alt_on_na policy).
        const bool newlyAllocated = look.weak && e.useful == 0;
        look.pred = (newlyAllocated && useAltOnNa_ >= 0) ? look.altPred
                                                         : look.providerPred;
    } else {
        look.providerPred = basePred;
        look.altPred = basePred;
        look.pred = basePred;
        look.weak = base_[look.baseIndex] == 1 || base_[look.baseIndex] == 2;
    }
    return look;
}

bool
TagePredictor::predict(Addr pc)
{
    return lookup(pc, History::Speculative).pred;
}

void
TagePredictor::specUpdate(Addr pc, bool taken)
{
    specHist_.shift(taken);
}

PredSnapshot
TagePredictor::snapshot() const
{
    PredSnapshot snap;
    for (unsigned i = 0; i < 4; ++i)
        snap.words[i] = specHist_.word(i);
    return snap;
}

void
TagePredictor::restore(const PredSnapshot &snap)
{
    specHist_.setWords(
        {snap.words[0], snap.words[1], snap.words[2], snap.words[3]});
}

void
TagePredictor::train(Addr pc, bool taken, const TageLookup &look)
{
    auto bumpSigned = [](std::int8_t &ctr, bool up, int lo, int hi) {
        if (up) {
            if (ctr < hi)
                ++ctr;
        } else {
            if (ctr > lo)
                --ctr;
        }
    };

    const bool mispredicted = look.pred != taken;

    if (look.provider >= 0) {
        Entry &e = tables_[look.provider][look.indices[look.provider]];
        // use_alt_on_na bookkeeping: when the provider was newly
        // allocated and provider/alt disagree, learn which was right.
        const bool newlyAllocated =
            (e.ctr == 0 || e.ctr == -1) && e.useful == 0;
        if (newlyAllocated && look.providerPred != look.altPred)
            bumpSigned(useAltOnNa_, look.altPred == taken, -8, 7);
        bumpSigned(e.ctr, taken, -4, 3);
        if (look.providerPred != look.altPred) {
            if (look.providerPred == taken) {
                if (e.useful < 3)
                    ++e.useful;
            } else {
                if (e.useful > 0)
                    --e.useful;
            }
        }
        // Base table trains when it acted as the alternate.
        if (look.alt < 0) {
            std::uint8_t &b = base_[look.baseIndex];
            if (taken && b < 3)
                ++b;
            if (!taken && b > 0)
                --b;
        }
    } else {
        std::uint8_t &b = base_[look.baseIndex];
        if (taken && b < 3)
            ++b;
        if (!taken && b > 0)
            --b;
    }

    // Allocation on misprediction: claim one u==0 entry in a table with
    // longer history than the provider.
    if (mispredicted &&
        look.provider < static_cast<int>(tables_.size()) - 1) {
        lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xb400u);
        const unsigned start = static_cast<unsigned>(look.provider + 1) +
                               (lfsr_ & 1u);
        bool allocated = false;
        for (unsigned t = start; t < tables_.size(); ++t) {
            Entry &e = tables_[t][look.indices[t]];
            if (e.useful == 0) {
                e.tag = look.tags[t];
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (unsigned t = look.provider + 1; t < tables_.size(); ++t) {
                Entry &e = tables_[t][look.indices[t]];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    // Periodic graceful reset of useful counters.
    if (++trainCount_ % cfg_.usefulResetPeriod == 0) {
        for (auto &table : tables_)
            for (auto &e : table)
                e.useful >>= 1;
    }
}

void
TagePredictor::commitUpdate(Addr pc, bool taken)
{
    const TageLookup look = lookup(pc, History::Retired);
    train(pc, taken, look);
    advanceRetired(taken);
}

} // namespace mssr
