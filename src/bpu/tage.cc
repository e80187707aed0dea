#include "bpu/tage.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace mssr
{

TagePredictor::TagePredictor(const TageConfig &cfg)
    : cfg_(cfg), tables_(cfg.histLens.size() << cfg.tableBits),
      // Every base counter starts at 1, weakly not taken.
      base_((cfg.baseEntries + 31) / 32, 0x5555555555555555ull),
      retiredHist_(GlobalHistory::sharingFolds(specHist_)),
      untilUsefulReset_(cfg.usefulResetPeriod)
{
    mssr_assert(isPow2(cfg.baseEntries));
    mssr_assert(cfg.usefulResetPeriod > 0);
    mssr_assert(!cfg.histLens.empty());
    mssr_assert(cfg.histLens.size() <= TageLookup::MaxTables,
                "TAGE supports at most ", TageLookup::MaxTables,
                " tagged tables");
    for (unsigned len : cfg_.histLens)
        folds_.push_back(
            TableFolds{specHist_.ref(addFold(len, cfg_.tableBits)),
                       specHist_.ref(addFold(len, cfg_.tagBits)),
                       specHist_.ref(addFold(len, cfg_.tagBits - 1))});
}

unsigned
TagePredictor::addFold(unsigned hist_len, unsigned out_bits)
{
    const unsigned slot = specHist_.addFold(hist_len, out_bits);
    const unsigned retiredSlot = retiredHist_.addFold(hist_len, out_bits);
    mssr_assert(slot == retiredSlot, "history fold slots diverged");
    return slot;
}

TageLookup
TagePredictor::lookup(Addr pc, History which) const
{
    const GlobalHistory &hist =
        which == History::Retired ? retiredHist_ : specHist_;
    TageLookup look;
    const unsigned n = static_cast<unsigned>(folds_.size());
    const std::uint64_t pcbits = pc / InstBytes;
    const unsigned tableBits = cfg_.tableBits;
    const std::uint64_t pcIndex = pcbits ^ (pcbits >> tableBits);
    const Entry *const tables = tables_.data();
    const std::uint64_t indexMask = mask(tableBits);
    const std::uint64_t tagMask = mask(cfg_.tagBits);
    look.baseIndex = pcbits & (cfg_.baseEntries - 1);

    // Longest-history match provides; next match is the alternate.
    // Every table is probed and the two picked from a bit mask, since
    // which tables match is data the host cannot predict. Each fold is
    // read unmasked: every mask below is no wider than its fold.
    std::uint32_t matches = 0;
    for (unsigned t = 0; t < n; ++t) {
        const TableFolds &f = folds_[t];
        const auto index = static_cast<std::uint32_t>(
            (pcIndex ^ hist.lane(f.index) ^ (std::uint64_t(t) * 0x9e37)) &
            indexMask);
        const auto tag = static_cast<std::uint16_t>(
            (pcbits ^ hist.lane(f.tag) ^ (hist.lane(f.tag2) << 1)) &
            tagMask);
        look.indices[t] = index;
        look.tags[t] = tag;
        matches |= std::uint32_t(
                       tables[(std::size_t(t) << tableBits) | index].tag ==
                       tag)
                   << t;
    }
    look.provider = static_cast<int>(std::bit_width(matches)) - 1;
    if (look.provider >= 0) {
        matches &= ~(std::uint32_t(1) << look.provider);
        look.alt = static_cast<int>(std::bit_width(matches)) - 1;
    }

    const unsigned base = baseCtr(look.baseIndex);
    const bool basePred = base >= 2;
    look.altPred = look.alt >= 0
        ? entry(look.alt, look.indices[look.alt]).ctr >= 0
        : basePred;
    if (look.provider >= 0) {
        const Entry &e = entry(look.provider, look.indices[look.provider]);
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
        look.weak = base == 1 || base == 2;
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
    // Saturating steps as selects: outcomes the predictor trains on
    // are data the host's branch predictor cannot learn.
    auto bumpSigned = [](std::int8_t &ctr, bool up, int lo, int hi) {
        ctr = static_cast<std::int8_t>(up ? std::min<int>(ctr + 1, hi)
                                          : std::max<int>(ctr - 1, lo));
    };

    const bool mispredicted = look.pred != taken;

    if (look.provider >= 0) {
        Entry &e = entry(look.provider, look.indices[look.provider]);
        // use_alt_on_na bookkeeping: when the provider was newly
        // allocated and provider/alt disagree, learn which was right.
        const bool newlyAllocated =
            (e.ctr == 0 || e.ctr == -1) && e.useful == 0;
        if (newlyAllocated && look.providerPred != look.altPred)
            bumpSigned(useAltOnNa_, look.altPred == taken, -8, 7);
        bumpSigned(e.ctr, taken, -4, 3);
        if (look.providerPred != look.altPred) {
            const bool right = look.providerPred == taken;
            e.useful = static_cast<std::uint8_t>(
                right ? std::min(e.useful + 1, 3) : std::max(e.useful - 1, 0));
        }
        // Base table trains when it acted as the alternate.
        if (look.alt < 0)
            trainBase(look.baseIndex, taken);
    } else {
        trainBase(look.baseIndex, taken);
    }

    // Allocation on misprediction: claim one u==0 entry in a table with
    // longer history than the provider.
    const unsigned n = static_cast<unsigned>(folds_.size());
    if (mispredicted && look.provider < static_cast<int>(n) - 1) {
        lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xb400u);
        const unsigned start = static_cast<unsigned>(look.provider + 1) +
                               (lfsr_ & 1u);
        bool allocated = false;
        for (unsigned t = start; t < n; ++t) {
            Entry &e = entry(t, look.indices[t]);
            if (e.useful == 0) {
                e.tag = look.tags[t];
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (unsigned t = look.provider + 1; t < n; ++t) {
                Entry &e = entry(t, look.indices[t]);
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    // Periodic graceful reset of useful counters.
    if (--untilUsefulReset_ == 0) {
        untilUsefulReset_ = cfg_.usefulResetPeriod;
        for (Entry &e : tables_)
            e.useful >>= 1;
    }
}

void
TagePredictor::trainBase(std::size_t index, bool taken)
{
    std::uint64_t &word = base_[index / 32];
    const unsigned shift = 2 * (index % 32);
    const unsigned old = (word >> shift) & 3;
    const unsigned ctr = taken ? std::min(old + 1, 3u)
                               : (old == 0 ? 0 : old - 1);
    word = (word & ~(std::uint64_t(3) << shift)) |
           (std::uint64_t(ctr) << shift);
}

void
TagePredictor::commitUpdate(Addr pc, bool taken)
{
    const TageLookup look = lookup(pc, History::Retired);
    train(pc, taken, look);
    advanceRetired(taken);
}

} // namespace mssr
