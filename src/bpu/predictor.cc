#include "bpu/predictor.hh"

#include "common/log.hh"

namespace mssr
{

unsigned
GlobalHistory::addFold(unsigned hist_len, unsigned out_bits)
{
    mssr_assert(hist_len > 0 && out_bits > 0 && out_bits < 64,
                "no fold of ", hist_len, " bits to ", out_bits);
    for (unsigned i = 0; i < folds_.size(); ++i)
        if (folds_[i].len == hist_len && folds_[i].bits == out_bits)
            return i;
    Fold f;
    f.len = hist_len;
    f.bits = out_bits;
    f.mask = mask(out_bits);
    f.topShift = out_bits - 1;
    f.constant = foldWords(Words{}, hist_len, out_bits);
    const unsigned len = std::min(hist_len, Bits); // fold() stops there
    while (f.tap < taps_.size() && taps_[f.tap].len != len)
        ++f.tap;
    if (f.tap == taps_.size()) {
        Tap t;
        t.len = len;
        t.outWord = (len - 1) / 64;
        t.outShift = (len - 1) % 64;
        for (unsigned top = 63; top < len - 1; top += 64)
            ++t.wraps;
        taps_.push_back(t);
    }
    // The leaving bit sits at (len-1 mod 64) mod bits and rotates with
    // the rest; a word-crossing bit belongs at 0, where the rotation
    // put it at (63 mod bits) + 1.
    const std::uint64_t out = std::uint64_t(1)
                              << ((taps_[f.tap].outShift + 1) % out_bits);
    const std::uint64_t wrap =
        (std::uint64_t(1) << ((63 % out_bits + 1) % out_bits)) ^ 1;
    for (unsigned sel = 0; sel < f.terms.size(); ++sel)
        f.terms[sel] = ((sel & 1 ? out : 0) ^ (sel & 2 ? wrap : 0) ^
                        (sel & 4 ? 1 : 0)) & f.mask;
    f.raw = fold(hist_len, out_bits) ^ f.constant;
    folds_.push_back(f);
    return static_cast<unsigned>(folds_.size() - 1);
}

void
GlobalHistory::setWords(const Words &words)
{
    words_ = words;
    for (Fold &f : folds_)
        f.raw = fold(f.len, f.bits) ^ f.constant;
}

} // namespace mssr
