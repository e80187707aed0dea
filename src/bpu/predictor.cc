#include "bpu/predictor.hh"

#include "common/log.hh"

namespace mssr
{

GlobalHistory::GlobalHistory() : set_(std::make_shared<FoldSet>()) {}

GlobalHistory
GlobalHistory::sharingFolds(const GlobalHistory &other)
{
    return GlobalHistory(other.set_);
}

unsigned
GlobalHistory::addFold(unsigned hist_len, unsigned out_bits)
{
    mssr_assert(hist_len > 0 && out_bits > 0 && out_bits < 64,
                "no fold of ", hist_len, " bits to ", out_bits);
    FoldSet &set = *set_;
    unsigned slot = 0;
    while (slot < set.slots.size() && !(set.slots[slot].len == hist_len &&
                                        set.slots[slot].bits == out_bits))
        ++slot;
    if (slot == set.slots.size()) {
        // The first word of this width with a free lane, else a new one.
        unsigned w = 0;
        while (w < set.words.size() &&
               !(set.words[w].bits == out_bits &&
                 set.words[w].lanes < 64 / out_bits))
            ++w;
        if (w == set.words.size()) {
            LaneWord fresh;
            fresh.bits = out_bits;
            fresh.topShift = out_bits - 1;
            set.words.push_back(fresh);
        }
        LaneWord &word = set.words[w];
        Slot s;
        s.mask = mask(out_bits);
        s.word = w;
        s.shift = word.lanes * out_bits;
        s.len = hist_len;
        s.bits = out_bits;
        ++word.lanes;
        word.low |= std::uint64_t(1) << s.shift;
        word.rotated |= (s.mask << s.shift) & ~(std::uint64_t(1) << s.shift);
        const std::uint64_t constant = foldWords(Words{}, hist_len, out_bits);
        const std::uint64_t rotated =
            ((constant << 1) | (constant >> (out_bits - 1))) & s.mask;
        word.constantTerm ^= (rotated ^ constant) << s.shift;
        set.slots.push_back(s);
        set.rebuildTaps();
    }
    // A history sharing the set takes the slots another registered
    // since, in slot order.
    mssr_assert(slot <= slots_, "history folds registered out of order");
    if (slot == slots_) {
        const Slot &s = set.slots[slot];
        lanes_.resize(set.words.size(), 0);
        lanes_[s.word] = (lanes_[s.word] & ~(s.mask << s.shift)) |
                         (fold(s.len, s.bits) << s.shift);
        ++slots_;
    }
    return slot;
}

void
GlobalHistory::FoldSet::rebuildTaps()
{
    // Term masks by history bit, then one tap per bit that has any.
    std::vector<std::uint64_t> byBit(std::size_t(Bits) * words.size(), 0);
    for (const Slot &s : slots) {
        const unsigned len = std::min(s.len, Bits); // fold() stops there
        // The leaving bit sits at (len-1 mod 64) mod bits and rotates
        // with the rest; a word-crossing bit belongs at 0, where the
        // rotation put it at (63 mod bits) + 1.
        const std::uint64_t out =
            (std::uint64_t(1) << (((len - 1) % 64 + 1) % s.bits)) & s.mask;
        const std::uint64_t wrap =
            ((std::uint64_t(1) << ((63 % s.bits + 1) % s.bits)) ^ 1) & s.mask;
        byBit[std::size_t(len - 1) * words.size() + s.word] ^= out << s.shift;
        for (unsigned top = 63; top < len - 1; top += 64)
            byBit[std::size_t(top) * words.size() + s.word] ^= wrap << s.shift;
    }
    std::vector<unsigned> tapBits;
    for (unsigned bit = 0; bit < Bits; ++bit) {
        const auto first = byBit.begin() + std::size_t(bit) * words.size();
        if (std::any_of(first, first + words.size(),
                        [](std::uint64_t m) { return m != 0; }))
            tapBits.push_back(bit);
    }
    taps.clear();
    for (unsigned bit : tapBits)
        taps.push_back(Tap{bit / 64, bit % 64});
    terms.clear();
    for (std::size_t w = 0; w < words.size(); ++w)
        for (unsigned bit : tapBits)
            terms.push_back(byBit[std::size_t(bit) * words.size() + w]);
}

void
GlobalHistory::setWords(const Words &words)
{
    words_ = words;
    std::fill(lanes_.begin(), lanes_.end(), 0);
    for (unsigned i = 0; i < slots_; ++i) {
        const Slot &s = set_->slots[i];
        lanes_[s.word] |= fold(s.len, s.bits) << s.shift;
    }
}

} // namespace mssr
