/**
 * @file
 * Conditional branch direction predictor interface.
 *
 * Speculative vs retired history: predictions use a speculative global
 * history that is updated immediately with the predicted direction and
 * rolled back (from a snapshot) on squash; training at commit uses a
 * separately maintained retired history, so wrong-path pollution never
 * corrupts training.
 */

#ifndef MSSR_BPU_PREDICTOR_HH
#define MSSR_BPU_PREDICTOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * Opaque speculative-state snapshot saved per prediction block and
 * restored on pipeline redirect. Large enough for any predictor here
 * (TAGE keeps a 256-bit history plus loop-predictor speculative state).
 */
struct PredSnapshot
{
    std::array<std::uint64_t, 6> words{};
};

/**
 * Fixed 256-bit global branch history shift register, plus folded
 * copies of it that predictors index their tables with.
 *
 * fold(len, bits) recomputes a fold from the history words; it is the
 * reference. Predictors instead register each (len, bits) pair they
 * read once, at construction (addFold), and read it by slot (folded):
 * shift() updates every registered fold in O(1), in the manner of the
 * folded-history registers of Seznec and Michaud's TAGE, and setWords()
 * recomputes them when the words are restored from a snapshot.
 */
class GlobalHistory
{
  public:
    static constexpr unsigned Bits = 256;
    using Words = std::array<std::uint64_t, 4>;

    /** Shifts in one outcome (1 = taken) as the youngest bit. */
    void
    shift(bool taken)
    {
        // Each fold rotates left by one and XORs in a term chosen by
        // three bits: the history bit leaving it (history[len-1]), the
        // parity of the bits crossing a word boundary (history[63],
        // [127], [191] below len-1: fold() restarts at each word, so
        // they land on position 0 instead of rotating on) and the new
        // bit. The first two depend only on the length.
        const std::uint64_t wrapParity[4] = {
            0, words_[0] >> 63, (words_[0] ^ words_[1]) >> 63,
            (words_[0] ^ words_[1] ^ words_[2]) >> 63};
        for (Tap &t : taps_)
            t.select = ((words_[t.outWord] >> t.outShift) & 1) |
                       (wrapParity[t.wraps] << 1) | (taken ? 4 : 0);
        for (Fold &f : folds_) {
            const std::uint64_t v = (f.raw << 1) | (f.raw >> f.topShift);
            f.raw = (v & f.mask) ^ f.terms[taps_[f.tap].select];
        }
        words_[3] = (words_[3] << 1) | (words_[2] >> 63);
        words_[2] = (words_[2] << 1) | (words_[1] >> 63);
        words_[1] = (words_[1] << 1) | (words_[0] >> 63);
        words_[0] = (words_[0] << 1) | (taken ? 1 : 0);
    }

    /**
     * Folds the youngest @p hist_len history bits down to @p out_bits
     * by XOR; used to form TAGE/gshare indices and tags.
     */
    std::uint64_t
    fold(unsigned hist_len, unsigned out_bits) const
    {
        return foldWords(words_, hist_len, out_bits);
    }

    /**
     * Registers fold(@p hist_len, @p out_bits) for incremental upkeep
     * and returns its slot for folded(). Registering a pair again
     * returns its existing slot.
     */
    unsigned addFold(unsigned hist_len, unsigned out_bits);

    /** fold() of the pair registered at @p slot. */
    std::uint64_t
    folded(unsigned slot) const
    {
        return folds_[slot].raw ^ folds_[slot].constant;
    }

    std::uint64_t word(unsigned i) const { return words_[i]; }
    /**
     * Replaces the history words and recomputes every registered fold
     * from them.
     */
    void setWords(const Words &words);

  private:
    static std::uint64_t
    foldWords(const Words &words, unsigned hist_len, unsigned out_bits)
    {
        if (out_bits == 0 || hist_len == 0)
            return 0;
        std::uint64_t out = 0;
        unsigned consumed = 0;
        unsigned word = 0;
        while (consumed < hist_len && word < 4) {
            const unsigned take = std::min(64u, hist_len - consumed);
            std::uint64_t chunk = words[word] & mask(take);
            // Rotate the chunk by the bit offset so folds of different
            // lengths decorrelate, then fold into out_bits.
            out ^= foldXor(chunk, out_bits) ^
                   ((consumed / out_bits) & 1 ? 0x2b : 0);
            consumed += take;
            ++word;
        }
        return out & mask(out_bits);
    }

    /** Where shift() reads the bits one history length depends on. */
    struct Tap
    {
        unsigned len = 0;
        unsigned outWord = 0;   //!< history[len-1] is bit outShift
        unsigned outShift = 0;  //!<   of word outWord
        unsigned wraps = 0;     //!< word boundaries below len-1
        unsigned select = 0;    //!< this shift's term index (scratch)
    };

    /**
     * One registered fold. fold(len, bits) is raw ^ constant: raw
     * XORs history bit p into position (p mod 64) mod bits, and
     * constant collects fold()'s per-word 0x2b terms.
     */
    struct Fold
    {
        std::uint64_t raw = 0;
        std::uint64_t mask = 0;      //!< low @c bits bits
        unsigned topShift = 0;       //!< bits - 1: rotate-left by one
        unsigned tap = 0;            //!< index into taps_
        /** XORed in after the rotation, indexed by Tap::select. */
        std::array<std::uint64_t, 8> terms{};
        std::uint64_t constant = 0;
        unsigned len = 0;
        unsigned bits = 0;
    };

    Words words_{};
    std::vector<Tap> taps_;    //!< one per registered length
    std::vector<Fold> folds_;  //!< indexed by slot
};

/** Abstract conditional-branch direction predictor. */
class DirPredictor
{
  public:
    virtual ~DirPredictor() = default;

    /** Predicts the direction of the branch at @p pc. */
    virtual bool predict(Addr pc) = 0;

    /** Shifts the predicted outcome into the speculative history. */
    virtual void specUpdate(Addr pc, bool taken) = 0;

    /** Captures speculative state (before specUpdate of this branch). */
    virtual PredSnapshot snapshot() const = 0;

    /** Restores speculative state from @p snap on redirect. */
    virtual void restore(const PredSnapshot &snap) = 0;

    /** Trains with a retired branch outcome; updates retired history. */
    virtual void commitUpdate(Addr pc, bool taken) = 0;
};

} // namespace mssr

#endif // MSSR_BPU_PREDICTOR_HH
