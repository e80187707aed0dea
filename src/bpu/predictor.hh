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
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * Opaque speculative-state snapshot saved per prediction block and
 * restored on pipeline redirect. Large enough for any predictor here:
 * TAGE keeps its 256-bit history, gshare one word.
 */
struct PredSnapshot
{
    std::array<std::uint64_t, 4> words{};
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
 *
 * Registered folds of one width share 64-bit words, one lane each, so
 * shift() rotates a word's lanes at once and XORs each history bit
 * that leaves a fold into every lane it touches with one mask. The
 * layout (a FoldSet) can be shared: TAGE's speculative and retired
 * histories register the same pairs, so they keep one set and each
 * holds only its lane words.
 */
class GlobalHistory
{
  public:
    static constexpr unsigned Bits = 256;
    using Words = std::array<std::uint64_t, 4>;

    GlobalHistory();

    /**
     * An empty history that shares @p other's registered folds. Each
     * sharing history must register every pair, in the same order,
     * before it shifts or reads any: TagePredictor::addFold does.
     */
    static GlobalHistory sharingFolds(const GlobalHistory &other);

    /** Shifts in one outcome (1 = taken) as the youngest bit. */
    void
    shift(bool taken)
    {
        // Each fold rotates left by one and XORs in the new bit (at
        // position 0), the history bit leaving it (history[len-1]) and
        // the bits crossing a word boundary below len-1 (history[63],
        // [127], [191]: fold() restarts at each word, so they land on
        // position 0 instead of rotating on). Lanes rotate a word at a
        // time; each tap XORs its mask into a word while its bit is set.
        const FoldSet &set = *set_;
        const Words w = words_;
        std::uint64_t on[Bits]; // all ones where the tap's bit is set
        const std::size_t taps = set.taps.size();
        for (std::size_t t = 0; t < taps; ++t)
            on[t] = -((w[set.taps[t].word] >> set.taps[t].shift) & 1);
        const std::uint64_t in = taken ? ~std::uint64_t(0) : 0;
        const std::uint64_t *term = set.terms.data();
        for (std::size_t i = 0, n = lanes_.size(); i < n; ++i) {
            const LaneWord &l = set.words[i];
            const std::uint64_t v = lanes_[i];
            std::uint64_t next =
                (((v << 1) & l.rotated) | ((v >> l.topShift) & l.low)) ^
                (l.low & in) ^ l.constantTerm;
            for (std::size_t t = 0; t < taps; ++t)
                next ^= term[t] & on[t];
            lanes_[i] = next;
            term += taps;
        }
        words_[3] = (w[3] << 1) | (w[2] >> 63);
        words_[2] = (w[2] << 1) | (w[1] >> 63);
        words_[1] = (w[1] << 1) | (w[0] >> 63);
        words_[0] = (w[0] << 1) | (taken ? 1 : 0);
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
        const Slot &s = set_->slots[slot];
        return (lanes_[s.word] >> s.shift) & s.mask;
    }

    /** Where a registered fold lives, for reading it with lane(). */
    struct FoldRef
    {
        std::uint32_t word = 0;
        std::uint32_t shift = 0;
    };

    /** The FoldRef of @p slot; the same in every history sharing it. */
    FoldRef
    ref(unsigned slot) const
    {
        const Slot &s = set_->slots[slot];
        return {s.word, s.shift};
    }

    /**
     * The fold at @p r in the low bits (its width), with other folds
     * above them: a caller masks the result to at most that width.
     * The table walks use it to skip folded()'s lookups and mask.
     */
    std::uint64_t lane(FoldRef r) const { return lanes_[r.word] >> r.shift; }

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

    /**
     * One registered fold: a lane of @c bits bits at @c shift in lane
     * word @c word that holds fold(len, bits). That is raw ^ constant:
     * raw XORs history bit p into position (p mod 64) mod bits, and
     * constant collects fold()'s per-word 0x2b terms.
     */
    struct Slot
    {
        std::uint64_t mask = 0;      //!< low @c bits bits
        std::uint32_t word = 0;
        std::uint32_t shift = 0;
        unsigned len = 0;
        unsigned bits = 0;
    };

    /** The lanes of one width that one 64-bit word holds. */
    struct LaneWord
    {
        unsigned bits = 0;
        unsigned lanes = 0;
        std::uint64_t low = 0;       //!< bit 0 of every lane
        std::uint64_t rotated = 0;   //!< lane bits but bit 0
        /**
         * rot(constant) ^ constant over the lanes: rotating a lane
         * rotates its constant too, and this puts the constant back.
         */
        std::uint64_t constantTerm = 0;
        unsigned topShift = 0;       //!< bits - 1
    };

    /**
     * A history bit that, while set, XORs one mask into each lane word
     * per shift: bit len-1 of each registered length (the bit leaving
     * its folds) and bits 63, 127 and 191 (fold() wraps each to bit 0
     * of the folds longer than it). XOR is linear, so a bit serving
     * several folds takes the XOR of their masks, and a word-crossing
     * parity is the sum of its bits' terms.
     */
    struct Tap
    {
        unsigned word = 0;   //!< the bit is bit @c shift
        unsigned shift = 0;  //!<   of Words[word]
    };

    /** Registered folds and how shift() updates them. */
    struct FoldSet
    {
        std::vector<Slot> slots;
        std::vector<LaneWord> words;
        std::vector<Tap> taps;
        /** Per lane word, one mask per tap (words x taps). */
        std::vector<std::uint64_t> terms;

        /** Recomputes taps and terms from slots and words. */
        void rebuildTaps();
    };

    explicit GlobalHistory(std::shared_ptr<FoldSet> set)
        : set_(std::move(set))
    {
    }

    Words words_{};
    std::shared_ptr<FoldSet> set_;
    std::vector<std::uint64_t> lanes_;  //!< per LaneWord
    unsigned slots_ = 0;                //!< slots this history registered
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

    /**
     * An independent copy: tables, histories and speculative state.
     * A TAGE copy shares its source's fold layout (GlobalHistory's
     * FoldSet), which no one changes once the predictor is built.
     */
    virtual std::unique_ptr<DirPredictor> clone() const = 0;
};

} // namespace mssr

#endif // MSSR_BPU_PREDICTOR_HH
