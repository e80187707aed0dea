/**
 * @file
 * TAGE predictor [Seznec & Michaud]: a bimodal base table plus several
 * partially-tagged tables indexed with geometrically increasing global
 * history lengths. This is the main component of the TAGE-SC-L 64K
 * configuration from Table 3.
 */

#ifndef MSSR_BPU_TAGE_HH
#define MSSR_BPU_TAGE_HH

#include <array>
#include <vector>

#include "bpu/predictor.hh"

namespace mssr
{

/** TAGE sizing parameters; defaults give a ~64K-budget predictor. */
struct TageConfig
{
    /** One tagged table per entry; at most TageLookup::MaxTables. */
    std::vector<unsigned> histLens = {4, 8, 16, 32, 64, 128};
    unsigned tableBits = 10;   //!< log2 entries per tagged table
    unsigned tagBits = 9;
    unsigned baseEntries = 16384;
    unsigned usefulResetPeriod = 1 << 18;
};

/** Result of a TAGE table walk, shared by predict and train paths. */
struct TageLookup
{
    /** Most tagged tables a TagePredictor accepts. */
    static constexpr unsigned MaxTables = 16;

    int provider = -1;         //!< providing tagged table, -1 = base
    int alt = -1;              //!< alternate provider, -1 = base
    bool providerPred = false;
    bool altPred = false;
    bool pred = false;         //!< final TAGE prediction
    bool weak = false;         //!< provider counter is weak
    // Fixed-size so a lookup (twice per branch) never allocates; only
    // the first histLens.size() slots are used.
    std::array<std::uint32_t, MaxTables> indices{}; //!< per-table index
    std::array<std::uint16_t, MaxTables> tags{};    //!< per-table tag
    std::size_t baseIndex = 0;
};

class TagePredictor : public DirPredictor
{
  public:
    explicit TagePredictor(const TageConfig &cfg = TageConfig());

    bool predict(Addr pc) override;
    void specUpdate(Addr pc, bool taken) override;
    PredSnapshot snapshot() const override;
    void restore(const PredSnapshot &snap) override;
    void commitUpdate(Addr pc, bool taken) override;

    /** The global history a table walk reads. */
    enum class History { Speculative, Retired };

    /**
     * Performs the full table walk against one of the two histories;
     * exposed so TAGE-SC-L can reuse the lookup for the corrector.
     */
    TageLookup lookup(Addr pc, History which) const;

    /** Trains from a completed lookup (used by TAGE-SC-L). */
    void train(Addr pc, bool taken, const TageLookup &look);

    /** Shifts a retired outcome into the retired history. */
    void advanceRetired(bool taken) { retiredHist_.shift(taken); }

    /**
     * Registers fold(@p hist_len, @p out_bits) on both histories (see
     * GlobalHistory::addFold) and returns its slot, which is the same
     * in both; TAGE-SC-L registers its corrector's folds this way.
     */
    unsigned addFold(unsigned hist_len, unsigned out_bits);

    const GlobalHistory &specHist() const { return specHist_; }
    const GlobalHistory &retiredHist() const { return retiredHist_; }

  private:
    struct Entry
    {
        std::int8_t ctr = 0;       //!< 3-bit signed [-4, 3]
        std::uint16_t tag = 0;
        std::uint8_t useful = 0;   //!< 2-bit
    };

    std::uint32_t tableIndex(Addr pc, const GlobalHistory &hist,
                             unsigned table) const;
    std::uint16_t tableTag(Addr pc, const GlobalHistory &hist,
                           unsigned table) const;

    /** History-fold slots one tagged table reads. */
    struct FoldSlots
    {
        unsigned index = 0;  //!< fold(len, tableBits)
        unsigned tag = 0;    //!< fold(len, tagBits)
        unsigned tag2 = 0;   //!< fold(len, tagBits - 1)
    };

    TageConfig cfg_;
    std::vector<FoldSlots> foldSlots_;  //!< per tagged table
    std::vector<std::vector<Entry>> tables_;
    std::vector<std::uint8_t> base_;    //!< 2-bit counters
    GlobalHistory specHist_;
    GlobalHistory retiredHist_;
    std::int8_t useAltOnNa_ = 0;        //!< 4-bit signed
    std::uint64_t trainCount_ = 0;
    std::uint32_t lfsr_ = 0xace1u;      //!< allocation tie-breaking
};

} // namespace mssr

#endif // MSSR_BPU_TAGE_HH
