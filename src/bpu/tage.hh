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

    std::unique_ptr<DirPredictor>
    clone() const override
    {
        return std::make_unique<TagePredictor>(*this);
    }

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
    /** One tagged-table entry, packed into four bytes. */
    struct Entry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;       //!< 3-bit signed [-4, 3]
        std::uint8_t useful = 0;   //!< 2-bit
    };

    /**
     * The history folds one tagged table reads; the same in both
     * histories, which share their registered folds.
     */
    struct TableFolds
    {
        GlobalHistory::FoldRef index;  //!< fold(len, tableBits)
        GlobalHistory::FoldRef tag;    //!< fold(len, tagBits)
        GlobalHistory::FoldRef tag2;   //!< fold(len, tagBits - 1)
    };

    /** Table @p t's entry at @p index. */
    Entry &
    entry(unsigned t, std::uint32_t index)
    {
        return tables_[(std::size_t(t) << cfg_.tableBits) | index];
    }
    const Entry &
    entry(unsigned t, std::uint32_t index) const
    {
        return tables_[(std::size_t(t) << cfg_.tableBits) | index];
    }

    /** The base table's 2-bit counter at @p index. */
    unsigned
    baseCtr(std::size_t index) const
    {
        return (base_[index / 32] >> (2 * (index % 32))) & 3;
    }
    void trainBase(std::size_t index, bool taken);

    TageConfig cfg_;
    std::vector<TableFolds> folds_;     //!< per tagged table
    /** Every tagged table, one after another: table t's entry i is
     *  at (t << tableBits) | i. */
    std::vector<Entry> tables_;
    /** Base-table 2-bit counters, 32 to a word. */
    std::vector<std::uint64_t> base_;
    GlobalHistory specHist_;
    GlobalHistory retiredHist_;         //!< shares specHist_'s folds
    std::int8_t useAltOnNa_ = 0;        //!< 4-bit signed
    std::uint64_t untilUsefulReset_;    //!< trains left in this period
    std::uint32_t lfsr_ = 0xace1u;      //!< allocation tie-breaking
};

} // namespace mssr

#endif // MSSR_BPU_TAGE_HH
