/**
 * @file
 * Architectural checkpoints: the saved state of a functional
 * fast-forward prefix, restorable into a fresh FuncEmu or used to
 * construct an O3 core mid-program.
 *
 * A checkpoint captures exactly the architectural machine state --
 * registers, PC, instret, halt flag, and the sparse memory image as
 * run-length page records -- plus two bounded history rings of the
 * prefix: committed branch outcomes, so a detailed core constructed
 * from the checkpoint can warm its branch predictor by replaying
 * control flow (SimConfig::warmBpu), and committed data-memory
 * accesses, so it can warm its cache hierarchy the same way
 * (SimConfig::warmCaches).
 *
 * On disk a checkpoint is an `mssr-ckpt-v2` container (see
 * common/serialize.hh and docs/FORMATS.md): magic "MSSRCKPT",
 * version 2, CRC-protected META/REGS/PAGE/BHST/MEMH sections. Readers
 * validate everything before touching caller state; a corrupt or
 * mismatched file throws SerializeError and restores nothing. v2
 * added the producing functional tier to META: the store file name
 * keys only (program hash, K), so without the explicit record a
 * consumer could not tell which tier populated a shared store entry.
 * Both tiers are bit-identical (ctest-enforced), so any recorded tier
 * is valid for any consumer -- the field makes that compatibility
 * explicit and auditable instead of implicit.
 */

#ifndef MSSR_SIM_CHECKPOINT_HH
#define MSSR_SIM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace mssr
{

class Memory;

/** One committed control-flow outcome of the functional prefix. */
struct BranchOutcome
{
    Addr pc = 0;     //!< static PC of the control instruction
    Addr next = 0;   //!< actual next PC (target or fall-through)
    bool taken = false;

    bool operator==(const BranchOutcome &) const = default;
};

/**
 * Bounded ring of the most recent branch outcomes. The functional
 * emulator feeds this during a fast-forward run; the capacity bounds
 * both checkpoint size and warm-up replay cost while retaining far
 * more history than any predictor table needs.
 */
class BranchHistory
{
  public:
    static constexpr std::size_t DefaultCapacity = 4096;

    explicit BranchHistory(std::size_t capacity = DefaultCapacity)
        : cap_(capacity)
    {
    }

    void
    note(Addr pc, bool taken, Addr next)
    {
        if (recs_.size() < cap_) {
            recs_.push_back({pc, next, taken});
        } else {
            recs_[head_] = {pc, next, taken};
            head_ = (head_ + 1) % cap_;
        }
    }

    /** Records oldest-to-newest (the replay order). */
    std::vector<BranchOutcome> inOrder() const;

    std::size_t size() const { return recs_.size(); }

  private:
    std::size_t cap_;
    std::size_t head_ = 0; //!< next overwrite slot once full
    std::vector<BranchOutcome> recs_;
};

/** One committed data-memory access of the functional prefix. */
struct MemAccess
{
    Addr addr = 0;        //!< byte address (caches use line granularity)
    bool isStore = false;

    bool operator==(const MemAccess &) const = default;
};

/**
 * Bounded ring of the most recent data-memory accesses, the
 * cache-side analogue of BranchHistory: the functional tiers feed it
 * during a scan, the checkpoint carries it, and a detailed core can
 * replay it through its cache hierarchy (SimConfig::warmCaches) so a
 * sampled window does not start with a compulsorily cold L1/L2. The
 * capacity bounds checkpoint size and replay cost; it is sized to
 * cover the default L2 (2MB / 64B lines = 32768 lines) with slack
 * for line reuse within the window.
 */
class MemHistory
{
  public:
    static constexpr std::size_t DefaultCapacity = 65536;

    explicit MemHistory(std::size_t capacity = DefaultCapacity)
        : cap_(capacity)
    {
    }

    void
    note(Addr addr, bool is_store)
    {
        if (recs_.size() < cap_) {
            recs_.push_back({addr, is_store});
        } else {
            recs_[head_] = {addr, is_store};
            head_ = (head_ + 1) % cap_;
        }
    }

    /** Records oldest-to-newest (the replay order). */
    std::vector<MemAccess> inOrder() const;

    std::size_t size() const { return recs_.size(); }

  private:
    std::size_t cap_;
    std::size_t head_ = 0; //!< next overwrite slot once full
    std::vector<MemAccess> recs_;
};

/**
 * A saved architectural state. `ffInsts` is the requested prefix
 * length (the cache key, together with `programHash`); `instret` is
 * the count actually executed, which is smaller only when the program
 * halted inside the prefix.
 */
struct Checkpoint
{
    /** A run of consecutive pages: `firstPage`, then data.size() /
     *  Memory::PageBytes page images back to back. */
    struct PageRun
    {
        Addr firstPage = 0;
        std::vector<std::uint8_t> data;

        bool operator==(const PageRun &) const = default;
    };

    std::uint64_t programHash = 0; //!< isa::Program::hash() of the program
    std::uint64_t ffInsts = 0;     //!< requested fast-forward length
    std::uint64_t instret = 0;     //!< instructions actually executed
    /**
     * Which functional tier produced this snapshot. Provenance, not
     * identity: the tiers are bit-identical, so equality comparisons
     * (and hence the cross-tier cosim tests) deliberately ignore it.
     * Persisted in the v2 META section so a shared --ckpt-dir store
     * records which tier populated each entry.
     */
    FuncTier producerTier = FuncTier::Fast;
    Addr pc = 0;
    bool halted = false;
    std::array<RegVal, NumArchRegs> regs{};
    std::vector<PageRun> pageRuns;        //!< sorted, coalesced pages
    std::vector<BranchOutcome> branchHist; //!< oldest to newest
    std::vector<MemAccess> memHist;        //!< oldest to newest

    /** Writes every page run into @p mem (zero pages stay sparse only
     *  if they were sparse at save time; content is what matters). */
    void restoreMemory(Memory &mem) const;

    /** Builds the run-length page records from @p mem. */
    void captureMemory(const Memory &mem);

    /** Architectural equality: every field except producerTier (two
     *  bit-identical snapshots from different tiers compare equal). */
    bool
    operator==(const Checkpoint &o) const
    {
        return programHash == o.programHash && ffInsts == o.ffInsts &&
               instret == o.instret && pc == o.pc && halted == o.halted &&
               regs == o.regs && pageRuns == o.pageRuns &&
               branchHist == o.branchHist && memHist == o.memHist;
    }
};

/** @name mssr-ckpt-v2 file I/O
 * Both throw SerializeError on I/O failure; readCheckpoint also
 * throws on bad magic, wrong version, truncation, CRC mismatch or an
 * unknown producer-tier code. writeCheckpoint goes through a
 * temp-file + rename so readers never observe a torn file.
 */
/// @{
void writeCheckpoint(const std::string &path, const Checkpoint &ckpt);
Checkpoint readCheckpoint(const std::string &path);
/// @}

/**
 * The canonical cache file name for a (program hash, fast-forward K)
 * key inside a checkpoint directory: `ck_<hash:016x>_ff<K>.ckpt`.
 */
std::string checkpointFileName(std::uint64_t program_hash,
                               std::uint64_t ff_insts);

/** @name The checkpoint store (--ckpt-dir)
 * The one load and one save path of the store, for the shared warm-up
 * and the sampled scan alike: they name and validate the files, count
 * the mssr_ckpt_store_* metrics (a found file is a hit, a save a miss)
 * and log at debug level. A corrupt or mismatched file throws
 * SerializeError: a stale store is surfaced, never recomputed.
 */
/// @{
std::optional<Checkpoint> loadStoredCheckpoint(const std::string &dir,
                                               std::uint64_t program_hash,
                                               std::uint64_t ff_insts);
void saveStoredCheckpoint(const std::string &dir, const Checkpoint &ckpt);
void registerCheckpointStoreMetrics();
/// @}

} // namespace mssr

#endif // MSSR_SIM_CHECKPOINT_HH
