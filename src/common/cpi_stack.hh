/**
 * @file
 * Top-down cycle accounting (CPI stack) and the squash-reuse funnel.
 *
 * The CPI stack is a dispatch-slot ledger: every cycle the core
 * charges exactly dispatchWidth slots to exactly one category each,
 * so the per-category slot counts always sum to
 * `cycles x dispatchWidth` -- there is no "other" fudge category and
 * no double counting. Dividing a category's slots by
 * `insts x dispatchWidth` yields its additive CPI contribution, the
 * same methodology trace-reuse attribution studies use to dissect
 * where recovered work comes from.
 *
 * The reuse funnel tracks every squashed instruction through the
 * squash-reuse pipeline (squashed -> logged -> covered by a detected
 * reconvergence -> reuse-tested -> RGID pass -> memory-hazard pass ->
 * reused at rename) with per-stage kill reasons. Stage counts are
 * monotonically non-increasing by construction: each squash-log entry
 * advances through the funnel at most once (first-time flags), so a
 * re-detected stream cannot inflate a later stage past an earlier one.
 *
 * Both structs are plain aggregates of counters so they can be
 * compared byte-for-byte in determinism tests and diffed by the
 * mssr_stats CLI.
 */

#ifndef MSSR_COMMON_CPI_STACK_HH
#define MSSR_COMMON_CPI_STACK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mssr
{

namespace minijson
{
struct JsonValue;
}

/**
 * Where one dispatch slot of one cycle went. Categories follow the
 * classic top-down breakdown, specialized to this core:
 *
 *  - Base: slot dispatched a useful (eventually committed or still
 *    in flight) instruction the normal way.
 *  - ReuseSalvaged: slot dispatched an instruction whose result was
 *    adopted from a squashed stream (RGID reuse or RI integration) --
 *    the slice of the misprediction penalty the paper recovers.
 *  - FrontendStarved: no instruction was available to rename and no
 *    flush recovery is in progress (frontend latency / fetch gaps).
 *  - BranchRecovery: slot lost refilling the pipe after a branch-
 *    misprediction squash (the classic misprediction penalty).
 *  - FlushRecovery: slot lost refilling after a memory-order or
 *    reuse-verification flush.
 *  - FreeListStall: rename blocked because no physical register was
 *    available (including when reuse reservations hold them).
 *  - Backpressure: rename blocked on a full ROB, issue queue or LSQ.
 */
enum class CpiCat : std::uint8_t
{
    Base,
    ReuseSalvaged,
    FrontendStarved,
    BranchRecovery,
    FlushRecovery,
    FreeListStall,
    Backpressure,
};

constexpr std::size_t NumCpiCats = 7;

/** Stable lower_snake key for JSON/Prometheus ("base", "backpressure"). */
const char *cpiCatKey(CpiCat cat);

/** Human-readable category name for tables. */
const char *toString(CpiCat cat);

/** Per-category dispatch-slot ledger. */
struct CpiStack
{
    std::array<std::uint64_t, NumCpiCats> slots{};

    void
    charge(CpiCat cat, std::uint64_t n = 1)
    {
        slots[static_cast<std::size_t>(cat)] += n;
    }

    std::uint64_t
    operator[](CpiCat cat) const
    {
        return slots[static_cast<std::size_t>(cat)];
    }

    /** Sum over all categories; equals cycles x dispatchWidth. */
    std::uint64_t total() const;

    /** Additive CPI contribution of @p cat (slots / (width x insts)). */
    double cpiContribution(CpiCat cat, std::uint64_t insts,
                           unsigned width) const;

    /** Fraction of all slots charged to @p cat (0 when empty). */
    double fraction(CpiCat cat) const;

    /** Element-wise difference (interval deltas, A-vs-B diffs). */
    CpiStack operator-(const CpiStack &other) const;

    /** Element-wise accumulation (merging sampled windows). */
    CpiStack &operator+=(const CpiStack &other);

    bool operator==(const CpiStack &) const = default;
};

/**
 * Squash-reuse funnel: where each squashed instruction died on its
 * way to being reused. Stage counts are cumulative over the run and
 * monotonically non-increasing from stage to stage:
 *
 *   squashed >= logged >= covered >= tested >= rgidPass
 *            >= hazardPass >= reused
 *
 * The inter-stage losses are explained by the kill counters:
 *   squashed - logged   : front-pipe flushes, non-branch squashes,
 *                         squash-log capacity drops
 *   logged - covered    : stream aged out / overwritten / invalidated
 *                         before any reconvergence covered the entry
 *   covered - tested    : session cut short (divergence, new squash,
 *                         end of run) before rename reached the entry
 *   tested - rgidPass   : killKind + killNotExecuted + killRgid +
 *                         killRgidCapacity (exact identity)
 *   rgidPass - hazardPass: killBloom (exact identity)
 *   hazardPass - reused : always 0 (passing the hazard check is the
 *                         last gate before adoption)
 *
 * verifyOk / verifyFail count post-reuse load verifications and sit
 * outside the monotonic chain (only reused loads verify).
 */
struct ReuseFunnel
{
    static constexpr std::size_t NumStages = 7;

    // Stage counts (monotonically non-increasing).
    std::uint64_t squashed = 0;   //!< all squashed instructions
    std::uint64_t logged = 0;     //!< recorded in a Squash Log stream
    std::uint64_t covered = 0;    //!< covered by a detected reconvergence
    std::uint64_t tested = 0;     //!< rename-side reuse test reached
    std::uint64_t rgidPass = 0;   //!< passed kind/executed/RGID checks
    std::uint64_t hazardPass = 0; //!< passed the memory-hazard check
    std::uint64_t reused = 0;     //!< adopted at rename

    // Per-stage kill reasons (first-time tests only, so the stage
    // algebra above holds exactly).
    std::uint64_t killKind = 0;         //!< store/control/no-dest/consumed
    std::uint64_t killNotExecuted = 0;  //!< squashed before producing a value
    std::uint64_t killRgid = 0;         //!< source RGID mismatch
    std::uint64_t killRgidCapacity = 0; //!< finite rgidBits window wrapped
    std::uint64_t killBloom = 0;        //!< possible memory hazard

    // Post-reuse load verification outcomes.
    std::uint64_t verifyOk = 0;
    std::uint64_t verifyFail = 0;

    /** Stage count by index, 0 = squashed .. 6 = reused. */
    std::uint64_t stage(std::size_t i) const;

    /** Stable lower_snake stage key by index ("squashed", "reused"). */
    static const char *stageKey(std::size_t i);

    /** True when every stage count <= its predecessor's. */
    bool monotonic() const;

    ReuseFunnel operator-(const ReuseFunnel &other) const;

    /** Counter-wise accumulation (merging sampled windows). The sum of
     *  per-window funnels stays monotonic: each stage's sum is a sum of
     *  stage-wise dominated terms. */
    ReuseFunnel &operator+=(const ReuseFunnel &other);

    bool operator==(const ReuseFunnel &) const = default;
};

/** @name JSON objects (driver/job_record.hh)
 * Each writer emits one object (no trailing newline). Its reader throws
 * minijson::FormatError on a missing or mistyped key, on slots that do
 * not sum to @p cycles x @p width, or on a funnel stage that grows.
 */
/// @{
void writeJson(std::ostream &os, const CpiStack &stack);
void writeJson(std::ostream &os, const ReuseFunnel &funnel);
CpiStack readCpiStack(const minijson::JsonValue &v, std::uint64_t cycles,
                      unsigned width);
ReuseFunnel readFunnel(const minijson::JsonValue &v);
/// @}

} // namespace mssr

#endif // MSSR_COMMON_CPI_STACK_HH
