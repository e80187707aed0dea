/**
 * @file
 * Simulator configuration structures. Defaults reproduce Table 3 of the
 * paper (gem5 baseline configuration) plus the default Multi-Stream
 * Squash Reuse parameters used throughout the evaluation.
 */

#ifndef MSSR_COMMON_CONFIG_HH
#define MSSR_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mssr
{

class PipeView;
struct Checkpoint;

/** Which main conditional branch predictor the frontend uses. */
enum class BranchPredictorKind
{
    Bimodal,   //!< 2-bit counters, PC-indexed
    Gshare,    //!< global-history XOR PC
    TageScL,   //!< TAGE-SC-L 64K (Table 3 default)
};

/**
 * Which functional-emulation tier executes fast-forward prefixes.
 * Both tiers are architecturally bit-identical (ctest-enforced
 * cosim); they differ only in host speed.
 */
enum class FuncTier
{
    Fast,        //!< predecoded basic-block dispatch (sim/fast_emu.hh)
    Interpreter, //!< reference step interpreter (sim/func_emu.hh)
};

/** Which squash-reuse mechanism (if any) is attached to the core. */
enum class ReuseKind
{
    None,     //!< baseline: squashed work is discarded
    Rgid,     //!< the paper's Multi-Stream Squash Reuse (our contribution)
    RegInt,   //!< Register Integration baseline [Roth & Sohi, MICRO'00]
};

/** Core configuration; defaults follow Table 3 of the paper. */
struct CoreConfig
{
    // Frontend (Table 3).
    unsigned fetchBlockBytes = 32;        //!< fetch block size
    unsigned frontendStages = 5;          //!< pipeline depth before rename
    BranchPredictorKind predictor = BranchPredictorKind::TageScL;
    unsigned ftqEntries = 48;             //!< fetch target queue capacity
    unsigned btbEntries = 4096;           //!< BTB entries (4-way)
    unsigned rasEntries = 32;             //!< return address stack depth

    // Backend widths / structures (Table 3).
    unsigned decodeWidth = 8;             //!< decode/rename width
    unsigned commitWidth = 8;
    unsigned robEntries = 256;
    unsigned intRvsEntries = 64;          //!< reservation stations, ALU+BRU
    unsigned memRvsEntries = 64;          //!< reservation stations, LSU
    unsigned numAlu = 4;
    unsigned numBru = 2;
    unsigned numLsu = 2;
    unsigned loadQueueEntries = 96;
    unsigned storeQueueEntries = 96;
    unsigned physRegs = 256;

    // Memory hierarchy (Table 3).
    unsigned l1dSizeBytes = 64 * 1024;
    unsigned l1dAssoc = 4;
    unsigned l1dLatency = 3;
    unsigned l2SizeBytes = 2 * 1024 * 1024;
    unsigned l2Assoc = 8;
    unsigned l2Latency = 12;
    unsigned dramLatency = 120;
    unsigned cacheLineBytes = 64;

    // Execution latencies (cycles).
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned branchLatency = 1;

    bool operator==(const CoreConfig &) const = default;
};

/**
 * Multi-Stream Squash Reuse configuration (paper sections 3.3-3.6).
 * The paper's default is 4 streams x 16 WPB fetch blocks x 64 squash
 * log entries per stream.
 */
struct ReuseConfig
{
    unsigned numStreams = 4;              //!< N
    unsigned wpbEntriesPerStream = 16;    //!< M (fetch blocks)
    unsigned squashLogEntriesPerStream = 64; //!< P (instructions)
    /**
     * Hardware RGID tag width (Table 2: 6 bits). The simulator models
     * the finite width as a reuse window of 2^rgidBits - 2 generations
     * per architectural register (see reuse/rgid.hh).
     */
    unsigned rgidBits = 6;
    unsigned reconvTimeoutInsts = 1024;   //!< WPB invalidation timeout
    bool restrictVpn = true;              //!< single-page WPB restriction
    bool reuseLoads = true;               //!< attempt reuse of loads
    bool useBloomFilter = false;          //!< Bloom hazard check instead of
                                          //!< re-execute verification

    /**
     * Sets P = @p log_entries squash-log entries per stream and the
     * P/4 (min 1) WPB fetch blocks they imply (paper section 4.1.2).
     */
    void setLogEntries(unsigned log_entries);
};

/** Register Integration baseline configuration (paper section 4.1.2). */
struct RegIntConfig
{
    unsigned sets = 64;
    unsigned ways = 4;
    /**
     * Model RI's serialized table access (paper sections 2.2.3 and
     * 3.7.3): an instruction whose source register was integrated by
     * an earlier instruction in the same rename bundle needs that
     * instruction's table result first. RI mitigates the serial chain
     * by reading W ways in parallel, so at most `ways` chained
     * integrations can complete per cycle; further dependent
     * instructions in the bundle rename normally. The RGID scheme has
     * no such limit thanks to the reuse-outcome proxy chain (sec 3.5).
     */
    bool modelSerializedAccess = true;
};

/** Top-level simulation configuration bundle. */
struct SimConfig
{
    CoreConfig core;
    ReuseKind reuseKind = ReuseKind::None;
    ReuseConfig reuse;
    RegIntConfig regint;
    std::uint64_t maxInsts = 0;   //!< 0 = run to HALT

    /**
     * Functional fast-forward: when nonzero, runSim() executes the
     * first fastForwardInsts instructions on the functional emulator
     * (architecturally exact, orders of magnitude faster than the
     * detailed core) and constructs the O3 core from the resulting
     * snapshot; maxInsts then bounds the *detailed* region only. Cycle
     * counts, stats and accounting cover the detailed region and are
     * byte-identical whether the snapshot was computed live, shared in
     * a batch, or reloaded from an mssr-ckpt-v2 file.
     */
    std::uint64_t fastForwardInsts = 0;

    /**
     * Which functional tier runs the fast-forward prefix (when
     * SimConfig::checkpoint is null). The fast tier is the default;
     * the interpreter is the golden reference, used by the cosim
     * tests and selectable per serve job ("func_tier"). The
     * resulting snapshot -- and therefore every downstream statistic
     * -- is bit-identical either way.
     */
    FuncTier funcTier = FuncTier::Fast;

    /**
     * Warm the branch predictor from the checkpoint's recorded
     * branch-outcome history (the prefix's last few thousand control
     * instructions) before the detailed region starts. Off by default:
     * a cold BPU matches a from-reset detailed run of the region.
     */
    bool warmBpu = false;

    /**
     * Warm the cache hierarchy from the checkpoint's recorded
     * data-access history (the prefix's last few ten-thousand loads
     * and stores) before the detailed region starts; the hierarchy's
     * stats are reset afterwards so warming never pollutes region
     * stats. The cache-side counterpart of warmBpu -- without it a
     * sampled window pays compulsory misses for its whole working set
     * and reads systematically low IPC.
     */
    bool warmCaches = false;

    /**
     * Optional pre-computed snapshot for the fast-forward prefix (not
     * owned). When set (BatchRunner's checkpoint cache, mssr_run
     * --ckpt-dir), runSim() validates programHash/ffInsts and skips
     * the functional prefix; when null, the prefix runs in-process.
     * Ignored unless fastForwardInsts is nonzero.
     */
    const Checkpoint *checkpoint = nullptr;

    /**
     * @name Probe sinks (common/probe.hh)
     * With none set, each instrumented site costs one branch; results
     * are bit-identical either way.
     */
    /// @{
    /**
     * Optional event recorder (common/pipeview.hh): holds the probe's
     * events of its window and renders them as the text trace, the
     * Chrome trace or the Kanata pipeview, whose rows carry every
     * pipeline step plus the squash-reuse lanes (logged/covered/
     * tested/reused/salvaged) per dynamic instruction ("mssr_run
     * --trace/--trace-out/--pipeview-out" use this). Not owned; one
     * recorder instruments exactly one core.
     */
    PipeView *pipeview = nullptr;

    /**
     * Per-PC hot-spot profiling (common/profile.hh): when true, the
     * core owns a PcProfile attributing squashes, recovery slots and
     * reuse outcomes to static branch/reconvergence PCs, copied onto
     * RunResult::profile ("mssr_run --profile-out" uses this).
     */
    bool profiling = false;
    /// @}

    /**
     * @name Statistical sampling (SMARTS-style)
     * When samplePeriod is nonzero, BatchRunner::runSampled() runs the
     * program end-to-end on the functional tier, drops a checkpoint
     * every samplePeriod instructions, detail-simulates only the
     * sampleWindow-instruction window starting at each checkpoint
     * (with warm-BPU replay), and aggregates the per-window results
     * into population estimates with 95% confidence intervals.
     * runSim() itself ignores both knobs: a sampled run is a batch of
     * ordinary window runs plus deterministic aggregation.
     * sampleWindow must be in (0, samplePeriod]; the window jobs must
     * not themselves fast-forward, trace or profile.
     */
    /// @{
    std::uint64_t samplePeriod = 0; //!< insts between window starts (0 = off)
    std::uint64_t sampleWindow = 0; //!< detailed insts per window
    /// @}
};

/** Human-readable name for a ReuseKind. */
std::string toString(ReuseKind kind);

/** Human-readable name for a BranchPredictorKind. */
std::string toString(BranchPredictorKind kind);

} // namespace mssr

#endif // MSSR_COMMON_CONFIG_HH
