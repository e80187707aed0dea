/**
 * @file
 * Execution-driven out-of-order superscalar core in the style of gem5
 * O3 (paper section 4, Table 3): decoupled block-based frontend (BPU
 * pipeline + FTQ), 8-wide rename with RAT+RGID, ROB, reservation
 * stations, LSQ with store-to-load forwarding and memory-order
 * violation detection, and a two-level cache hierarchy.
 *
 * Wrong-path instructions execute with real values from the physical
 * register file, which is what makes squash reuse meaningful: a
 * squashed instruction's physical register really holds its wrong-path
 * result until reused or released.
 *
 * The core hosts one of three squash-reuse schemes per SimConfig:
 * none (baseline), RGID (the paper's Multi-Stream Squash Reuse), or
 * Register Integration (table-based baseline).
 */

#ifndef MSSR_CORE_O3CPU_HH
#define MSSR_CORE_O3CPU_HH

#include <array>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/cpi_stack.hh"
#include "common/probe.hh"
#include "common/profile.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "core/dyn_inst.hh"
#include "core/free_list.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/regfile.hh"
#include "core/rename_map.hh"
#include "core/rob.hh"
#include "frontend/bpu_pipeline.hh"
#include "frontend/ftq.hh"
#include "isa/program.hh"
#include "memsys/hierarchy.hh"
#include "reuse/reuse_unit.hh"
#include "ri/integration_table.hh"
#include "sim/memory.hh"

namespace mssr
{

struct Checkpoint;

/**
 * The part of a core's start state that a snapshot's recorded history
 * trains: the branch prediction pipeline (direction predictor and
 * BTB) and the L1/L2 caches. It depends only on the program, the
 * snapshot, SimConfig::core and the two warm flags, so design points
 * that agree on all five can start from one state: runSampled builds
 * it once per checkpoint and core configuration and copies it into
 * each window's core. A copy shares nothing with its source but the
 * program.
 */
struct WarmState
{
    /**
     * Builds the state from reset, then replays @p snapshot's branch
     * history through the commit path (when @p cfg.warmBpu) and its
     * data accesses through the caches (when @p cfg.warmCaches). A
     * null @p snapshot leaves it cold.
     */
    WarmState(const SimConfig &cfg, const isa::Program &prog,
              const Checkpoint *snapshot);

    /**
     * Whether @p a and @p b build the same state from one program and
     * snapshot: they agree on every field the constructor reads.
     */
    static bool sameState(const SimConfig &a, const SimConfig &b);

    BpuPipeline bpu;
    MemHierarchy caches;
};

class O3Cpu
{
  public:
    /**
     * @param snapshot optional architectural snapshot to start from
     *        (sim/checkpoint.hh). Null starts the core from reset at
     *        prog.entry() and loads the program's data image. Non-null
     *        starts at the snapshot's PC with the snapshot's register
     *        file; the caller must have restored the snapshot's memory
     *        image into @p mem already (Checkpoint::restoreMemory),
     *        and SimConfig::warmBpu / warmCaches select whether the
     *        snapshot's recorded history pre-trains the predictor and
     *        the caches (WarmState).
     */
    O3Cpu(const SimConfig &cfg, const isa::Program &prog, Memory &mem,
          const Checkpoint *snapshot = nullptr);

    /**
     * Starts from @p warm instead of building it, which must be what
     * WarmState(cfg, prog, snapshot) would build.
     */
    O3Cpu(const SimConfig &cfg, const isa::Program &prog, Memory &mem,
          const Checkpoint *snapshot, WarmState warm);

    /** Advances one cycle. */
    void tick();

    /** Runs until HALT commits or the configured limits hit. */
    void run();

    bool halted() const { return halted_; }
    Cycle cycles() const { return cycle_; }
    std::uint64_t instsCommitted() const { return commits_; }

    double
    ipc() const
    {
        return cycle_ == 0 ? 0.0
                           : static_cast<double>(commits_) /
                                 static_cast<double>(cycle_);
    }

    /** Committed (architectural) register value. */
    RegVal archReg(ArchReg r) const { return archState_[r]; }

    /** Collects statistics from the core and all attached units. */
    StatSet stats() const;

    /**
     * Dispatch-slot cycle accounting: every cycle charges exactly
     * decodeWidth slots to exactly one category each, so
     * cpiStack().total() == cycles() x decodeWidth at all times.
     */
    const CpiStack &cpiStack() const { return cpi_; }

    /**
     * Squash-reuse funnel snapshot (squashed -> ... -> reused, with
     * kill reasons). The reuse-pipeline stages past `squashed` are
     * populated by the RGID ReuseUnit; under RegInt or baseline they
     * stay zero (RI's salvage still shows up in the CPI stack's
     * reuse-salvaged category and in ri.* stats).
     */
    ReuseFunnel funnel() const;

    /**
     * Per-PC hot-spot profile (SimConfig::profiling): squashes,
     * recovery slots and reuse outcomes attributed to static branch
     * and reconvergence PCs. Null when profiling is disabled.
     */
    const PcProfile *profile() const { return profile_.get(); }

    const IntegrationTable *integrationTable() const { return ri_.get(); }

  private:
    friend struct O3CpuTestPeer; //!< white-box hook for regression tests
    struct PendingSquash
    {
        bool valid = false;
        SeqNum afterSeq = 0;       //!< squash strictly younger than this
        Addr redirectPC = 0;
        DynInstPtr cause;
        SquashReason reason = SquashReason::None;
    };

    /** A fetched instruction and the cycle it may reach rename. */
    struct FrontSlot
    {
        DynInstPtr inst;
        Cycle ready = 0;
    };

    // Pipeline stages (called in reverse order each tick).
    void commitStage();
    void writebackStage();
    void issueStage();
    void renameStage();
    void fetchStage();
    void bpuStage();

    /** Why renameOne() could not rename an instruction this cycle. */
    enum class RenameOutcome : std::uint8_t
    {
        Renamed,       //!< instruction dispatched
        RobFull,       //!< reorder buffer has no slot
        IqFull,        //!< reservation stations full
        LsqFull,       //!< load or store queue full
        FreeListEmpty, //!< no physical register available
    };

    // Helpers.
    void executeInst(const DynInstPtr &inst);
    void executeLoad(const DynInstPtr &inst);
    void executeStore(const DynInstPtr &inst);
    void executeBranch(const DynInstPtr &inst);
    RegVal srcValue(const DynInstPtr &inst, unsigned idx) const;
    /**
     * Whether every source of @p inst is ready: the reference the
     * issue queues' ready bits must agree with (checked every cycle by
     * tests/test_issue_queue.cc).
     */
    bool srcsReady(const DynInstPtr &inst) const;
    /**
     * Writes @p value to @p reg, marks it ready and wakes the queued
     * instructions waiting on it. Every site that makes a register
     * ready goes through here: writeback, the rewrite after a failed
     * load verification, and reuse or integration adopting a register
     * at rename (which rewrites the value it already holds).
     */
    void writeReg(PhysReg reg, RegVal value);
    /** Inserts @p inst into @p iq, waiting on its unready sources. */
    void dispatch(IssueQueue &iq, const DynInstPtr &inst);
    /**
     * Queues @p inst's writeback @p latency cycles from now. This
     * cycle's writeback has already run, so latency 0 means the next
     * cycle. Panics beyond the wheel's reach (the longest latency any
     * execute path can take).
     */
    void scheduleWriteback(const DynInstPtr &inst, Cycle latency);
    void requestSquash(SeqNum after_seq, Addr redirect, DynInstPtr cause,
                       SquashReason reason);
    void applySquash();
    RenameOutcome renameOne(const DynInstPtr &inst);

    // In-flight instructions. Declared first so it is destroyed last,
    // after every member that holds a DynInstPtr into it.
    DynInstPool pool_;

    SimConfig cfg_;
    const isa::Program &prog_;
    Memory &mem_;
    MemHierarchy hierarchy_;

    // Frontend.
    BpuPipeline bpu_;
    Ftq ftq_;
    bool bpuStalled_ = false;
    Ring<FrontSlot> frontPipe_;            //!< fetched, pre-rename

    // Backend.
    Rob rob_;
    FreeList freeList_;
    RenameMap rat_;
    PhysRegFile regs_;
    IssueQueue iqInt_;
    IssueQueue iqMem_;
    Lsq lsq_;
    // Pending writebacks, one bucket per cycle: an event for cycle c
    // sits in bucket c & wbMask_. The wheel spans the longest execute
    // latency, so a bucket never mixes two cycles.
    std::vector<std::vector<DynInstPtr>> wbWheel_;
    Cycle wbMask_ = 0;

    // Scratch buffers reused every cycle or squash so the cycle loop
    // does not allocate. Each is empty between uses, so none keeps a
    // squashed or retired instruction alive.
    std::vector<DynInstPtr> issueBuf_;   //!< issueStage: selected insts
    std::vector<DynInstPtr> squashBuf_;  //!< applySquash: ROB walk

    // Reuse schemes (at most one active).
    std::unique_ptr<ReuseUnit> reuse_;
    std::unique_ptr<IntegrationTable> ri_;
    std::vector<PhysReg> riBundleDsts_;  //!< pregs integrated this cycle
    unsigned riChainedThisCycle_ = 0;

    // Observability. probe_ feeds the pipeview SimConfig attaches
    // plus profile_; it is null when neither is attached, so each
    // instrumented site costs one branch.
    std::unique_ptr<Probe> probe_;

    // Cycle accounting (see cpiStack()). recoveryReason_ tracks the
    // reason of the last squash until the corrected path reaches
    // rename again, attributing the refill bubble to that squash;
    // recoveryCausePC_ names the causing instruction's static PC so
    // the profiler can charge the same slots to the same squash.
    CpiStack cpi_;
    SquashReason recoveryReason_ = SquashReason::None;
    Addr recoveryCausePC_ = 0;
    std::unique_ptr<PcProfile> profile_; //!< null = profiling off

    // Global state.
    Cycle cycle_ = 0;
    SeqNum nextSeq_ = 1;
    std::uint64_t commits_ = 0;
    bool halted_ = false;
    PendingSquash pendingSquash_;
    std::array<RegVal, NumArchRegs> archState_{};
    Cycle lastCommitCycle_ = 0;

    // Statistics.
    std::uint64_t fetched_ = 0;
    std::uint64_t squashedInsts_ = 0;
    std::uint64_t squashEvents_ = 0;
    std::uint64_t branchMispredicts_ = 0;
    std::uint64_t condBranchesCommitted_ = 0;
    std::uint64_t condMispredictsCommitted_ = 0;
    std::uint64_t memOrderFlushes_ = 0;
    std::uint64_t verifyFailFlushes_ = 0;
    std::uint64_t verifyOk_ = 0;
    std::uint64_t renameStallFreeList_ = 0;
    std::uint64_t loadsExecuted_ = 0;
    std::uint64_t storesCommitted_ = 0;
    std::uint64_t riChainBlocked_ = 0;
};

/** arch-register alias used by examples/tests for readability. */
using ArchRegArray = std::array<RegVal, NumArchRegs>;

} // namespace mssr

#endif // MSSR_CORE_O3CPU_HH
