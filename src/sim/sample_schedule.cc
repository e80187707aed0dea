#include "sim/sample_schedule.hh"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "isa/program.hh"
#include "sim/fast_emu.hh"
#include "sim/func_emu.hh"
#include "sim/memory.hh"

namespace mssr
{

namespace
{

/**
 * A functional emulator of tier Emu over its own memory, recording
 * the branch and memory history a checkpoint carries. capture() is
 * the one checkpoint capture: the fast-forward prefix and every scan
 * boundary take theirs through it, so both produce the same bytes.
 */
template <typename Emu>
struct RecordingEmu
{
    Memory mem;
    Emu emu;
    BranchHistory hist;
    MemHistory memh;

    explicit RecordingEmu(const isa::Program &prog) : emu(prog, mem)
    {
        emu.recordBranches(&hist);
        emu.recordMem(&memh);
    }

    /** The emulator's state, taken as the prefix of @p ffInsts. */
    Checkpoint
    capture(const isa::Program &prog, std::uint64_t ffInsts,
            FuncTier tier) const
    {
        Checkpoint ckpt;
        emu.saveState(ckpt);
        ckpt.programHash = prog.hash();
        ckpt.ffInsts = ffInsts;
        ckpt.producerTier = tier;
        ckpt.branchHist = hist.inOrder();
        ckpt.memHist = memh.inOrder();
        return ckpt;
    }
};

template <typename Emu>
Checkpoint
capturePrefix(const isa::Program &prog, std::uint64_t ffInsts, FuncTier tier)
{
    RecordingEmu<Emu> rec(prog);
    rec.emu.run(ffInsts);
    return rec.capture(prog, ffInsts, tier);
}

/**
 * The scan proper, templated over the functional tier. One emulator
 * instance runs the whole program; at each period boundary the
 * architectural state is either captured (and written back to the
 * store) or, when the store already has the boundary, restored from
 * disk -- skipping the emulation up to it entirely.
 */
template <typename Emu>
SampleSchedule
scan(const isa::Program &prog, std::uint64_t period, FuncTier tier,
     const std::string &ckptDir, std::uint64_t maxInsts)
{
    SampleSchedule sched;
    sched.period = period;

    RecordingEmu<Emu> rec(prog);
    Emu &emu = rec.emu;
    std::uint64_t executed = 0;

    for (std::uint64_t boundary = period;
         maxInsts == 0 || boundary < maxInsts; boundary += period) {
        std::optional<Checkpoint> stored;
        if (!ckptDir.empty())
            stored = loadStoredCheckpoint(ckptDir, prog.hash(), boundary);
        if (stored) {
            // Store hit: restore instead of emulating up to the
            // boundary.
            Checkpoint &ckpt = *stored;
            ++sched.diskHits;
            emu.restoreState(ckpt); // registers, PC, instret and memory
            executed = ckpt.instret;
            // Reseed the live history rings from the stored records;
            // later boundaries then capture exactly what a
            // straight-through scan would have.
            rec.hist = BranchHistory();
            for (const BranchOutcome &b : ckpt.branchHist)
                rec.hist.note(b.pc, b.taken, b.next);
            rec.memh = MemHistory();
            for (const MemAccess &a : ckpt.memHist)
                rec.memh.note(a.addr, a.isStore);
            if (ckpt.halted || ckpt.instret < boundary) {
                // The program halts inside this period (a stale
                // --fast-forward cache entry can record that): no
                // window starts at or past the halt.
                sched.totalInsts = executed;
                sched.halted = true;
                return sched;
            }
            sched.checkpoints.push_back(std::move(ckpt));
        } else {
            executed += emu.run(boundary - executed);
            if (emu.halted() || executed < boundary)
                break; // halted inside (or exactly at) this boundary
            Checkpoint ckpt = rec.capture(prog, boundary, tier);
            if (!ckptDir.empty())
                saveStoredCheckpoint(ckptDir, ckpt);
            sched.checkpoints.push_back(std::move(ckpt));
        }
    }

    // Run out the tail past the last boundary (to HALT, or to
    // maxInsts when the scan is bounded) so totalInsts covers the
    // whole modeled run.
    if (!emu.halted()) {
        if (maxInsts == 0)
            executed += emu.run(0); // to HALT
        else if (executed < maxInsts)
            executed += emu.run(maxInsts - executed);
    }
    sched.totalInsts = executed;
    sched.halted = emu.halted();
    return sched;
}

} // namespace

Checkpoint
computeCheckpoint(const isa::Program &prog, std::uint64_t ffInsts,
                  FuncTier tier)
{
    return tier == FuncTier::Fast
               ? capturePrefix<FastEmu>(prog, ffInsts, tier)
               : capturePrefix<FuncEmu>(prog, ffInsts, tier);
}

SampleSchedule
buildSampleSchedule(const isa::Program &prog, std::uint64_t period,
                    FuncTier tier, const std::string &ckptDir,
                    std::uint64_t maxInsts)
{
    if (period == 0)
        throw std::invalid_argument(
            "buildSampleSchedule: sample period must be nonzero");
    const auto t0 = std::chrono::steady_clock::now();
    SampleSchedule sched =
        tier == FuncTier::Fast
            ? scan<FastEmu>(prog, period, tier, ckptDir, maxInsts)
            : scan<FuncEmu>(prog, period, tier, ckptDir, maxInsts);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    sched.hostSeconds = elapsed.count();
    return sched;
}

} // namespace mssr
