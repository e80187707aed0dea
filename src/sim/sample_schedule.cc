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

    Memory mem;
    Emu emu(prog, mem);
    BranchHistory hist;
    MemHistory memh;
    emu.recordBranches(&hist);
    emu.recordMem(&memh);
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
            hist = BranchHistory();
            for (const BranchOutcome &b : ckpt.branchHist)
                hist.note(b.pc, b.taken, b.next);
            memh = MemHistory();
            for (const MemAccess &a : ckpt.memHist)
                memh.note(a.addr, a.isStore);
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
            Checkpoint ckpt;
            emu.saveState(ckpt);
            ckpt.programHash = prog.hash();
            ckpt.ffInsts = boundary;
            ckpt.producerTier = tier;
            ckpt.branchHist = hist.inOrder();
            ckpt.memHist = memh.inOrder();
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
