/**
 * @file
 * SimRunner: the public entry point for running a program on the O3
 * core under a given configuration and collecting results. This is
 * what examples, tests and the benchmark harness use.
 */

#ifndef MSSR_DRIVER_SIM_RUNNER_HH
#define MSSR_DRIVER_SIM_RUNNER_HH

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/cpi_stack.hh"
#include "common/profile.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "core/o3cpu.hh"
#include "isa/program.hh"
#include "sim/checkpoint.hh"
#include "sim/memory.hh"
#include "sim/sample_schedule.hh"

namespace mssr
{

/** Kilo-instructions per host second: RunResult::kips and every
 *  record's ff_kips. 0 when nothing was timed. */
inline double
kipsOf(std::uint64_t insts, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(insts) / seconds / 1e3
                         : 0.0;
}

/** Result of one simulation run. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;
    bool halted = false;
    StatSet stats;
    std::array<RegVal, NumArchRegs> archRegs{};

    /**
     * Cycle accounting: per-category dispatch slots; cpi.total() ==
     * cycles x dispatchWidth exactly (see common/cpi_stack.hh).
     */
    CpiStack cpi;
    /** Squash-reuse funnel (stages monotonically non-increasing). */
    ReuseFunnel funnel;
    /** Rename/dispatch width the slots were charged against. */
    unsigned dispatchWidth = 0;

    /**
     * Per-PC hot-spot profile (empty unless SimConfig::profiling):
     * squashes, recovery slots and reuse outcomes attributed to
     * static branch and reconvergence PCs (common/profile.hh).
     */
    PcProfile profile;

    /**
     * Functional fast-forward prefix length (SimConfig::
     * fastForwardInsts). `insts` above counts detailed-region commits
     * only, so a fast-forwarded run executed ffInsts + insts
     * instructions architecturally.
     */
    std::uint64_t ffInsts = 0;
    /**
     * True when the fast-forward snapshot came from a pre-computed
     * checkpoint (disk hit or a batch-shared prefix) instead of being
     * emulated in-process. Purely informational: results are byte-
     * identical either way.
     */
    bool ckptHit = false;

    // Host-side performance of the simulation itself. These are the
    // only non-deterministic fields: everything above is bit-identical
    // across repeated runs, these track the simulator's own speed.
    double hostSeconds = 0.0; //!< wall-clock time of the runSim() call
    double ffHostSeconds = 0.0; //!< wall-clock of the functional prefix
    double kips = 0.0;        //!< simulated kilo-instructions / host second

    /**
     * Where hostSeconds went, phase by phase: `warm` is the
     * functional prefix (compute or checkpoint validate + memory
     * restore), `build` is core construction (building, copying or
     * moving in its WarmState included), `detail` is the
     * detailed cpu.run() loop, `serialize` is result extraction
     * (stats, CPI stack, profile, inspect hook). hostSeconds ==
     * warm + build + detail by construction; serialize happens after
     * the hostSeconds clock stops, matching its historical meaning.
     */
    struct HostPhaseSeconds
    {
        double warm = 0.0;
        double build = 0.0;
        double detail = 0.0;
        double serialize = 0.0;
    };
    HostPhaseSeconds phases;
    /** Peak resident set size of the process so far, in KiB. */
    std::int64_t peakRssKb = 0;

    /**
     * Speedup of this run over @p baseline (by cycles). NaN when either
     * run is degenerate (zero cycles): a 0-cycle run has no defined
     * speedup, and 0.0 would silently read as "baseline infinitely
     * faster" in downstream averages. Formatters render NaN as "n/a".
     */
    double
    speedupOver(const RunResult &baseline) const
    {
        if (cycles == 0 || baseline.cycles == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return static_cast<double>(baseline.cycles) /
               static_cast<double>(cycles);
    }

    /** IPC improvement over @p baseline, as a fraction (0.05 = +5%).
     *  NaN when either IPC is non-finite or the baseline IPC is zero. */
    double
    ipcImprovementOver(const RunResult &baseline) const
    {
        if (!std::isfinite(ipc) || !std::isfinite(baseline.ipc) ||
            baseline.ipc == 0.0)
            return std::numeric_limits<double>::quiet_NaN();
        return ipc / baseline.ipc - 1.0;
    }
};

/**
 * Runs @p prog on a fresh core and memory under @p cfg.
 * @param mem_out optional: receives the final memory image.
 * @param inspect optional: called with the finished core before it is
 *        destroyed (for harnesses that need unit internals, e.g. the
 *        Figure-3 replacement heatmap).
 * @param warm optional: supplies the core's WarmState, which must be
 *        the one runSim would build for this program, snapshot and
 *        config (runSampled shares one among design points). Called
 *        once, inside the build phase. Unset, runSim builds it.
 */
RunResult runSim(const isa::Program &prog, const SimConfig &cfg,
                 Memory *mem_out = nullptr,
                 const std::function<void(const O3Cpu &)> &inspect = {},
                 const std::function<WarmState()> &warm = {});

} // namespace mssr

#endif // MSSR_DRIVER_SIM_RUNNER_HH
