/**
 * @file
 * Sampled-simulation scheduling: one cheap end-to-end functional pass
 * over a program that drops an architectural checkpoint every
 * `period` instructions. The checkpoints are the window starts of a
 * SMARTS-style sampled run (driver/sampled_runner.hh): the detailed
 * core only ever simulates short windows seeded from them, so the
 * scan is the single full-length traversal a sampled run pays for.
 *
 * The scan reuses the content-addressed checkpoint store
 * (`--ckpt-dir`): a boundary whose `ck_<hash>_ff<K>.ckpt` file exists
 * is restored from disk instead of being emulated up to, and freshly
 * computed boundaries are written back, so repeated sweeps over the
 * same program skip straight through previously scanned prefixes.
 * Checkpoints produced via the disk path are bit-identical to the
 * straight-through emulation (the store holds exact architectural
 * state and both functional tiers are cosim-proven identical), so the
 * schedule -- and every downstream sampled statistic -- is
 * byte-deterministic regardless of cache state, tier, or worker
 * count.
 */

#ifndef MSSR_SIM_SAMPLE_SCHEDULE_HH
#define MSSR_SIM_SAMPLE_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/checkpoint.hh"

namespace mssr
{

namespace isa
{
class Program;
}

/**
 * The result of one scheduling scan: the program's functional length
 * and the periodic checkpoints. Window i of a sampled run starts at
 * instruction offset i * period; window 0 starts from reset (no
 * checkpoint needed), window i >= 1 from checkpoints[i - 1]. Every
 * checkpoint satisfies ffInsts = i * period < totalInsts: a boundary
 * the program halts on (or before) starts no window and is not
 * recorded.
 */
struct SampleSchedule
{
    std::uint64_t period = 0;      //!< instructions between window starts
    std::uint64_t totalInsts = 0;  //!< functional end-to-end length
    bool halted = false;           //!< program reached HALT (vs maxInsts)
    std::uint64_t diskHits = 0;    //!< boundaries restored from the store
    double hostSeconds = 0.0;      //!< wall-clock of the scan
    std::vector<Checkpoint> checkpoints; //!< at period, 2*period, ...

    /** Window count: the reset window plus one per checkpoint. A
     *  program that halts inside the first period still has its one
     *  (short) reset window. */
    std::uint64_t windows() const { return checkpoints.size() + 1; }
};

/**
 * Computes the fast-forward snapshot for @p prog after @p ffInsts
 * functionally-emulated instructions: architectural registers, PC,
 * the sparse memory image and the prefix's branch-outcome and
 * memory-access history -- the scan's capture at one boundary.
 * This is exactly the snapshot runSim() computes internally when
 * SimConfig::fastForwardInsts is set and SimConfig::checkpoint is
 * null, so passing the result back via SimConfig::checkpoint yields
 * byte-identical simulation results. Used by the BatchRunner's shared
 * warm-up cache and by "mssr_run --ckpt-dir" to create checkpoint
 * files.
 *
 * @param tier which functional tier executes the prefix. The fast
 *        predecoded tier (the default) and the reference interpreter
 *        produce bit-identical checkpoints (ctest-enforced), so the
 *        choice only affects host-side warm-up time.
 */
Checkpoint computeCheckpoint(const isa::Program &prog,
                             std::uint64_t ffInsts,
                             FuncTier tier = FuncTier::Fast);

/**
 * Runs @p prog end-to-end on functional tier @p tier, checkpointing
 * every @p period instructions. @p maxInsts nonzero bounds the scan
 * (the sampled run then models the first maxInsts instructions);
 * 0 runs to HALT. @p ckptDir names the on-disk store ("" disables
 * it); a present-but-corrupt store file throws SerializeError, the
 * same surface-don't-mask contract BatchRunner's warm-up uses.
 *
 * @p period must be nonzero; a program that never halts with
 * maxInsts = 0 would scan forever, so callers bound explosive
 * workloads exactly as they would bound runSim().
 */
SampleSchedule buildSampleSchedule(const isa::Program &prog,
                                   std::uint64_t period,
                                   FuncTier tier = FuncTier::Fast,
                                   const std::string &ckptDir = "",
                                   std::uint64_t maxInsts = 0);

} // namespace mssr

#endif // MSSR_SIM_SAMPLE_SCHEDULE_HH
