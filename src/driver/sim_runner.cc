#include "driver/sim_runner.hh"

#include <chrono>

#include "common/metrics.hh"
#include "common/serialize.hh"

namespace mssr
{

RunResult
runSim(const isa::Program &prog, const SimConfig &cfg, Memory *mem_out,
       const std::function<void(const O3Cpu &)> &inspect,
       const std::function<WarmState()> &warm)
{
    const auto start = std::chrono::steady_clock::now();
    Memory local;
    Memory &mem = mem_out ? *mem_out : local;

    RunResult out;
    Checkpoint computed;
    const Checkpoint *snapshot = nullptr;
    if (cfg.fastForwardInsts > 0) {
        if (cfg.checkpoint) {
            // Pre-computed snapshot (batch-shared prefix or a loaded
            // checkpoint file): validate it actually matches this run
            // before trusting it.
            if (cfg.checkpoint->programHash != prog.hash())
                throw SerializeError(
                    "checkpoint was taken from a different program "
                    "(hash mismatch)");
            if (cfg.checkpoint->ffInsts != cfg.fastForwardInsts)
                throw SerializeError(
                    "checkpoint fast-forward length " +
                    std::to_string(cfg.checkpoint->ffInsts) +
                    " does not match requested --fast-forward " +
                    std::to_string(cfg.fastForwardInsts));
            snapshot = cfg.checkpoint;
            out.ckptHit = true;
        } else {
            computed = computeCheckpoint(prog, cfg.fastForwardInsts,
                                         cfg.funcTier);
            snapshot = &computed;
            // Only a computed prefix gets charged: a checkpoint hit
            // paid nothing, and stamping its ~µs of validation time
            // here would turn downstream ff_insts/ff_host_sec ratios
            // into garbage throughput figures.
            const std::chrono::duration<double> ffElapsed =
                std::chrono::steady_clock::now() - start;
            out.ffHostSeconds = ffElapsed.count();
        }
        out.ffInsts = cfg.fastForwardInsts;
        snapshot->restoreMemory(mem);
    }
    const auto warmDone = std::chrono::steady_clock::now();
    out.phases.warm =
        std::chrono::duration<double>(warmDone - start).count();

    O3Cpu cpu(cfg, prog, mem, snapshot,
              warm ? warm() : WarmState(cfg, prog, snapshot));
    const auto buildDone = std::chrono::steady_clock::now();
    out.phases.build =
        std::chrono::duration<double>(buildDone - warmDone).count();
    cpu.run();
    const auto detailDone = std::chrono::steady_clock::now();
    out.phases.detail =
        std::chrono::duration<double>(detailDone - buildDone).count();
    const std::chrono::duration<double> elapsed = detailDone - start;

    out.hostSeconds = elapsed.count();
    out.cycles = cpu.cycles();
    out.insts = cpu.instsCommitted();
    out.ipc = cpu.ipc();
    out.halted = cpu.halted();
    out.stats = cpu.stats();
    out.cpi = cpu.cpiStack();
    out.funnel = cpu.funnel();
    out.dispatchWidth = cfg.core.decodeWidth;
    if (cpu.profile())
        out.profile = *cpu.profile();
    out.kips = kipsOf(out.insts, out.hostSeconds);
    for (unsigned r = 0; r < NumArchRegs; ++r)
        out.archRegs[r] = cpu.archReg(static_cast<ArchReg>(r));
    if (inspect)
        inspect(cpu);
    out.phases.serialize =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      detailDone)
            .count();
    out.peakRssKb = peakRssKb();
    return out;
}

} // namespace mssr
