#include "driver/sim_runner.hh"

#include <chrono>

#include "common/metrics.hh"
#include "common/serialize.hh"
#include "sim/fast_emu.hh"
#include "sim/func_emu.hh"

namespace mssr
{

Checkpoint
computeCheckpoint(const isa::Program &prog, std::uint64_t ffInsts,
                  FuncTier tier)
{
    Checkpoint ckpt;
    Memory ffMem;
    BranchHistory hist;
    MemHistory memh;
    if (tier == FuncTier::Fast) {
        FastEmu emu(prog, ffMem);
        emu.recordBranches(&hist);
        emu.recordMem(&memh);
        emu.run(ffInsts);
        emu.saveState(ckpt);
    } else {
        FuncEmu emu(prog, ffMem);
        emu.recordBranches(&hist);
        emu.recordMem(&memh);
        emu.run(ffInsts);
        emu.saveState(ckpt);
    }
    ckpt.programHash = prog.hash();
    ckpt.ffInsts = ffInsts;
    ckpt.producerTier = tier;
    ckpt.branchHist = hist.inOrder();
    ckpt.memHist = memh.inOrder();
    return ckpt;
}

RunResult
runSim(const isa::Program &prog, const SimConfig &cfg, Memory *mem_out,
       const std::function<void(const O3Cpu &)> &inspect)
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

    O3Cpu cpu(cfg, prog, mem, snapshot);
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
    out.intervals = cpu.intervals();
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

SimConfig
baselineConfig(std::uint64_t max_insts)
{
    SimConfig cfg;
    cfg.reuseKind = ReuseKind::None;
    cfg.maxInsts = max_insts;
    return cfg;
}

SimConfig
rgidConfig(unsigned streams, unsigned log_entries, std::uint64_t max_insts)
{
    SimConfig cfg;
    cfg.reuseKind = ReuseKind::Rgid;
    cfg.reuse.numStreams = streams;
    cfg.reuse.squashLogEntriesPerStream = log_entries;
    cfg.reuse.wpbEntriesPerStream = std::max(1u, log_entries / 4);
    cfg.maxInsts = max_insts;
    return cfg;
}

SimConfig
regIntConfig(unsigned sets, unsigned ways, std::uint64_t max_insts)
{
    SimConfig cfg;
    cfg.reuseKind = ReuseKind::RegInt;
    cfg.regint.sets = sets;
    cfg.regint.ways = ways;
    cfg.maxInsts = max_insts;
    return cfg;
}

} // namespace mssr
