/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's hot logic blocks. These quantify the scaling claims of
 * sections 3.4-3.5 from the software-model side (the reconvergence
 * range check is a handful of compares; the reuse test is O(1) per
 * instruction) and keep the simulator's own performance visible.
 */

#include <benchmark/benchmark.h>

#include "bpu/tage_sc_l.hh"
#include "common/rng.hh"
#include "core/free_list.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "memsys/cache.hh"
#include "reuse/bloom.hh"
#include "reuse/reconv_detector.hh"
#include "workloads/micro.hh"

using namespace mssr;

namespace
{

void
BM_ReconvOverlapCheck(benchmark::State &state)
{
    const unsigned entries = static_cast<unsigned>(state.range(0));
    WpbStream stream;
    stream.vpn = 0x1;
    for (unsigned i = 0; i < entries; ++i)
        stream.entries.push_back(
            WpbEntry{0x1000 + i * 0x20, 0x101c + i * 0x20});
    stream.numEntries = entries;
    Rng rng(1);
    for (auto _ : state) {
        const Addr start = 0x1000 + (rng.next() & 0x7e0);
        benchmark::DoNotOptimize(
            ReconvDetector::match(stream, start, start + 0x1c, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReconvOverlapCheck)->Arg(16)->Arg(64)->Arg(256);

/**
 * One conditional branch through TAGE-SC-L as the frontend drives it:
 * predict, speculative history update, then the commit-time lookup
 * and training. The history folds are kept up to date in the two
 * history shifts, so timing predict() alone would miss that work.
 */
void
BM_TageLookup(benchmark::State &state)
{
    TageScLPredictor tage;
    Rng rng(2);
    // Warm the tables with a random history.
    for (int i = 0; i < 10000; ++i) {
        const Addr pc = 0x1000 + (rng.next() & 0xffc);
        const bool taken = rng.chance(0.5);
        tage.specUpdate(pc, taken);
        tage.commitUpdate(pc, taken);
    }
    Addr pc = 0x1000;
    for (auto _ : state) {
        const bool taken = rng.chance(0.5);
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.specUpdate(pc, taken);
        tage.commitUpdate(pc, taken);
        pc = 0x1000 + ((pc * 29) & 0xffc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TageLookup);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache("bench", 64 * 1024, 4, 64, 3);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0xfffff, false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_BloomFilter(benchmark::State &state)
{
    BloomFilter bloom(1024, 2);
    Rng rng(4);
    for (int i = 0; i < 128; ++i)
        bloom.insert(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(bloom.mayContain(rng.next()));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilter);

void
BM_FreeListCycle(benchmark::State &state)
{
    FreeList fl(256, 32);
    for (auto _ : state) {
        const PhysReg r = fl.alloc();
        fl.reserve(r);
        fl.adopt(r);
        fl.release(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreeListCycle);

/** End-to-end simulator speed in simulated cycles per second. */
void
BM_SimulatorThroughput(benchmark::State &state)
{
    workloads::MicroParams params;
    params.iterations = 200;
    const isa::Program prog = workloads::makeNestedMispred(params);
    const bool reuse = state.range(0) != 0;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const RunResult r =
            runSim(prog, reuse ? specConfig({.streams = 4, .entries = 64})
                               : specConfig({.scheme = "none"}));
        cycles += r.cycles;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["simCyclesPerSec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Functional warm-up speed of each tier: computeCheckpoint over a 5M
 * instruction prefix of a compute-bound workload (nested-mispred runs
 * ~99 instructions per iteration, so the prefix ends before HALT).
 * Arg 0 is the fast predecoded tier, Arg 1 the reference interpreter;
 * items are executed instructions, so items_per_second is the tier's
 * warm-up throughput.
 */
void
BM_FunctionalTier(benchmark::State &state)
{
    workloads::MicroParams params;
    params.iterations = 60000;
    const isa::Program prog = workloads::makeNestedMispred(params);
    const FuncTier tier =
        state.range(0) == 0 ? FuncTier::Fast : FuncTier::Interpreter;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        const Checkpoint ck = computeCheckpoint(prog, 5'000'000, tier);
        insts += ck.instret;
        benchmark::DoNotOptimize(ck.pc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_FunctionalTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
