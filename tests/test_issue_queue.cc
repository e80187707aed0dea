/**
 * The wakeup-driven issue queue: oldest-first selection over ready
 * bits, wakeups that skip entries no longer queued, any capacity and
 * issue width (checked against a reference model of the queue), and,
 * in full detailed runs, every queued entry's ready bit against
 * O3Cpu::srcsReady after every cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/issue_queue.hh"
#include "core/o3cpu.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "o3cpu_test_peer.hh"
#include "sim/memory.hh"
#include "test_helpers.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

using test::makeInst;

constexpr unsigned NumRegs = 16;

/** Queues @p inst waiting on @p waits. */
void
insert(IssueQueue &iq, const DynInstPtr &inst,
       std::vector<PhysReg> waits = {})
{
    iq.insert(inst, waits);
}

std::vector<SeqNum>
seqs(const std::vector<DynInstPtr> &insts)
{
    std::vector<SeqNum> out;
    for (const DynInstPtr &inst : insts)
        out.push_back(inst->seq);
    return out;
}

} // namespace

TEST(IssueQueue, SelectsOldestReadyFirst)
{
    IssueQueue iq(8, NumRegs);
    auto a = makeInst(1), b = makeInst(2), c = makeInst(3);
    insert(iq, a, {5});
    insert(iq, b);
    insert(iq, c);
    // Only b and c ready; width 1 picks b (oldest ready).
    std::vector<DynInstPtr> picked;
    iq.select(1, IssueQueue::Pick::Any, picked);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0]->seq, 2u);
    EXPECT_EQ(iq.size(), 2u);
    // Once woken, a is older than c.
    iq.wakeup(5);
    iq.select(8, IssueQueue::Pick::Any, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{1, 3}));
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IssueQueue, WidthLimitsSelection)
{
    IssueQueue iq(8, NumRegs);
    for (SeqNum s = 1; s <= 5; ++s)
        insert(iq, makeInst(s));
    std::vector<DynInstPtr> picked;
    iq.select(3, IssueQueue::Pick::Any, picked);
    EXPECT_EQ(picked.size(), 3u);
    EXPECT_EQ(picked[0]->seq, 1u);
    EXPECT_EQ(picked[2]->seq, 3u);
}

TEST(IssueQueue, CapacityEnforced)
{
    IssueQueue iq(1, NumRegs);
    insert(iq, makeInst(1));
    EXPECT_TRUE(iq.full());
    EXPECT_THROW(insert(iq, makeInst(2)), SimPanic);
}

TEST(IssueQueue, SquashRemovesYounger)
{
    IssueQueue iq(8, NumRegs);
    for (SeqNum s = 1; s <= 4; ++s)
        insert(iq, makeInst(s));
    iq.squashAfter(2);
    EXPECT_EQ(iq.size(), 2u);
    std::vector<DynInstPtr> picked;
    iq.select(8, IssueQueue::Pick::Any, picked);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[1]->seq, 2u);
}

TEST(IssueQueue, NoneReadyNoneSelected)
{
    IssueQueue iq(4, NumRegs);
    insert(iq, makeInst(1), {3});
    // A stale buffer is replaced, not appended to.
    std::vector<DynInstPtr> picked{makeInst(9)};
    iq.select(4, IssueQueue::Pick::Any, picked);
    EXPECT_TRUE(picked.empty());
    EXPECT_EQ(iq.size(), 1u);
}

TEST(IssueQueue, ReinsertedEntryGoesToTheBack)
{
    // A load that stalls on forwarding is re-inserted after it issued:
    // it then issues after everything queued before the re-insertion,
    // older instructions included.
    IssueQueue iq(8, NumRegs);
    auto load = makeInst(1);
    insert(iq, load);
    insert(iq, makeInst(2), {4});
    std::vector<DynInstPtr> picked;
    iq.select(1, IssueQueue::Pick::Any, picked);
    ASSERT_EQ(seqs(picked), (std::vector<SeqNum>{1}));
    insert(iq, makeInst(3));
    insert(iq, load);
    insert(iq, makeInst(4));
    iq.wakeup(4);
    iq.select(8, IssueQueue::Pick::Any, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{2, 3, 1, 4}));
}

TEST(IssueQueue, SquashedWaiterIgnoredAfterSlotReuse)
{
    IssueQueue iq(4, NumRegs);
    insert(iq, makeInst(5), {3});
    iq.squashAfter(4);
    ASSERT_EQ(iq.size(), 0u);
    // The new entry takes the squashed one's slot and also waits on
    // register 3, plus register 4. The squashed entry's waiter on 3
    // must not count for it, or one wakeup would make it ready.
    insert(iq, makeInst(6), {3, 4});
    std::vector<DynInstPtr> picked;
    iq.wakeup(3);
    iq.select(4, IssueQueue::Pick::Any, picked);
    EXPECT_TRUE(picked.empty());
    iq.wakeup(4);
    iq.select(4, IssueQueue::Pick::Any, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{6}));
}

TEST(IssueQueue, SourceReadTwiceWaitsForOneWakeupPerRead)
{
    IssueQueue iq(4, NumRegs);
    insert(iq, makeInst(1), {2, 2});
    std::vector<DynInstPtr> picked;
    iq.wakeup(2);
    iq.select(4, IssueQueue::Pick::Any, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{1}));
}

TEST(IssueQueue, PickSplitsControlFromOther)
{
    IssueQueue iq(8, NumRegs);
    auto branch = makeInst(2);
    branch->si.op = isa::Op::BEQ;
    insert(iq, makeInst(1));
    insert(iq, branch);
    insert(iq, makeInst(3));
    std::vector<DynInstPtr> picked;
    iq.select(4, IssueQueue::Pick::Control, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{2}));
    iq.select(4, IssueQueue::Pick::NonControl, picked);
    EXPECT_EQ(seqs(picked), (std::vector<SeqNum>{1, 3}));
}

// ---------------------------------------------------------------------
// Any capacity, any width: random operations against a reference model
// that keeps entries in insertion order with their unwoken registers.

class IssueQueueCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IssueQueueCapacity, MatchesReferenceModel)
{
    const unsigned capacity = GetParam();
    constexpr unsigned Regs = 12;
    IssueQueue iq(capacity, Regs);

    struct ModelEntry
    {
        DynInstPtr inst;
        bool control;
        std::vector<PhysReg> waits;
    };
    std::vector<ModelEntry> model; // insertion order

    Rng rng(capacity);
    SeqNum nextSeq = 1;
    std::vector<DynInstPtr> picked;
    unsigned filled = 0;
    for (int step = 0; step < 20000; ++step) {
        // Alternate phases that mostly fill and mostly drain the queue.
        const std::uint64_t inserts = (step / 1000) % 2 == 0 ? 8 : 2;
        const std::uint64_t op = rng.below(10);
        if (op < inserts) {
            if (iq.full()) {
                ASSERT_EQ(model.size(), capacity);
                ++filled;
                EXPECT_THROW(insert(iq, makeInst(nextSeq)), SimPanic);
                continue;
            }
            auto inst = makeInst(nextSeq++);
            const bool control = rng.below(3) == 0;
            if (control)
                inst->si.op = isa::Op::BEQ;
            std::vector<PhysReg> waits;
            for (std::uint64_t k = rng.below(3); k > 0; --k)
                waits.push_back(static_cast<PhysReg>(rng.below(Regs)));
            insert(iq, inst, waits);
            model.push_back({inst, control, waits});
        } else if (rng.below(8) < 3) {
            const auto reg = static_cast<PhysReg>(rng.below(Regs));
            iq.wakeup(reg);
            for (ModelEntry &e : model)
                std::erase(e.waits, reg);
        } else if (rng.below(5) < 4) {
            const auto width = static_cast<unsigned>(rng.below(capacity + 3));
            const auto pick = static_cast<IssueQueue::Pick>(rng.below(3));
            std::vector<SeqNum> expect;
            for (auto it = model.begin(); it != model.end();) {
                const bool kind = pick == IssueQueue::Pick::Any ||
                                  (pick == IssueQueue::Pick::Control) ==
                                      it->control;
                if (expect.size() < width && kind && it->waits.empty()) {
                    expect.push_back(it->inst->seq);
                    it = model.erase(it);
                } else {
                    ++it;
                }
            }
            iq.select(width, pick, picked);
            ASSERT_EQ(seqs(picked), expect) << "step " << step;
        } else {
            const SeqNum after = nextSeq - 1 - rng.below(nextSeq);
            iq.squashAfter(after);
            std::erase_if(model, [&](const ModelEntry &e) {
                return e.inst->seq > after;
            });
        }
        ASSERT_EQ(iq.size(), model.size()) << "step " << step;
    }
    EXPECT_GT(filled, 0u) << "the queue never filled up";
}

INSTANTIATE_TEST_SUITE_P(Sizes, IssueQueueCapacity,
                         ::testing::Values(8u, 64u, 65u, 130u));

// ---------------------------------------------------------------------
// Detailed runs: after every cycle, each queued entry's ready bit must
// equal O3Cpu::srcsReady (a verify-pending load is ready at once).

namespace
{

struct QueueSizes
{
    const char *name;
    unsigned intRvs;
    unsigned memRvs;
};

// gtest would otherwise print the raw bytes, `name`'s address among
// them, into each test's listed name, which then changes every run.
void
PrintTo(const QueueSizes &q, std::ostream *os)
{
    *os << '{' << q.intRvs << ", " << q.memRvs << '}';
}

} // namespace

class IssueReadyCheck
    : public ::testing::TestWithParam<
          std::tuple<std::string, ReuseKind, QueueSizes>>
{
};

TEST_P(IssueReadyCheck, ReadyBitsMatchSources)
{
    const auto [name, kind, sizes] = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    scale.graphScale = 6;
    const isa::Program prog = workloads::buildWorkload(name, scale);
    ServeJobSpec spec{.scheme = "none"};
    if (kind == ReuseKind::Rgid)
        spec = {.streams = 4, .entries = 64};
    else if (kind == ReuseKind::RegInt)
        spec = {.scheme = "regint", .sets = 64, .ways = 2};
    SimConfig cfg = specConfig(spec);
    cfg.core.intRvsEntries = sizes.intRvs;
    cfg.core.memRvsEntries = sizes.memRvs;
    Memory mem;
    O3Cpu cpu(cfg, prog, mem);
    O3CpuTestPeer::ReadyCount seen;
    while (!cpu.halted()) {
        ASSERT_LT(cpu.cycles(), 2'000'000u);
        cpu.tick();
        const std::string mismatch = O3CpuTestPeer::readyMismatch(cpu, seen);
        ASSERT_EQ(mismatch, "") << "after cycle " << cpu.cycles();
    }
    // The check saw both states, so it compared something.
    EXPECT_GT(seen.ready, 0u);
    EXPECT_GT(seen.waiting, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, IssueReadyCheck,
    ::testing::Combine(
        ::testing::Values("nested-mispred", "bfs", "sssp"),
        ::testing::Values(ReuseKind::None, ReuseKind::Rgid,
                          ReuseKind::RegInt),
        ::testing::Values(QueueSizes{"default", 64, 64},
                          QueueSizes{"small", 8, 6},
                          QueueSizes{"large", 96, 80})),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           toString(std::get<1>(info.param)) + "_" +
                           std::get<2>(info.param).name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });
