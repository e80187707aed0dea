/**
 * Per-instruction pipeline lifecycle viewer: exact reconciliation of
 * the PipeView lifecycle counters with the core and ReuseFunnel
 * counters, no perturbation of simulation results, byte-identical
 * Kanata export across batch worker counts, fetch-cycle window gating
 * boundary cases, and the visible salvage lifecycle (a reused
 * instruction commits without issue/complete stamps).
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "common/pipeview.hh"
#include "driver/batch_runner.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "test_helpers.hh"

using namespace mssr;

namespace
{

using test::squashyProgram;

RunResult
runWithView(const isa::Program &prog, SimConfig cfg, PipeView &view)
{
    cfg.pipeview = &view;
    return runSim(prog, cfg);
}

} // namespace

TEST(PipeView, CountsReconcileExactlyWithCoreAndFunnel)
{
    const isa::Program prog = squashyProgram();
    PipeView view;
    const RunResult r = runWithView(prog, rgidConfig(4, 64), view);
    const PipeView::Counts &c = view.counts();

    // Core-side lifecycle counters.
    EXPECT_EQ(c.committed, r.insts);
    EXPECT_EQ(c.squashed, static_cast<std::uint64_t>(
                              r.stats.get("core.squashedInsts")));
    EXPECT_EQ(c.fetched, static_cast<std::uint64_t>(
                             r.stats.get("core.fetchedInsts")));

    // Reuse-funnel lane counters, stage by stage.
    EXPECT_GT(r.funnel.reused, 0u) << "workload must exercise reuse";
    EXPECT_EQ(c.logged, r.funnel.logged);
    EXPECT_EQ(c.covered, r.funnel.covered);
    EXPECT_EQ(c.tested, r.funnel.tested);
    EXPECT_EQ(c.reused, r.funnel.reused);
    EXPECT_EQ(c.killKind, r.funnel.killKind);
    EXPECT_EQ(c.killNotExecuted, r.funnel.killNotExecuted);
    EXPECT_EQ(c.killRgid, r.funnel.killRgid);
    EXPECT_EQ(c.killRgidCapacity, r.funnel.killRgidCapacity);
    EXPECT_EQ(c.killBloom, r.funnel.killBloom);

    // Every fetched instruction got a record (unwindowed), and the
    // verdict tallies partition the tested count.
    EXPECT_EQ(view.records().size(), c.fetched);
    EXPECT_EQ(c.tested, c.killKind + c.killNotExecuted + c.killRgid +
                            c.killRgidCapacity + c.killBloom + c.reused);
}

TEST(PipeView, RecordingDoesNotPerturbSimulation)
{
    const isa::Program prog = squashyProgram();
    for (const SimConfig &cfg :
         {rgidConfig(4, 64), baselineConfig(), regIntConfig(64, 2)}) {
        const RunResult off = runSim(prog, cfg);
        PipeView view;
        const RunResult on = runWithView(prog, cfg, view);
        EXPECT_EQ(off.cycles, on.cycles);
        EXPECT_EQ(off.insts, on.insts);
        EXPECT_EQ(off.archRegs, on.archRegs);
        EXPECT_EQ(off.stats.scalars(), on.stats.scalars());
    }
}

TEST(PipeView, SalvagedInstructionSkipsReexecution)
{
    const isa::Program prog = squashyProgram();
    PipeView view;
    runWithView(prog, rgidConfig(4, 64), view);

    std::size_t salvaged = 0, donorsSeen = 0;
    const std::vector<PipeView::Record> rows = view.records();
    for (const PipeView::Record &r : rows) {
        if (r.salvage == PipeView::NoStamp)
            continue;
        ++salvaged;
        // Adopter: completed at rename by adopting the donor's value.
        EXPECT_NE(r.rename, PipeView::NoStamp);
        EXPECT_EQ(r.salvage, r.rename);
        if (!r.needVerify) {
            EXPECT_EQ(r.issue, PipeView::NoStamp)
                << "salvaged seq " << r.seq << " re-executed";
            EXPECT_EQ(r.complete, PipeView::NoStamp);
        }
        // Its donor went squash -> squash log -> adopted.
        const PipeView::Record *donor =
            PipeView::findRecord(rows, r.donorSeq);
        ASSERT_NE(donor, nullptr);
        ++donorsSeen;
        EXPECT_NE(donor->squash, PipeView::NoStamp);
        EXPECT_NE(donor->logged, PipeView::NoStamp);
        EXPECT_NE(donor->tested, PipeView::NoStamp);
        EXPECT_EQ(donor->adopterSeq, r.seq);
        EXPECT_TRUE(donor->verdict == ReuseOutcome::Reused ||
                    donor->verdict == ReuseOutcome::ReusedNeedVerify);
    }
    EXPECT_EQ(salvaged, view.counts().reused);
    EXPECT_EQ(donorsSeen, salvaged);
}

TEST(PipeView, KanataExportIdenticalAcrossWorkerCounts)
{
    const isa::Program prog = squashyProgram();
    const std::vector<SimConfig> cfgs = {rgidConfig(4, 64),
                                         rgidConfig(1, 32),
                                         baselineConfig()};

    auto runWith = [&](unsigned workers) {
        std::deque<PipeView> views;
        std::vector<BatchJob> jobs;
        for (const SimConfig &cfg : cfgs) {
            views.emplace_back();
            SimConfig jobCfg = cfg;
            jobCfg.pipeview = &views.back();
            jobs.push_back(
                {"job" + std::to_string(jobs.size()), &prog, jobCfg, {}});
        }
        BatchRunner(workers).run(jobs);
        std::vector<std::string> out;
        for (const PipeView &v : views) {
            std::ostringstream os;
            v.writeKanata(os);
            out.push_back(os.str());
        }
        return out;
    };

    const std::vector<std::string> seq = runWith(1);
    const std::vector<std::string> par = runWith(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t j = 0; j < seq.size(); ++j) {
        EXPECT_GT(seq[j].size(), 0u);
        EXPECT_EQ(seq[j], par[j]) << "job " << j;
    }
}

TEST(PipeView, WindowGatesRecordsButNotCounters)
{
    const isa::Program prog = squashyProgram();
    const SimConfig cfg = rgidConfig(4, 64);

    PipeView full;
    const RunResult r = runWithView(prog, cfg, full);
    ASSERT_GT(r.cycles, 200u);

    // A mid-run window stores a strict subset of records...
    PipeView mid;
    mid.setWindow(100, 150);
    runWithView(prog, cfg, mid);
    const std::vector<PipeView::Record> midRows = mid.records();
    EXPECT_GT(midRows.size(), 0u);
    EXPECT_LT(midRows.size(), full.records().size());
    for (const PipeView::Record &row : midRows) {
        EXPECT_GE(row.fetch, 100u);
        EXPECT_LT(row.fetch, 150u);
    }
    // ...while every lifetime counter still matches the full run.
    EXPECT_EQ(mid.counts().fetched, full.counts().fetched);
    EXPECT_EQ(mid.counts().committed, full.counts().committed);
    EXPECT_EQ(mid.counts().squashed, full.counts().squashed);
    EXPECT_EQ(mid.counts().reused, full.counts().reused);

    // Start beyond the halt cycle: no records, full counters.
    PipeView late;
    late.setWindow(r.cycles + 1000, ~Cycle(0));
    runWithView(prog, cfg, late);
    EXPECT_EQ(late.records().size(), 0u);
    EXPECT_EQ(late.counts().committed, full.counts().committed);

    // Zero-length window: equally empty.
    PipeView empty;
    empty.setWindow(100, 100);
    runWithView(prog, cfg, empty);
    EXPECT_EQ(empty.records().size(), 0u);
    EXPECT_EQ(empty.counts().reused, full.counts().reused);

    // Lookups outside the window (or before the run) return null.
    EXPECT_EQ(PipeView::findRecord(empty.records(), 1), nullptr);
    EXPECT_EQ(PipeView::findRecord(PipeView().records(), 1), nullptr);
    ASSERT_GT(midRows.size(), 0u);
    EXPECT_EQ(PipeView::findRecord(midRows, midRows[0].seq), &midRows[0]);
    EXPECT_EQ(PipeView::findRecord(midRows, midRows[0].seq - 1), nullptr);
    EXPECT_EQ(PipeView::findRecord(midRows, midRows.back().seq + 1),
              nullptr);
}

TEST(PipeView, KanataOutputShape)
{
    const isa::Program prog = squashyProgram(100);
    PipeView view;
    const RunResult r = runWithView(prog, rgidConfig(4, 64), view);
    ASSERT_GT(r.funnel.reused, 0u);

    std::ostringstream os;
    view.writeKanata(os, "\"build_info\": {\"git\": \"test\"}");
    const std::string text = os.str();
    EXPECT_EQ(text.compare(0, 12, "Kanata\t0004\n"), 0);
    EXPECT_NE(text.find("# mssr-pipeview-v1 {\"schema\": "
                        "\"mssr-pipeview-v1\", \"build_info\": "
                        "{\"git\": \"test\"}, \"window\": null"),
              std::string::npos);
    // The reuse lanes are present: a squash-log append, a salvage
    // marker, and a donor->adopter dependency edge.
    EXPECT_NE(text.find("\t1\tLg"), std::string::npos);
    EXPECT_NE(text.find("\t2\tSv"), std::string::npos);
    EXPECT_NE(text.find("W\t"), std::string::npos);
    // Retire records of both kinds (commit and flush).
    EXPECT_NE(text.find("\t0\nI\t"), std::string::npos);

    // An empty recorder still writes a valid header.
    std::ostringstream empty;
    PipeView().writeKanata(empty);
    EXPECT_EQ(empty.str().compare(0, 12, "Kanata\t0004\n"), 0);
    EXPECT_NE(empty.str().find("\"records\": 0"), std::string::npos);
}
