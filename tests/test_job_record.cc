/**
 * Job records (driver/job_record.hh): what the writers write, the
 * readers read back unchanged -- headline counts, IPC to the last bit,
 * CPI stacks, funnels, estimates at every n, branch and reconvergence
 * records -- and every reader rejects a record that breaks its
 * writer's shape or invariants with a named diagnostic, never through
 * an assertion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "driver/batch_runner.hh"
#include "driver/job_record.hh"
#include "driver/job_spec.hh"
#include "workloads/registry.hh"

using namespace mssr;
using minijson::JsonValue;

namespace
{

isa::Program
testProgram()
{
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 150;
    return workloads::buildWorkload("nested-mispred", scale);
}

JsonValue
parse(const std::string &text)
{
    return minijson::JsonParser(text).parse();
}

/** The FormatError @p read throws, or "" when it accepts. */
std::string
rejection(const std::function<void()> &read)
{
    try {
        read();
    } catch (const minijson::FormatError &e) {
        return e.what();
    }
    return "";
}

/** Replaces the first @p from in @p text with @p to. */
std::string
edit(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

void
expectSameEstimate(const SampleEstimate &got, const SampleEstimate &want,
                   const std::string &what)
{
    EXPECT_EQ(got.n, want.n) << what;
    for (const auto member :
         {&SampleEstimate::mean, &SampleEstimate::stdErr,
          &SampleEstimate::ci95}) {
        EXPECT_EQ(std::isnan(got.*member), std::isnan(want.*member))
            << what;
        if (!std::isnan(want.*member)) {
            EXPECT_EQ(got.*member, want.*member) << what;
        }
    }
}

/** @p b with its partners in PC order and empty slots last -- the
 *  order the profile JSON carries them in. */
BranchRecord
partnersByPc(BranchRecord b)
{
    std::vector<std::pair<Addr, std::uint64_t>> p;
    for (std::size_t i = 0; i < BranchRecord::NumPartners; ++i)
        if (b.partnerPC[i] != 0)
            p.emplace_back(b.partnerPC[i], b.partnerCount[i]);
    std::sort(p.begin(), p.end());
    b.partnerPC.fill(0);
    b.partnerCount.fill(0);
    for (std::size_t i = 0; i < p.size(); ++i)
        std::tie(b.partnerPC[i], b.partnerCount[i]) = p[i];
    return b;
}

const std::string Cpi16 =
    R"({"base": 10, "reuse_salvaged": 2, "frontend_starved": 0,)"
    R"( "branch_recovery": 4, "flush_recovery": 0, "freelist_stall": 0,)"
    R"( "backpressure": 0})";

std::string
funnelJson(const ReuseFunnel &f)
{
    std::ostringstream os;
    writeJson(os, f);
    return os.str();
}

/** A branch record whose funnel tests 4 entries, kills @p kind of them
 *  as the wrong kind and reuses the rest, with @p partners partners. */
std::string
branchJson(std::uint64_t kind, std::size_t partners)
{
    const std::uint64_t pass = kind > 4 ? 0 : 4 - kind;
    std::ostringstream os;
    os << R"({"pc": "0x1000", "mispredicts": 1, "other_squashes": 0,)"
       << R"( "squashed_insts": 10, "branch_recovery_slots": 8,)"
       << R"( "flush_recovery_slots": 0, "funnel": {"stages": {)"
       << R"("squashed": 10, "logged": 8, "covered": 6, "tested": 4,)"
       << R"( "rgid_pass": )" << pass << R"(, "hazard_pass": )" << pass
       << R"(, "reused": )" << pass << R"(}, "kills": {"kind": )" << kind
       << R"(, "not_executed": 0, "rgid": 0, "rgid_capacity": 0,)"
       << R"( "bloom": 0}, "verify_ok": 0, "verify_fail": 0},)"
       << R"( "reconv_dist": [0, 1, 0, 0, 0, 0, 0, 0], "partners": [)";
    for (std::size_t i = 0; i < partners; ++i)
        os << (i ? ", " : "") << R"({"pc": "0x)" << std::hex
           << 0x2000 + 4 * i << std::dec << R"(", "count": 1})";
    os << "]}";
    return os.str();
}

std::string
profileJson(const std::string &branch, std::uint64_t salvaged)
{
    return R"({"branches": [)" + branch +
           R"(], "reconv_points": [{"pc": "0x2000", "detections": 1,)"
           R"( "sessions": 1, "insts_salvaged": )" +
           std::to_string(salvaged) + "}]}";
}

} // namespace

TEST(JobRecord, DetailedRunReadsBackAsWritten)
{
    const isa::Program prog = testProgram();
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.profiling = true;
    const std::vector<BatchJob> jobs{{"nested-mispred", &prog, cfg, {}}};
    const std::vector<RunResult> results = BatchRunner(1).run(jobs);
    const RunResult &want = results[0];

    std::ostringstream stats;
    writeStatsJson(stats, jobs, results, false);
    const std::vector<StatsRun> runs =
        readStatsRuns("stats", parse(stats.str()));
    ASSERT_EQ(runs.size(), 1u);
    const StatsRun &got = runs[0];
    EXPECT_EQ(runs[0].name, "nested-mispred");
    EXPECT_EQ(runs[0].scheme, "rgid");
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.dispatchWidth, want.dispatchWidth);
    EXPECT_EQ(got.ffInsts, want.ffInsts);
    EXPECT_EQ(got.ipc, want.ipc); // exact: written at precision 17
    EXPECT_TRUE(got.cpi == want.cpi);
    EXPECT_TRUE(got.funnel == want.funnel);
    EXPECT_EQ(got.stats.scalars(), want.stats.scalars());
    EXPECT_FALSE(runs[0].sampling.has_value());

    std::ostringstream profile;
    writeProfileJson(profile, jobs, results);
    const std::vector<ProfileRun> prof =
        readProfileRuns("profile", parse(profile.str()));
    ASSERT_EQ(prof.size(), 1u);
    EXPECT_EQ(prof[0].width, want.dispatchWidth);
    const PcProfile &gotProfile = prof[0].profile;
    ASSERT_FALSE(want.profile.branches().empty());
    ASSERT_FALSE(want.profile.reconvs().empty());
    ASSERT_EQ(gotProfile.branches().size(), want.profile.branches().size());
    for (const auto &[pc, b] : want.profile.branches()) {
        ASSERT_TRUE(gotProfile.branches().contains(pc)) << std::hex << pc;
        const BranchRecord &g = gotProfile.branches().at(pc);
        EXPECT_TRUE(g == partnersByPc(b)) << "branch " << std::hex << pc;
        EXPECT_EQ(g.topPartner(), b.topPartner());
    }
    EXPECT_TRUE(gotProfile.reconvs() == want.profile.reconvs());
}

TEST(JobRecord, SampledRunReadsBackAsWritten)
{
    const isa::Program prog = testProgram();
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.samplePeriod = 4000;
    cfg.sampleWindow = 1000;
    const std::vector<BatchJob> jobs{{"nested-mispred", &prog, cfg, {}}};
    std::vector<SampledRunResult> results = BatchRunner(1).runSampled(jobs);
    SampledRunResult &want = results[0];
    ASSERT_GE(want.ipcEst.n, 2u);
    // The run's own estimates cover n >= 2; these cover n = 0 and 1.
    want.reuseRateEst = estimateFrom({});
    want.cpiEst[0] = estimateFrom({0.25});

    std::ostringstream stats;
    writeSampledStatsJson(stats, jobs, results, false);
    const std::vector<StatsRun> runs =
        readStatsRuns("sampled", parse(stats.str()));
    ASSERT_EQ(runs.size(), 1u);
    const StatsRun &got = runs[0];
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.ipc, want.ipc);
    EXPECT_EQ(got.ffInsts, want.totalInsts - want.insts);
    EXPECT_TRUE(got.cpi == want.cpi);
    EXPECT_TRUE(got.funnel == want.funnel);
    ASSERT_TRUE(runs[0].sampling.has_value());
    const SampledRunResult &s = *runs[0].sampling;
    EXPECT_EQ(s.samplePeriod, want.samplePeriod);
    EXPECT_EQ(s.sampleWindow, want.sampleWindow);
    EXPECT_EQ(s.windows, want.windows);
    EXPECT_EQ(s.totalInsts, want.totalInsts);
    EXPECT_EQ(s.halted, want.halted);
    // Every instruction of the run is either simulated in detail or
    // fast-forwarded, and every window gives one IPC sample.
    EXPECT_EQ(got.insts + got.ffInsts, s.totalInsts);
    expectSameEstimate(s.ipcEst, want.ipcEst, "ipc, n >= 2");
    EXPECT_EQ(s.ipcEst.n, s.windows);
    expectSameEstimate(s.reuseRateEst, want.reuseRateEst, "n = 0");
    for (std::size_t c = 0; c < NumCpiCats; ++c)
        expectSameEstimate(s.cpiEst[c], want.cpiEst[c],
                           std::string("cpi_") +
                               cpiCatKey(static_cast<CpiCat>(c)));

    std::ostringstream windows;
    writeSampledWindowsJson(windows, jobs, results, false);
    const std::vector<StatsRun> w =
        readStatsRuns("windows", parse(windows.str()));
    ASSERT_EQ(w.size(), want.windowResults.size());
    EXPECT_EQ(w.size(), s.windows);
    for (std::size_t i = 0; i < w.size(); ++i) {
        const RunResult &wr = want.windowResults[i];
        EXPECT_EQ(w[i].name, "nested-mispred#w" + std::to_string(i));
        EXPECT_EQ(w[i].cycles, wr.cycles);
        EXPECT_EQ(w[i].insts, wr.insts);
        EXPECT_EQ(w[i].ffInsts, want.windowOffsets[i]);
        EXPECT_EQ(w[i].ipc, wr.ipc);
        EXPECT_TRUE(w[i].cpi == wr.cpi);
        EXPECT_TRUE(w[i].funnel == wr.funnel);
    }
}

TEST(JobRecord, CpiStackReaderRejectsBrokenStacks)
{
    EXPECT_EQ(rejection([] { readCpiStack(parse(Cpi16), 2, 8); }), "");
    EXPECT_EQ(rejection([] {
                  readCpiStack(parse(edit(Cpi16, "\"backpressure\"",
                                          "\"back_pressure\"")),
                               2, 8);
              }),
              "missing field 'backpressure'");
    EXPECT_EQ(rejection([] {
                  readCpiStack(parse(edit(Cpi16, "10", "\"10\"")), 2, 8);
              }),
              "field 'base' has the wrong type");
    EXPECT_EQ(rejection([] {
                  readCpiStack(parse(edit(Cpi16, "10", "-10")), 2, 8);
              }),
              "field 'base' is not an unsigned integer");
    EXPECT_EQ(rejection([] { readCpiStack(parse(Cpi16), 3, 8); }),
              "CPI slots do not sum to cycles x width");
}

TEST(JobRecord, FunnelReaderRejectsBrokenFunnels)
{
    ReuseFunnel f;
    f.squashed = 10;
    f.logged = 8;
    f.covered = 6;
    f.tested = 4;
    f.rgidPass = f.hazardPass = f.reused = 3;
    f.killKind = 1;
    const ReuseFunnel written = f;
    EXPECT_EQ(rejection([&] {
                  EXPECT_TRUE(readFunnel(parse(funnelJson(f))) == written);
              }),
              "");
    EXPECT_EQ(rejection([&] {
                  readFunnel(parse(edit(funnelJson(f), "\"verify_fail\": 0",
                                        "\"verify_failed\": 0")));
              }),
              "missing field 'verify_fail'");
    EXPECT_EQ(rejection([&] {
                  readFunnel(parse(edit(funnelJson(f), "\"kills\": {",
                                        "\"kills\": [0], \"x\": {")));
              }),
              "field 'kills' has the wrong type");
    f.covered = 9; // grows past logged
    EXPECT_EQ(rejection([&] { readFunnel(parse(funnelJson(f))); }),
              "funnel stages not monotonic");
}

TEST(JobRecord, EstimateReaderRejectsFieldsThatDoNotMatchN)
{
    const auto written = [](const SampleEstimate &e) {
        std::ostringstream os;
        writeJson(os, e);
        return os.str();
    };
    for (const SampleEstimate &e :
         {estimateFrom({}), estimateFrom({1.5}), estimateFrom({1.0, 2.0})})
        expectSameEstimate(readEstimate(parse(written(e))), e, "round trip");
    EXPECT_EQ(rejection([] { readEstimate(parse(R"({"mean": 1})")); }),
              "missing field 'n'");
    EXPECT_EQ(rejection([] { readEstimate(parse(R"({"n": true})")); }),
              "field 'n' has the wrong type");
    EXPECT_EQ(rejection([] {
                  readEstimate(parse(R"({"n": 1, "mean": "1"})"));
              }),
              "field 'mean' has the wrong type");
    for (const char *bad :
         {R"({"n": 0, "mean": 1})", R"({"n": 1})",
          R"({"n": 2, "mean": 1})", R"({"n": 2, "mean": 1, "ci95": 0.5})",
          R"({"n": 1, "mean": 1, "stderr": 0.1, "ci95": 0.5})"})
        EXPECT_EQ(rejection([&] { readEstimate(parse(bad)); }),
                  "estimate fields inconsistent with its n")
            << bad;
}

TEST(JobRecord, ProfileReaderRejectsBrokenBranchRecords)
{
    EXPECT_EQ(rejection([] { readProfile(parse(profileJson(
                                 branchJson(1, 4), 3))); }),
              "");
    const PcProfile p = readProfile(parse(profileJson(branchJson(1, 2), 3)));
    ASSERT_EQ(p.branches().size(), 1u);
    EXPECT_EQ(p.branches().at(0x1000).funnel().rgidPass, 3u);
    EXPECT_EQ(p.branches().at(0x1000).topPartner(), Addr(0x2000));

    EXPECT_EQ(rejection([] { readProfile(parse(profileJson(
                                 branchJson(6, 0), 0))); }),
              "branch record 0: branch funnel kills exceed tested");
    EXPECT_EQ(rejection([] { readProfile(parse(profileJson(
                                 branchJson(1, 5), 3))); }),
              "branch record 0: more than 4 partners");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      edit(branchJson(1, 1), "\"mispredicts\"",
                           "\"mispredicted\""),
                      3)));
              }),
              "branch record 0: missing field 'mispredicts'");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      edit(branchJson(1, 1), "\"0x1000\"", "4096"), 3)));
              }),
              "branch record 0: field 'pc' has the wrong type");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      edit(branchJson(1, 1), "\"0x1000\"", "\"0x10g0\""),
                      3)));
              }),
              "branch record 0: PC '0x10g0' is not a 0x hex string");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      edit(branchJson(1, 1),
                           "\"hazard_pass\": 3, \"reused\": 3",
                           "\"hazard_pass\": 2, \"reused\": 2"),
                      2)));
              }),
              "branch record 0: branch funnel does not follow its "
              "counters");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      edit(branchJson(1, 1), "\"0x1000\"", "\"0x0\""), 3)));
              }),
              "branch record 0: PC 0 is not an instruction address");
    EXPECT_EQ(rejection([] {
                  readProfile(parse(profileJson(
                      branchJson(1, 1) + ", " + branchJson(4, 0), 3)));
              }),
              "branch record 1: PC 0x1000 repeats");
    EXPECT_EQ(rejection([] { readProfile(parse(profileJson(
                                 branchJson(1, 1), 2))); }),
              "branch reuses (3) != reconv salvage (2)");
}

TEST(JobRecord, FileReadersNameTheFileAndRun)
{
    const isa::Program prog = testProgram();
    const std::vector<BatchJob> jobs{
        {"nested-mispred", &prog,
         specConfig({.streams = 4, .entries = 64}), {}}};
    const std::vector<RunResult> results = BatchRunner(1).run(jobs);
    std::ostringstream os;
    writeStatsJson(os, jobs, results, false);
    const std::string stats = os.str();
    const std::string cycles =
        "\"cycles\": " + std::to_string(results[0].cycles);
    const auto statsRejection = [](const std::string &text) {
        return rejection([&] { readStatsRuns("f.json", parse(text)); });
    };

    EXPECT_EQ(statsRejection(stats), "");
    EXPECT_EQ(statsRejection(edit(stats, "\"ff_insts\"", "\"ff_instz\"")),
              "f.json: run 'nested-mispred': missing field 'ff_insts'");
    EXPECT_EQ(statsRejection(edit(stats, "\"scheme\": \"rgid\"",
                                  "\"scheme\": 1")),
              "f.json: run 'nested-mispred': field 'scheme' has the wrong "
              "type");
    EXPECT_EQ(statsRejection(edit(stats, cycles,
                                  "\"cycles\": " +
                                      std::to_string(results[0].cycles + 1))),
              "f.json: run 'nested-mispred': CPI slots do not sum to "
              "cycles x width");
    EXPECT_EQ(statsRejection(edit(stats, "\"reused\": ",
                                  "\"reused\": 1000000")),
              "f.json: run 'nested-mispred': funnel stages not monotonic");
    EXPECT_EQ(statsRejection(edit(stats, "mssr-stats-v1", "mssr-stats-v2")),
              "f.json: not an mssr-stats-v1 file");
    EXPECT_EQ(statsRejection(R"({"schema": "mssr-stats-v1", "runs": []})"),
              "f.json: no runs");
    EXPECT_EQ(rejection([&] {
                  readProfileRuns("p.json", parse(stats));
              }),
              "p.json: not an mssr-profile-v1 file");
}
