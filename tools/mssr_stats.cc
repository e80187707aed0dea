/**
 * mssr_stats: offline reporter for the mssr-stats-v1 JSON files that
 * `mssr_run --stats-out FILE` writes and the mssr-profile-v1 files
 * that `mssr_run --profile-out FILE` writes.
 *
 *   mssr_stats [--topn N] FILE
 *       mssr-stats-v1 FILE: for every run, the normalized CPI stack
 *       (slots, fraction, additive CPI contribution per category) and
 *       the squash-reuse funnel as a percentage waterfall with
 *       per-stage kill reasons.
 *       mssr-profile-v1 FILE: for every run, the top-N branches by
 *       recovery penalty (squashes, recovery cycles, per-branch reuse
 *       coverage, top reconvergence partner) and the top-N
 *       reconvergence points by salvaged instructions.
 *
 *   mssr_stats --diff BASELINE MSSR
 *       Pairs runs between the two files (by name, falling back to
 *       position). Stats files: the headline "cycles recovered by
 *       reuse", the IPC delta, and the per-category dispatch-slot
 *       shifts. Profile files: per-branch "cycles recovered by reuse"
 *       deltas -- which static branches got cheaper and how much of
 *       that reuse salvage paid back.
 *
 *   mssr_stats --annotate PROG FILE
 *       Merges an mssr-profile-v1 FILE into a disassembly listing of
 *       workload PROG (rebuilt at MSSR_SCALE/MSSR_ITERS, which must
 *       match the profiled run): every instruction line, with hot
 *       branches and reconvergence points marked with their
 *       normalized share of squashes / recovery cycles / salvage.
 *
 *   mssr_stats --timeline FILE [--start C] [--cycles K]
 *       ASCII per-instruction timeline of an mssr-pipeview-v1 Kanata
 *       file (mssr_run --pipeview-out): one row per instruction whose
 *       lifecycle intersects the cycle window, pipeline stages as
 *       lowercase cells (f/d/r/i/c, C commit), squash-reuse lane
 *       markers overlaid uppercase (L logged, V covered, T tested,
 *       R reuse verdict, S salvaged) and x where a flush retires the
 *       row. Default window: 80 cycles from the first event.
 *
 * All modes read files through driver/job_record.hh, which re-verifies
 * the writers' invariants on load (slots sum to cycles x width, funnel
 * stages monotone, ...) and exits non-zero when a file violates them,
 * so the CLI doubles as a schema/consistency checker for CI.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "common/argparse.hh"
#include "common/build_info.hh"
#include "driver/job_record.hh"
#include "isa/program.hh"
#include "workloads/registry.hh"

using namespace mssr;
using minijson::JsonValue;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr << "usage: mssr_stats [--topn N] FILE\n"
                 "       mssr_stats [--topn N] --diff BASELINE MSSR\n"
                 "       mssr_stats --annotate PROG FILE\n"
                 "       mssr_stats --timeline FILE [--start C] "
                 "[--cycles K]\n"
                 "       mssr_stats --version\n"
                 "FILEs are mssr-stats-v1 JSON from mssr_run --stats-out\n"
                 "or mssr-profile-v1 JSON from mssr_run --profile-out\n"
                 "(--annotate and per-branch --diff need profile files;\n"
                 "--timeline reads the mssr-pipeview-v1 Kanata log from\n"
                 "mssr_run --pipeview-out).\n";
    std::exit(2);
}

[[noreturn]] void
malformed(const std::string &file, const std::string &what)
{
    throw std::runtime_error(file + ": " + what);
}

/** Parses @p file and returns its top-level object. */
JsonValue
loadRoot(const std::string &file)
{
    std::ifstream in(file);
    if (!in)
        malformed(file, "cannot open");
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue root = minijson::JsonParser(text.str()).parse();
    if (root.kind != JsonValue::Object)
        malformed(file, "top level is not an object");
    return root;
}

std::string
schemaOf(const std::string &file, const JsonValue &root)
{
    try {
        return minijson::field(root, "schema", JsonValue::String).string;
    } catch (const minijson::FormatError &e) {
        malformed(file, e.what());
    }
}

std::string
count(std::uint64_t v)
{
    return std::to_string(v);
}

/** Fraction formatted as an unsigned percentage ("41.2%"). */
std::string
share(double fraction)
{
    return analysis::fixed(fraction * 100.0, 1) + "%";
}

void
printRun(const StatsRun &r)
{
    analysis::banner(std::cout, r.name + " (" + r.scheme + ")");
    std::cout << "cycles " << r.cycles << ", insts " << r.insts << ", IPC "
              << analysis::fixed(r.ipc, 4) << ", dispatch width "
              << r.dispatchWidth << "\n";
    if (r.ffInsts) {
        std::cout << "warm-up: " << r.ffInsts << " ff insts";
        if (r.ffKips > 0.0)
            std::cout << " at " << analysis::fixed(r.ffKips, 0)
                      << " kips (" << analysis::fixed(r.ffHostSeconds, 3)
                      << "s host)";
        std::cout << "\n";
    }
    if (r.sampling) {
        const SampledRunResult &s = *r.sampling;
        std::cout << "sampled: " << s.windows << " windows x "
                  << s.sampleWindow << " insts, period " << s.samplePeriod
                  << ", " << s.totalInsts << " total insts ("
                  << (s.halted ? "ran to halt" : "instruction-bounded")
                  << ")\n";
    }
    std::cout << "\n";

    analysis::Table cpi({"category", "slots", "share", "CPI"});
    for (std::size_t i = 0; i < NumCpiCats; ++i) {
        const CpiCat cat = static_cast<CpiCat>(i);
        cpi.addRow({toString(cat), count(r.cpi[cat]),
                    share(r.cpi.fraction(cat)),
                    analysis::fixed(r.cpi.cpiContribution(cat, r.insts,
                                                          r.dispatchWidth),
                                    4)});
    }
    cpi.addRow({"total", count(r.cpi.total()), share(1.0),
                analysis::fixed(r.insts ? static_cast<double>(r.cycles) /
                                              static_cast<double>(r.insts)
                                        : 0.0,
                                4)});
    cpi.print(std::cout);

    std::cout << "\nsquash-reuse funnel (% of squashed):\n";
    analysis::Table fun({"stage", "insts", "share", "lost here"});
    const double squashed =
        r.funnel.squashed ? static_cast<double>(r.funnel.squashed) : 1.0;
    for (std::size_t i = 0; i < ReuseFunnel::NumStages; ++i) {
        const std::uint64_t lost =
            i ? r.funnel.stage(i - 1) - r.funnel.stage(i) : 0;
        fun.addRow({ReuseFunnel::stageKey(i), count(r.funnel.stage(i)),
                    share(static_cast<double>(r.funnel.stage(i)) / squashed),
                    i ? count(lost) : std::string("-")});
    }
    fun.print(std::cout);
    std::cout << "kills at reuse test: kind " << r.funnel.killKind
              << ", not-executed " << r.funnel.killNotExecuted << ", rgid "
              << r.funnel.killRgid << ", rgid-capacity "
              << r.funnel.killRgidCapacity << ", bloom "
              << r.funnel.killBloom << "\n";
    std::cout << "reused-load verification: " << r.funnel.verifyOk
              << " ok, " << r.funnel.verifyFail << " fail\n";

    if (r.sampling) {
        // analysis::fixed renders NaN as "n/a", so single-window (no
        // spread) and zero-observation estimates degrade gracefully.
        std::cout << "\npopulation estimates (95% CI over "
                  << r.sampling->windows << " windows):\n";
        analysis::Table est({"metric", "n", "mean", "stderr", "ci95"});
        auto addEstimate = [&](const std::string &metric,
                               const SampleEstimate &e) {
            est.addRow({metric, count(e.n), analysis::fixed(e.mean, 4),
                        analysis::fixed(e.stdErr, 4),
                        analysis::fixed(e.ci95, 4)});
        };
        addEstimate("ipc", r.sampling->ipcEst);
        addEstimate("reuse_rate", r.sampling->reuseRateEst);
        for (std::size_t i = 0; i < NumCpiCats; ++i)
            addEstimate(std::string("cpi_") +
                            cpiCatKey(static_cast<CpiCat>(i)),
                        r.sampling->cpiEst[i]);
        est.print(std::cout);
    }
}

/** The run of @p base paired with run @p index of the other file. */
template <typename Run>
const Run *
matchRun(const std::vector<Run> &base, const Run &mssr, std::size_t index)
{
    for (const Run &b : base)
        if (b.name == mssr.name)
            return &b;
    // Different labels on each side (e.g. "bfs" vs "bfs/baseline"):
    // fall back to pairing by position.
    return index < base.size() ? &base[index] : nullptr;
}

void
printDiff(const StatsRun &base, const StatsRun &mssr)
{
    analysis::banner(std::cout, mssr.name + ": " + base.scheme + " vs " +
                                    mssr.scheme);
    const std::int64_t recovered = static_cast<std::int64_t>(base.cycles) -
                                   static_cast<std::int64_t>(mssr.cycles);
    std::cout << "cycles " << base.cycles << " -> " << mssr.cycles
              << "; cycles recovered by reuse: " << recovered;
    if (base.cycles)
        std::cout << " ("
                  << share(static_cast<double>(recovered) /
                           static_cast<double>(base.cycles))
                  << " of baseline)";
    std::cout << "\nIPC " << analysis::fixed(base.ipc, 4) << " -> "
              << analysis::fixed(mssr.ipc, 4);
    if (base.ipc > 0.0)
        std::cout << " (" << analysis::percent(mssr.ipc / base.ipc - 1.0)
                  << ")";
    std::cout << "\n";

    if (base.sampling.has_value() != mssr.sampling.has_value()) {
        // Exactly one side is sampled: this is an accuracy check, not
        // an A-vs-B scheme comparison. Report how far the sampled IPC
        // estimate lands from the full-detail truth and whether the
        // truth falls inside the estimate's 95% confidence interval.
        const StatsRun &sampled = base.sampling ? base : mssr;
        const StatsRun &full = base.sampling ? mssr : base;
        const SampleEstimate &e = sampled.sampling->ipcEst;
        std::cout << "sampled-vs-full IPC: full " << analysis::fixed(
                         full.ipc, 4) << ", sampled estimate "
                  << analysis::fixed(e.mean, 4);
        if (!std::isnan(e.mean) && full.ipc > 0.0)
            std::cout << " (error "
                      << analysis::percent(e.mean / full.ipc - 1.0) << ")";
        if (!std::isnan(e.ci95))
            std::cout << "; full IPC "
                      << (e.covers(full.ipc) ? "inside" : "OUTSIDE")
                      << " the 95% CI +/- " << analysis::fixed(e.ci95, 4)
                      << " (n=" << e.n << ")";
        std::cout << "\n";
    }
    if (base.insts != mssr.insts)
        std::cout << "note: committed-instruction counts differ (" <<
            base.insts << " vs " << mssr.insts
                  << "); cycle and IPC deltas are not directly "
                     "equivalent\n";
    std::cout << "reused at rename: " << mssr.funnel.reused
              << " insts, salvaging "
              << mssr.cpi[CpiCat::ReuseSalvaged] << " dispatch slots\n\n";

    analysis::Table t({"category", base.scheme + " slots",
                       mssr.scheme + " slots", "delta", "CPI delta"});
    for (std::size_t i = 0; i < NumCpiCats; ++i) {
        const CpiCat cat = static_cast<CpiCat>(i);
        const std::int64_t delta =
            static_cast<std::int64_t>(mssr.cpi[cat]) -
            static_cast<std::int64_t>(base.cpi[cat]);
        t.addRow({toString(cat), count(base.cpi[cat]), count(mssr.cpi[cat]),
                  std::to_string(delta),
                  analysis::fixed(
                      mssr.cpi.cpiContribution(cat, mssr.insts,
                                               mssr.dispatchWidth) -
                          base.cpi.cpiContribution(cat, base.insts,
                                                   base.dispatchWidth),
                      4)});
    }
    t.print(std::cout);
}

/** Slots converted to whole cycles of the run's dispatch width. */
std::uint64_t
slotCycles(std::uint64_t slots, unsigned width)
{
    return width ? slots / width : 0;
}

/** Recovery slots of both kinds over a profile's branch records. */
std::uint64_t
recoverySlots(const PcProfile &p)
{
    return p.total(&BranchRecord::branchRecoverySlots) +
           p.total(&BranchRecord::flushRecoverySlots);
}

void
printProfile(const ProfileRun &r, unsigned topn)
{
    analysis::banner(std::cout,
                     r.name + " (" + r.scheme + ") per-PC profile");
    const std::uint64_t squashed =
        r.profile.total(&BranchRecord::squashedInsts);
    const std::uint64_t recCycles =
        slotCycles(recoverySlots(r.profile), r.width);
    const std::uint64_t salvaged = r.profile.totalSalvaged();
    std::cout << r.profile.branches().size() << " squash-cause PCs, "
              << r.profile.reconvs().size() << " reconvergence PCs; "
              << squashed << " insts squashed, " << recCycles
              << " recovery cycles, " << salvaged << " insts reused\n\n";

    std::vector<const BranchRecord *> hot = r.profile.branches().sortedByPc();
    std::sort(hot.begin(), hot.end(),
              [](const BranchRecord *a, const BranchRecord *b) {
                  if (a->recoverySlots() != b->recoverySlots())
                      return a->recoverySlots() > b->recoverySlots();
                  if (a->squashedInsts != b->squashedInsts)
                      return a->squashedInsts > b->squashedInsts;
                  return a->pc < b->pc;
              });
    if (hot.size() > topn)
        hot.resize(topn);

    std::cout << "top " << hot.size() << " branches by recovery penalty:\n";
    analysis::Table branches({"branch", "mispred", "squashed", "recov cy",
                              "share", "reused", "coverage", "reconv @"});
    const double recTotal =
        recCycles ? static_cast<double>(recCycles) : 1.0;
    for (const BranchRecord *b : hot) {
        const std::uint64_t cy = slotCycles(b->recoverySlots(), r.width);
        const Addr partner = b->topPartner();
        branches.addRow(
            {hexPc(b->pc), count(b->mispredicts), count(b->squashedInsts),
             count(cy), share(static_cast<double>(cy) / recTotal),
             count(b->reused),
             share(b->squashedInsts
                       ? static_cast<double>(b->reused) /
                             static_cast<double>(b->squashedInsts)
                       : 0.0),
             partner ? hexPc(partner) : std::string("-")});
    }
    branches.print(std::cout);

    std::vector<const ReconvRecord *> points =
        r.profile.reconvs().sortedByPc();
    std::sort(points.begin(), points.end(),
              [](const ReconvRecord *a, const ReconvRecord *b) {
                  if (a->instsSalvaged != b->instsSalvaged)
                      return a->instsSalvaged > b->instsSalvaged;
                  return a->pc < b->pc;
              });
    if (points.size() > topn)
        points.resize(topn);
    if (points.empty())
        return;
    std::cout << "\ntop " << points.size()
              << " reconvergence points by salvage:\n";
    analysis::Table reconv(
        {"reconv", "detections", "sessions", "salvaged", "share"});
    const double salvTotal =
        salvaged ? static_cast<double>(salvaged) : 1.0;
    for (const ReconvRecord *p : points) {
        reconv.addRow({hexPc(p->pc), count(p->detections),
                       count(p->sessions), count(p->instsSalvaged),
                       share(static_cast<double>(p->instsSalvaged) /
                             salvTotal)});
    }
    reconv.print(std::cout);
}

/**
 * Per-branch "cycles recovered by reuse": the recovery-cycle delta
 * between the runs plus the dispatch cycles the MSSR run salvaged at
 * that branch (reused slots / width) -- reuse mostly pays back by
 * salvaging work, not by shortening the refill window, so both terms
 * are shown.
 */
void
printProfileDiff(const ProfileRun &base, const ProfileRun &mssr,
                 unsigned topn)
{
    analysis::banner(std::cout, mssr.name + ": " + base.scheme + " vs " +
                                    mssr.scheme + " per-branch recovery");

    struct Row
    {
        Addr pc;
        std::int64_t baseCy;
        std::int64_t mssrCy;
        std::int64_t salvagedCy;
        std::uint64_t reused;
        std::uint64_t squashed;

        std::int64_t recovered() const { return baseCy - mssrCy + salvagedCy; }
    };
    std::vector<Row> rows;
    for (const BranchRecord *b : base.profile.branches().sortedByPc()) {
        const BranchRecord *m = mssr.profile.branches().find(b->pc);
        rows.push_back({b->pc,
                        static_cast<std::int64_t>(
                            slotCycles(b->recoverySlots(), base.width)),
                        static_cast<std::int64_t>(slotCycles(
                            m ? m->recoverySlots() : 0, mssr.width)),
                        static_cast<std::int64_t>(slotCycles(
                            m ? m->reused : 0, mssr.width)),
                        m ? m->reused : 0,
                        m ? m->squashedInsts : 0});
    }
    for (const BranchRecord *m : mssr.profile.branches().sortedByPc())
        if (!base.profile.branches().find(m->pc))
            rows.push_back({m->pc, 0,
                            static_cast<std::int64_t>(slotCycles(
                                m->recoverySlots(), mssr.width)),
                            static_cast<std::int64_t>(
                                slotCycles(m->reused, mssr.width)),
                            m->reused, m->squashedInsts});

    std::int64_t recoveredTotal = 0, deltaTotal = 0, salvagedTotal = 0;
    for (const Row &row : rows) {
        recoveredTotal += row.recovered();
        deltaTotal += row.baseCy - row.mssrCy;
        salvagedTotal += row.salvagedCy;
    }
    std::cout << "cycles recovered by reuse: " << recoveredTotal
              << " (recovery delta " << deltaTotal << " + salvaged dispatch "
              << salvagedTotal << ") across " << rows.size()
              << " branch PCs\n\n";

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.recovered() != b.recovered())
            return a.recovered() > b.recovered();
        return a.pc < b.pc;
    });
    if (rows.size() > topn)
        rows.resize(topn);

    analysis::Table t({"branch", base.scheme + " recov cy",
                       mssr.scheme + " recov cy", "salvaged cy", "recovered",
                       "reused", "coverage"});
    for (const Row &row : rows) {
        t.addRow({hexPc(row.pc), std::to_string(row.baseCy),
                  std::to_string(row.mssrCy),
                  std::to_string(row.salvagedCy),
                  std::to_string(row.recovered()), count(row.reused),
                  share(row.squashed
                            ? static_cast<double>(row.reused) /
                                  static_cast<double>(row.squashed)
                            : 0.0)});
    }
    t.print(std::cout);
}

/**
 * Disassembly listing of @p prog with the profile's records merged in:
 * every squash-cause PC and reconvergence PC is marked with its
 * normalized share of squashes / recovery cycles / salvage. Records
 * whose PC falls outside the code image (wrong-path fetch) are listed
 * separately so the annotation still accounts for every record.
 */
void
annotate(const ProfileRun &r, const std::string &prog_name,
         const isa::Program &prog)
{
    analysis::banner(std::cout, prog_name + " annotated with " + r.name +
                                    " (" + r.scheme + ")");
    const std::uint64_t squashed =
        r.profile.total(&BranchRecord::squashedInsts);
    const double squashTotal = squashed ? static_cast<double>(squashed) : 1.0;
    const std::uint64_t recCyTotal =
        slotCycles(recoverySlots(r.profile), r.width);
    const double recTotal =
        recCyTotal ? static_cast<double>(recCyTotal) : 1.0;
    const std::uint64_t salvaged = r.profile.totalSalvaged();
    const double salvTotal = salvaged ? static_cast<double>(salvaged) : 1.0;

    for (Addr pc = prog.codeBase(); pc < prog.codeEnd(); pc += InstBytes) {
        std::string line = hexPc(pc);
        line.resize(std::max<std::size_t>(line.size() + 2, 10), ' ');
        line += isa::disasm(prog.instAt(pc), pc);
        const BranchRecord *b = r.profile.branches().find(pc);
        const ReconvRecord *p = r.profile.reconvs().find(pc);
        if (b || p)
            line.resize(std::max<std::size_t>(line.size() + 2, 34), ' ');
        if (b) {
            const std::uint64_t cy = slotCycles(b->recoverySlots(), r.width);
            line += " ;; squash " + count(b->squashedInsts) + " (" +
                    share(static_cast<double>(b->squashedInsts) /
                          squashTotal) +
                    "), recovery " + count(cy) + "cy (" +
                    share(static_cast<double>(cy) / recTotal) +
                    "), reused " + count(b->reused);
        }
        if (p) {
            line += " ;; reconv " + count(p->detections) + " det, salvaged " +
                    count(p->instsSalvaged) + " (" +
                    share(static_cast<double>(p->instsSalvaged) / salvTotal) +
                    ")";
        }
        std::cout << line << "\n";
    }

    bool outsideHeader = false;
    auto outside = [&](Addr pc) {
        return !(pc >= prog.codeBase() && pc < prog.codeEnd());
    };
    for (const BranchRecord *b : r.profile.branches().sortedByPc()) {
        if (!outside(b->pc))
            continue;
        if (!outsideHeader) {
            std::cout << "records outside the code image "
                         "(wrong-path fetch):\n";
            outsideHeader = true;
        }
        std::cout << "  " << hexPc(b->pc) << " squash "
                  << count(b->squashedInsts) << ", reused "
                  << count(b->reused) << "\n";
    }
    for (const ReconvRecord *p : r.profile.reconvs().sortedByPc()) {
        if (!outside(p->pc))
            continue;
        if (!outsideHeader) {
            std::cout << "records outside the code image "
                         "(wrong-path fetch):\n";
            outsideHeader = true;
        }
        std::cout << "  " << hexPc(p->pc) << " reconv, salvaged "
                  << count(p->instsSalvaged) << "\n";
    }
}

// ------------------------------------------------ mssr-pipeview-v1 side

/** One closed stage interval of one instruction row. */
struct TimelineStage
{
    Cycle start = 0;
    Cycle end = 0; //!< exclusive
    unsigned lane = 0;
    std::string name;
};

/** One instruction parsed back out of a Kanata log. */
struct TimelineInst
{
    std::uint64_t id = 0;
    std::string label;
    std::vector<TimelineStage> stages;
    Cycle retire = 0;
    bool retired = false;
    bool flushed = false;

    Cycle
    firstCycle() const
    {
        Cycle c = retired ? retire : ~Cycle(0);
        for (const TimelineStage &s : stages)
            c = std::min(c, s.start);
        return c;
    }

    Cycle
    lastCycle() const
    {
        Cycle c = retired ? retire : 0;
        for (const TimelineStage &s : stages)
            c = std::max(c, s.end);
        return c;
    }
};

/**
 * Parses an mssr-pipeview-v1 Kanata 0004 log back into instruction
 * rows, re-verifying the format invariants on load (version line,
 * known record kinds, non-decreasing cycle, E matching an open S) so
 * the mode doubles as a consistency checker for CI.
 */
std::vector<TimelineInst>
loadKanata(const std::string &file)
{
    std::ifstream in(file);
    if (!in)
        malformed(file, "cannot open");
    std::string line;
    if (!std::getline(in, line) || line != "Kanata\t0004")
        malformed(file, "not a Kanata 0004 log (mssr_run --pipeview-out)");

    std::vector<TimelineInst> insts;
    std::map<std::uint64_t, std::size_t> index;
    std::map<std::pair<std::uint64_t, unsigned>,
             std::pair<Cycle, std::string>>
        open;
    Cycle cur = 0;
    bool cycleSet = false;

    auto fields = [&](const std::string &l) {
        std::vector<std::string> out;
        std::size_t pos = 0;
        while (true) {
            const std::size_t tab = l.find('\t', pos);
            if (tab == std::string::npos) {
                out.push_back(l.substr(pos));
                return out;
            }
            out.push_back(l.substr(pos, tab - pos));
            pos = tab + 1;
        }
    };
    auto num = [&](const std::string &v) {
        const std::optional<std::uint64_t> parsed = parseU64(v);
        if (!parsed)
            malformed(file, "malformed number '" + v + "'");
        return *parsed;
    };
    auto instAt = [&](std::uint64_t id) -> TimelineInst & {
        const auto it = index.find(id);
        if (it == index.end())
            malformed(file, "record for undeclared instruction id " +
                                std::to_string(id));
        return insts[it->second];
    };

    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::vector<std::string> f = fields(line);
        if (f[0] == "C=" && f.size() == 2) {
            const Cycle c = num(f[1]);
            if (cycleSet && c < cur)
                malformed(file, "cycle moved backwards");
            cur = c;
            cycleSet = true;
        } else if (f[0] == "C" && f.size() == 2) {
            cur += num(f[1]);
        } else if (f[0] == "I" && f.size() == 4) {
            TimelineInst inst;
            inst.id = num(f[1]);
            if (!index.emplace(inst.id, insts.size()).second)
                malformed(file, "duplicate instruction id " + f[1]);
            insts.push_back(std::move(inst));
        } else if (f[0] == "L" && f.size() >= 4) {
            if (num(f[2]) == 0)
                instAt(num(f[1])).label = f[3];
        } else if (f[0] == "S" && f.size() == 4) {
            TimelineInst &inst = instAt(num(f[1]));
            const unsigned lane = static_cast<unsigned>(num(f[2]));
            if (!open.emplace(std::make_pair(inst.id, lane),
                              std::make_pair(cur, f[3]))
                     .second)
                malformed(file, "overlapping stages on lane " + f[2] +
                                    " of instruction " + f[1]);
        } else if (f[0] == "E" && f.size() == 4) {
            TimelineInst &inst = instAt(num(f[1]));
            const unsigned lane = static_cast<unsigned>(num(f[2]));
            const auto it = open.find({inst.id, lane});
            if (it == open.end() || it->second.second != f[3])
                malformed(file, "stage end '" + f[3] +
                                    "' without a matching start");
            inst.stages.push_back(
                {it->second.first, cur, lane, it->second.second});
            open.erase(it);
        } else if (f[0] == "R" && f.size() == 4) {
            TimelineInst &inst = instAt(num(f[1]));
            inst.retire = cur;
            inst.retired = true;
            inst.flushed = num(f[3]) != 0;
        } else if (f[0] == "W" && f.size() == 4) {
            instAt(num(f[1]));
            instAt(num(f[2])); // both ends must be declared
        } else {
            malformed(file, "unrecognized record '" + f[0] + "'");
        }
    }
    if (!open.empty())
        malformed(file, "stage still open at end of log");
    return insts;
}

/** Timeline cell for a lane-0 pipeline stage. */
char
stageCell(const std::string &name)
{
    if (name == "F") return 'f';
    if (name == "Dc") return 'd';
    if (name == "Rn") return 'r';
    if (name == "Is") return 'i';
    if (name == "Cp") return 'c';
    if (name == "Cm") return 'C';
    return '?';
}

/** Overlay cell for a lane-1/2 squash-reuse marker. */
char
markerCell(const std::string &name)
{
    if (name == "Lg") return 'L';                 // appended to squash log
    if (name == "Cv") return 'V';                 // covered by reconvergence
    if (name == "Ts") return 'T';                 // reuse test ran
    if (name == "Sv") return 'S';                 // salvaged at rename
    if (!name.empty() && name[0] == 'R') return 'R'; // Ru/Rv: reused
    if (!name.empty() && name[0] == 'K') return 'K'; // K*: test kill
    return '?';
}

/**
 * One row per instruction whose lifecycle intersects
 * [@p start, @p start + @p len): pipeline stages lowercase, reuse-lane
 * markers overlaid uppercase, 'x' where a flush retires the row.
 */
void
printTimeline(const std::vector<TimelineInst> &insts, Cycle start,
              Cycle len)
{
    std::cout << "cycles " << start << ".." << start + len
              << " (f fetch, d decode, r rename, i issue, c complete, "
                 "C commit, x flushed;\n"
              << " lanes: L logged, V covered, T tested, R reused, "
                 "K killed, S salvaged)\n";
    std::string ruler(len, ' ');
    for (Cycle c = (start + 9) / 10 * 10; c < start + len; c += 10)
        ruler[c - start] = '|';
    std::cout << std::string(8, ' ') << ruler << "\n";

    std::size_t shown = 0;
    for (const TimelineInst &inst : insts) {
        if (inst.stages.empty() && !inst.retired)
            continue;
        if (inst.firstCycle() >= start + len || inst.lastCycle() < start)
            continue;
        std::string row(len, '.');
        auto put = [&](Cycle c, char ch) {
            if (c >= start && c < start + len)
                row[c - start] = ch;
        };
        for (const TimelineStage &s : inst.stages) {
            if (s.lane != 0)
                continue;
            for (Cycle c = s.start; c < s.end; ++c)
                put(c, stageCell(s.name));
        }
        if (inst.retired && inst.flushed)
            put(inst.retire, 'x');
        // Markers last: the reuse-lane lifecycle is what this view is
        // for, so it wins the cell over the stage underneath.
        for (const TimelineStage &s : inst.stages)
            if (s.lane != 0)
                put(s.start, markerCell(s.name));

        std::string head = std::to_string(inst.id);
        head.resize(std::max<std::size_t>(head.size() + 1, 8), ' ');
        std::cout << head << row << "  " << inst.label << "\n";
        ++shown;
    }
    std::cout << shown << " of " << insts.size()
              << " instructions intersect the window\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool diff = false;
    bool timeline = false;
    unsigned topn = 10;
    std::uint64_t timelineStart = 0;
    bool timelineStartSet = false;
    std::uint64_t timelineCycles = 80;
    std::string annotateProg;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--diff") {
            diff = true;
        } else if (arg == "--topn") {
            const std::string v = next();
            const std::optional<std::uint64_t> n = parseU64(v);
            if (!n || *n == 0) {
                std::cerr << "mssr_stats: invalid value '" << v
                          << "' for --topn (expected a positive integer)\n";
                usage();
            }
            topn = static_cast<unsigned>(
                std::min<std::uint64_t>(*n, 1u << 20));
        } else if (arg == "--annotate") {
            annotateProg = next();
        } else if (arg == "--timeline") {
            timeline = true;
        } else if (arg == "--start") {
            const std::string v = next();
            const std::optional<std::uint64_t> n = parseU64(v);
            if (!n) {
                std::cerr << "mssr_stats: invalid value '" << v
                          << "' for --start (expected an unsigned "
                             "integer)\n";
                usage();
            }
            timelineStart = *n;
            timelineStartSet = true;
        } else if (arg == "--cycles") {
            const std::string v = next();
            const std::optional<std::uint64_t> n = parseU64(v);
            if (!n || *n == 0) {
                std::cerr << "mssr_stats: invalid value '" << v
                          << "' for --cycles (expected a positive "
                             "integer)\n";
                usage();
            }
            timelineCycles = std::min<std::uint64_t>(*n, 1u << 20);
        } else if (arg == "--version") {
            std::cout << "mssr_stats " << buildInfoLine() << "\n";
            return 0;
        } else if (arg[0] == '-') {
            usage();
        } else {
            files.push_back(arg);
        }
    }

    try {
        if (timeline) {
            if (diff || !annotateProg.empty() || files.size() != 1)
                usage();
            const std::vector<TimelineInst> insts = loadKanata(files[0]);
            if (!timelineStartSet) {
                timelineStart = ~std::uint64_t(0);
                for (const TimelineInst &inst : insts)
                    if (!inst.stages.empty() || inst.retired)
                        timelineStart =
                            std::min(timelineStart, inst.firstCycle());
                if (timelineStart == ~std::uint64_t(0))
                    timelineStart = 0;
            }
            printTimeline(insts, timelineStart, timelineCycles);
            return 0;
        }
        if ((timelineStartSet || timelineCycles != 80) && !timeline) {
            std::cerr << "mssr_stats: --start/--cycles only apply to "
                         "--timeline\n";
            usage();
        }
        if (!annotateProg.empty()) {
            if (diff || files.size() != 1)
                usage();
            const JsonValue root = loadRoot(files[0]);
            const isa::Program prog = workloads::buildWorkload(
                annotateProg, workloads::WorkloadScale::fromEnv());
            for (const ProfileRun &r : readProfileRuns(files[0], root))
                annotate(r, annotateProg, prog);
            return 0;
        }
        if (diff) {
            if (files.size() != 2)
                usage();
            const JsonValue baseRoot = loadRoot(files[0]);
            const JsonValue mssrRoot = loadRoot(files[1]);
            if (schemaOf(files[0], baseRoot) !=
                schemaOf(files[1], mssrRoot))
                malformed(files[1], "schema differs from '" + files[0] +
                                        "' (cannot diff stats against a "
                                        "profile)");
            bool paired = false;
            if (schemaOf(files[0], baseRoot) == "mssr-profile-v1") {
                const std::vector<ProfileRun> base =
                    readProfileRuns(files[0], baseRoot);
                const std::vector<ProfileRun> mssr =
                    readProfileRuns(files[1], mssrRoot);
                for (std::size_t i = 0; i < mssr.size(); ++i) {
                    if (const ProfileRun *b =
                            matchRun(base, mssr[i], i)) {
                        printProfileDiff(*b, mssr[i], topn);
                        paired = true;
                    }
                }
            } else {
                const std::vector<StatsRun> base =
                    readStatsRuns(files[0], baseRoot);
                const std::vector<StatsRun> mssr =
                    readStatsRuns(files[1], mssrRoot);
                for (std::size_t i = 0; i < mssr.size(); ++i) {
                    if (const StatsRun *b = matchRun(base, mssr[i], i)) {
                        printDiff(*b, mssr[i]);
                        paired = true;
                    }
                }
            }
            if (!paired) {
                std::cerr << "mssr_stats: no runs could be paired between '"
                          << files[0] << "' and '" << files[1] << "'\n";
                return 1;
            }
            return 0;
        }
        if (files.size() != 1)
            usage();
        const JsonValue root = loadRoot(files[0]);
        if (schemaOf(files[0], root) == "mssr-profile-v1") {
            for (const ProfileRun &r : readProfileRuns(files[0], root))
                printProfile(r, topn);
        } else {
            for (const StatsRun &r : readStatsRuns(files[0], root))
                printRun(r);
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "mssr_stats: " << e.what() << "\n";
        return 1;
    }
}
