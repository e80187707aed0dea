/**
 * The recorder's traces (`--trace` text and `--trace-out` Chrome JSON,
 * rendered by PipeView): the newest-events bound and its drop notes,
 * exporter round-trips through the mini_json reader, determinism of
 * the event stream across batch worker counts, zero allocation while
 * recording, no perturbation of simulation results and the window
 * rule.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <sstream>

#include "common/mini_json.hh"
#include "common/pipeview.hh"
#include "driver/batch_runner.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "test_helpers.hh"

using namespace mssr;
using minijson::JsonParser;
using minijson::JsonValue;

namespace
{

using test::squashyProgram;

bool
sameEvent(const ProbeEvent &a, const ProbeEvent &b)
{
    return a.cycle == b.cycle && a.seq == b.seq && a.pc == b.pc &&
           a.arg == b.arg && a.kind == b.kind && a.reuse == b.reuse &&
           a.squash == b.squash;
}

/** The trace events @p view prints, oldest first. */
std::vector<ProbeEvent>
traceEvents(const PipeView &view)
{
    std::vector<ProbeEvent> out;
    view.forEachTraceEvent([&](const ProbeEvent &e) { out.push_back(e); });
    return out;
}

std::string
text(const PipeView &view, std::size_t last_n = 0)
{
    std::ostringstream os;
    view.writeText(os, last_n);
    return os.str();
}

constexpr PipeView::Feeds TraceOnly{.trace = true};
constexpr PipeView::Feeds KanataAndTrace{.kanata = true, .trace = true};

} // namespace

TEST(Tracer, RingWraparoundKeepsNewestEvents)
{
    constexpr std::uint64_t N = PipeView::kTraceEvents + 12;
    PipeView t(TraceOnly);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(traceEvents(t).empty());

    // A Kanata recorder holds every event, the instruction-less and
    // non-trace ones too, yet prints the same newest trace events.
    PipeView full(KanataAndTrace);
    for (std::uint64_t i = 1; i <= N; ++i) {
        const ProbeEvent e{.kind = ProbeKind::Fetch, .cycle = i * 10,
                           .seq = i, .pc = 0x1000 + i * 4};
        t.onEvent(e);
        full.onEvent(e);
        full.onEvent({.kind = ProbeKind::Logged, .cycle = i * 10,
                      .seq = i});
    }
    EXPECT_EQ(t.recorded(), N);
    EXPECT_EQ(t.dropped(), 12u);
    const std::vector<ProbeEvent> kept = traceEvents(t);
    ASSERT_EQ(kept.size(), PipeView::kTraceEvents);
    // Oldest retained is seq 13, newest seq N, strictly ordered.
    for (std::size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i].seq, 13u + i);
        EXPECT_EQ(kept[i].cycle, (13u + i) * 10);
        EXPECT_EQ(kept[i].pc, 0x1000 + (13u + i) * 4);
    }

    // Text rendering reports the drop count after wraparound.
    EXPECT_NE(text(t).find("(12 older events dropped by the 65536-entry "
                           "ring)\n"),
              std::string::npos);
    EXPECT_EQ(full.recorded(), N);
    EXPECT_EQ(full.dropped(), 12u);
    EXPECT_EQ(text(full), text(t));
    EXPECT_EQ(text(full, 3), text(t, 3));
    EXPECT_EQ(text(t, 3).substr(0, text(t, 3).find(' ')),
              std::to_string((N - 2) * 10));
}

TEST(Tracer, RecordingNeverReallocates)
{
    PipeView t(TraceOnly);
    const void *buf = t.bufferAddress();
    const std::uint64_t insts = 2 * PipeView::kTraceEvents;
    for (std::uint64_t i = 1; i <= insts; ++i) {
        t.onEvent({.kind = ProbeKind::Fetch, .seq = i, .pc = i * 4});
        t.onEvent({.kind = ProbeKind::Writeback,
                   .reuse = ReuseOutcome::Reused, .seq = i, .pc = i * 4,
                   .arg = i});
    }
    EXPECT_EQ(t.bufferAddress(), buf);
    EXPECT_EQ(t.recorded(), 2 * insts);
    EXPECT_EQ(t.dropped(), 2 * insts - PipeView::kTraceEvents);
}

TEST(Tracer, ChromeJsonParsesBack)
{
    const isa::Program prog = squashyProgram();
    PipeView tracer(TraceOnly);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.pipeview = &tracer;
    runSim(prog, cfg);
    ASSERT_GT(tracer.recorded(), 0u);

    std::ostringstream os;
    writeChromeJson(os, {{"squashy", &tracer}});
    const JsonValue root = JsonParser(os.str()).parse();
    ASSERT_EQ(root.kind, JsonValue::Object);
    const auto events = root.object.find("traceEvents");
    ASSERT_NE(events, root.object.end());
    ASSERT_EQ(events->second.kind, JsonValue::Array);

    std::size_t complete = 0, metadata = 0;
    bool sawProcessName = false;
    for (const JsonValue &e : events->second.array) {
        ASSERT_EQ(e.kind, JsonValue::Object);
        const auto ph = e.object.find("ph");
        ASSERT_NE(ph, e.object.end());
        for (const char *key : {"name", "pid", "tid"})
            EXPECT_NE(e.object.find(key), e.object.end()) << key;
        if (ph->second.string == "X") {
            ++complete;
            const auto args = e.object.find("args");
            ASSERT_NE(args, e.object.end());
            EXPECT_NE(args->second.object.find("seq"),
                      args->second.object.end());
            EXPECT_NE(args->second.object.find("pc"),
                      args->second.object.end());
        } else {
            ASSERT_EQ(ph->second.string, "M");
            ++metadata;
            const auto name = e.object.find("name");
            if (name->second.string == "process_name") {
                sawProcessName = true;
                EXPECT_EQ(e.object.at("args").object.at("name").string,
                          "squashy");
            }
        }
    }
    EXPECT_EQ(complete, traceEvents(tracer).size());
    EXPECT_TRUE(sawProcessName);
    EXPECT_GT(metadata, 0u);

    // Multi-job export: one pid per job.
    PipeView other(TraceOnly);
    other.onEvent({.kind = ProbeKind::Fetch, .seq = 1, .pc = 0x100});
    std::ostringstream multi;
    writeChromeJson(multi, {{"a", &tracer}, {"b", &other}});
    const JsonValue mroot = JsonParser(multi.str()).parse();
    std::set<double> pids;
    for (const JsonValue &e : mroot.object.at("traceEvents").array)
        pids.insert(e.object.at("pid").number);
    EXPECT_EQ(pids, (std::set<double>{0.0, 1.0}));
    // Dropped-event accounting: one entry per job, pid order.
    const auto mdrops = mroot.object.find("dropped_events");
    ASSERT_NE(mdrops, mroot.object.end());
    ASSERT_EQ(mdrops->second.array.size(), 2u);
    EXPECT_EQ(mdrops->second.array[0].number,
              static_cast<double>(tracer.dropped()));
    EXPECT_EQ(mdrops->second.array[1].number,
              static_cast<double>(other.dropped()));
}

TEST(Tracer, ChromeJsonEscapesControlCharactersInLabels)
{
    // A job label is user input (a workload name or an --asm path), so
    // a tab or newline in it must come out as a JSON escape: a raw
    // control byte inside a string makes the whole file invalid JSON.
    PipeView tracer(TraceOnly);
    tracer.onEvent({.kind = ProbeKind::Fetch, .seq = 1, .pc = 0x100});
    std::ostringstream os;
    writeChromeJson(os, {{"a\tb\nc", &tracer}});
    const std::string out = os.str();
    EXPECT_NE(out.find("\"a\\tb\\nc\""), std::string::npos);

    bool inString = false;
    bool escaped = false;
    for (const char c : out) {
        if (inString) {
            ASSERT_GE(static_cast<unsigned char>(c), 0x20)
                << "raw control byte inside a JSON string";
        }
        if (escaped)
            escaped = false;
        else if (inString && c == '\\')
            escaped = true;
        else if (c == '"')
            inString = !inString;
    }
    EXPECT_FALSE(inString);
}

TEST(Tracer, EventStreamIdenticalAcrossWorkerCounts)
{
    // The per-job event stream must be bit-identical whether the batch
    // runs sequentially or on 4 workers.
    const isa::Program prog = squashyProgram();
    const std::vector<SimConfig> cfgs = {
        specConfig({.streams = 4, .entries = 64}),
        specConfig({.streams = 1, .entries = 32}),
        specConfig({.scheme = "none"}),
        specConfig({.scheme = "regint", .sets = 64, .ways = 2})};

    auto runWith = [&](unsigned workers, std::deque<PipeView> &tracers) {
        std::vector<BatchJob> jobs;
        for (const SimConfig &cfg : cfgs) {
            tracers.emplace_back(TraceOnly);
            SimConfig jobCfg = cfg;
            jobCfg.pipeview = &tracers.back();
            jobs.push_back(
                {"job" + std::to_string(jobs.size()), &prog, jobCfg, {}});
        }
        BatchRunner(workers).run(jobs);
    };

    std::deque<PipeView> seq, par;
    runWith(1, seq);
    runWith(4, par);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t j = 0; j < seq.size(); ++j) {
        ASSERT_EQ(seq[j].recorded(), par[j].recorded()) << "job " << j;
        const std::vector<ProbeEvent> a = traceEvents(seq[j]);
        const std::vector<ProbeEvent> b = traceEvents(par[j]);
        ASSERT_EQ(a.size(), b.size()) << "job " << j;
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(sameEvent(a[i], b[i]))
                << "job " << j << " event " << i;
    }
}

TEST(Tracer, TracingDoesNotPerturbSimulation)
{
    // Bit-identical architectural results and counters with recording
    // off, holding every event, and in a ring that wraps.
    const isa::Program prog = squashyProgram(3000);
    const SimConfig cfg = specConfig({.streams = 4, .entries = 64});

    const RunResult off = runSim(prog, cfg);

    PipeView big(KanataAndTrace);
    SimConfig withBig = cfg;
    withBig.pipeview = &big;
    const RunResult on = runSim(prog, withBig);

    PipeView ring(TraceOnly);
    SimConfig withRing = cfg;
    withRing.pipeview = &ring;
    const RunResult wrapped = runSim(prog, withRing);

    for (const RunResult *r : {&on, &wrapped}) {
        EXPECT_EQ(off.cycles, r->cycles);
        EXPECT_EQ(off.insts, r->insts);
        EXPECT_EQ(off.archRegs, r->archRegs);
        EXPECT_EQ(off.stats.scalars(), r->stats.scalars());
    }
    EXPECT_GT(ring.dropped(), 0u) << "the run must wrap the ring";
    EXPECT_EQ(big.recorded(), ring.recorded());
    EXPECT_EQ(text(big), text(ring));
}

TEST(Tracer, WindowHoldsEventsOfInstructionsFetchedInIt)
{
    // One window rule for every rendering: an event is held when an
    // instruction it names (seq, or a reuse test's donorSeq) was
    // fetched in [start, end); an instruction-less event when its
    // cycle is. The unwindowed run's rows give every fetch cycle.
    const isa::Program prog = squashyProgram();
    const SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    PipeView all(KanataAndTrace);
    SimConfig allCfg = cfg;
    allCfg.pipeview = &all;
    runSim(prog, allCfg);
    const std::vector<PipeView::Record> rows = all.records();
    ASSERT_LT(all.recorded(), PipeView::kTraceEvents);

    constexpr Cycle Start = 200, End = 260;
    auto fetchedIn = [&](SeqNum seq) {
        const PipeView::Record *r = PipeView::findRecord(rows, seq);
        return r && r->fetch >= Start && r->fetch < End;
    };
    auto held = [&](const ProbeEvent &e) {
        if (e.seq == 0)
            return e.cycle >= Start && e.cycle < End;
        return fetchedIn(e.seq) || fetchedIn(e.donorSeq);
    };

    for (const PipeView::Feeds feeds : {TraceOnly, KanataAndTrace}) {
        PipeView win(feeds);
        win.setWindow(Start, End);
        SimConfig winCfg = cfg;
        winCfg.pipeview = &win;
        runSim(prog, winCfg);

        std::set<ProbeKind> kinds;
        bool outsideCycle = false;
        const std::vector<ProbeEvent> got = traceEvents(win);
        for (const ProbeEvent &e : got) {
            EXPECT_TRUE(held(e)) << toString(e.kind) << " seq " << e.seq
                                 << " cycle " << e.cycle;
            kinds.insert(e.kind);
            outsideCycle |= e.cycle >= End;
        }
        // Exactly the unwindowed run's events that the rule holds.
        std::vector<ProbeEvent> want;
        for (const ProbeEvent &e : traceEvents(all))
            if (held(e))
                want.push_back(e);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(sameEvent(got[i], want[i])) << "event " << i;
        // Held instructions are followed through retirement.
        EXPECT_TRUE(outsideCycle);
        EXPECT_TRUE(kinds.count(ProbeKind::Commit));
        EXPECT_TRUE(kinds.count(ProbeKind::Squash));
        EXPECT_EQ(win.recorded(), got.size());
        EXPECT_EQ(win.dropped(), 0u);
        // Counters ignore the window.
        EXPECT_EQ(win.counts().committed, all.counts().committed);
    }
}
