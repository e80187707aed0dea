#include "common/pipeview.hh"

#include <algorithm>
#include <ostream>
#include <queue>

#include "common/frame.hh"
#include "common/log.hh"
#include "common/probe.hh"

namespace mssr
{

PipeView::PipeView(Feeds feeds) : feeds_(feeds)
{
    if (!feeds_.kanata)
        events_.reserve(kTraceEvents);
}

bool
PipeView::inWindow(const ProbeEvent &e)
{
    const bool cycleIn = e.cycle >= winStart_ && e.cycle < winEnd_;
    if (e.kind == ProbeKind::Fetch) {
        if (cycleIn) {
            if (firstSeq_ == 0)
                firstSeq_ = e.seq;
            lastSeq_ = e.seq;
        }
        return cycleIn;
    }
    if (e.seq == 0)
        return cycleIn;
    auto fetchedIn = [&](SeqNum seq) {
        return firstSeq_ != 0 && seq >= firstSeq_ && seq <= lastSeq_;
    };
    return fetchedIn(e.seq) || fetchedIn(e.donorSeq);
}

void
PipeView::onEvent(const ProbeEvent &e)
{
    switch (e.kind) {
      case ProbeKind::Fetch: ++counts_.fetched; break;
      case ProbeKind::Rename: ++counts_.renamed; break;
      case ProbeKind::Issue: ++counts_.issued; break;
      case ProbeKind::Writeback: ++counts_.completed; break;
      case ProbeKind::Commit: ++counts_.committed; break;
      case ProbeKind::SquashInst: ++counts_.squashed; break;
      case ProbeKind::Logged: ++counts_.logged; break;
      case ProbeKind::Covered: ++counts_.covered; break;
      case ProbeKind::ReuseTest:
        if (!e.firstTest)
            break;
        ++counts_.tested;
        countKill(counts_, e.reuse);
        counts_.reused += isReuse(e.reuse);
        break;
      default: break;
    }

    if (!inWindow(e))
        return;
    const bool traceEvent = e.kind <= ProbeKind::Verify;
    recorded_ += traceEvent;
    if (feeds_.kanata) {
        events_.push_back(e);
    } else if (traceEvent) {
        if (events_.size() < kTraceEvents) {
            events_.push_back(e);
        } else {
            events_[next_] = e;
            next_ = next_ + 1 == kTraceEvents ? 0 : next_ + 1;
        }
    }
}

const PipeView::Record *
PipeView::findRecord(const std::vector<Record> &rows, SeqNum seq)
{
    if (rows.empty() || seq < rows.front().seq)
        return nullptr;
    const std::uint64_t i = seq - rows.front().seq;
    return i < rows.size() ? &rows[i] : nullptr;
}

std::vector<PipeView::Record>
PipeView::records() const
{
    mssr_assert(feeds_.kanata, "only a Kanata recorder holds whole rows");
    std::vector<Record> rows;
    // Exactly one row per fetch: growing by doubling would hold up to
    // twice the rows while the export runs.
    rows.reserve(std::count_if(
        events_.begin(), events_.end(),
        [](const ProbeEvent &e) { return e.kind == ProbeKind::Fetch; }));
    auto find = [&](SeqNum seq) {
        return const_cast<Record *>(findRecord(rows, seq));
    };
    auto stamp = [&](Cycle Record::*step, const ProbeEvent &e) {
        if (Record *r = find(e.seq))
            r->*step = e.cycle;
    };
    for (const ProbeEvent &e : events_) {
        switch (e.kind) {
          case ProbeKind::Fetch:
            mssr_assert(rows.empty() || e.seq == rows.back().seq + 1,
                        "pipeview records must hold one contiguous seq "
                        "range");
            rows.push_back({.seq = e.seq, .pc = e.pc, .fetch = e.cycle,
                            .decode = e.aux});
            break;
          case ProbeKind::Rename: stamp(&Record::rename, e); break;
          case ProbeKind::Issue: stamp(&Record::issue, e); break;
          case ProbeKind::Writeback: stamp(&Record::complete, e); break;
          case ProbeKind::Commit: stamp(&Record::commit, e); break;
          case ProbeKind::Logged: stamp(&Record::logged, e); break;
          case ProbeKind::Covered: stamp(&Record::covered, e); break;
          case ProbeKind::SquashInst:
            if (Record *r = find(e.seq)) {
                r->squash = e.cycle;
                r->squashReason = e.squash;
            }
            break;
          case ProbeKind::ReuseTest:
            if (!e.firstTest)
                break;
            if (Record *r = find(e.donorSeq)) {
                r->tested = e.cycle;
                r->verdict = e.reuse;
            }
            if (!isReuse(e.reuse))
                break;
            // Adopter e.seq is salvaged: it skips re-execution, except
            // a verify load, which re-issues as a verification op.
            if (Record *r = find(e.donorSeq)) {
                r->reuseDone = e.cycle;
                r->adopterSeq = e.seq;
            }
            if (Record *r = find(e.seq)) {
                r->salvage = e.cycle;
                r->donorSeq = e.donorSeq;
                r->needVerify = e.reuse == ReuseOutcome::ReusedNeedVerify;
            }
            break;
          default: break;
        }
    }
    return rows;
}

namespace
{

/**
 * One Kanata line, kept unformatted until it is written. Lines go out
 * by cycle, ties in the order rows and their lines were generated:
 * (cycle, row, order).
 */
struct KanataLine
{
    Cycle cycle;
    std::uint32_t row;    //!< record index, the line's Kanata id
    std::uint32_t order;  //!< position among the row's lines
    char op;              //!< Kanata command: I, L, S, E, W or R
    unsigned lane;        //!< L: 0 label / 1 detail; S, E: lane
    const char *name;     //!< S, E: stage name
    std::uint64_t arg;    //!< W: donor id; R: 0 retired / 1 flushed
};

/** Heap order for KanataLine: the top is the next line to write. */
struct KanataLater
{
    bool
    operator()(const KanataLine &a, const KanataLine &b) const
    {
        if (a.cycle != b.cycle)
            return a.cycle > b.cycle;
        if (a.row != b.row)
            return a.row > b.row;
        return a.order > b.order;
    }
};

/** Short stage name for a reuse-test verdict (lane 2 marker). */
const char *
verdictStage(ReuseOutcome verdict)
{
    switch (verdict) {
      case ReuseOutcome::Reused: return "Ru";
      case ReuseOutcome::ReusedNeedVerify: return "Rv";
      case ReuseOutcome::FailRgid: return "Kr";
      case ReuseOutcome::FailRgidCapacity: return "Kc";
      case ReuseOutcome::FailNotExecuted: return "Kx";
      case ReuseOutcome::FailKind: return "Kk";
      case ReuseOutcome::FailBloom: return "Kb";
      default: return nullptr;
    }
}

} // namespace

std::size_t
PipeView::writeKanata(std::ostream &os, const std::string &meta_fields) const
{
    const std::vector<Record> rows = records();
    // Header: version line, then the mssr-pipeview-v1 comment
    // (docs/FORMATS.md section 11). Konata skips unknown/comment lines.
    os << "Kanata\t0004\n";
    os << "# mssr-pipeview-v1 {\"schema\": \"mssr-pipeview-v1\", ";
    if (!meta_fields.empty())
        os << meta_fields << ", ";
    if (winStart_ == 0 && winEnd_ == NoStamp)
        os << "\"window\": null, ";
    else
        os << "\"window\": {\"start\": " << winStart_ << ", \"end\": "
           << winEnd_ << "}, ";
    os << "\"counts\": {\"fetched\": " << counts_.fetched
       << ", \"renamed\": " << counts_.renamed
       << ", \"issued\": " << counts_.issued
       << ", \"completed\": " << counts_.completed
       << ", \"committed\": " << counts_.committed
       << ", \"squashed\": " << counts_.squashed
       << ", \"logged\": " << counts_.logged
       << ", \"covered\": " << counts_.covered
       << ", \"tested\": " << counts_.tested
       << ", \"kill_kind\": " << counts_.killKind
       << ", \"kill_not_executed\": " << counts_.killNotExecuted
       << ", \"kill_rgid\": " << counts_.killRgid
       << ", \"kill_rgid_capacity\": " << counts_.killRgidCapacity
       << ", \"kill_bloom\": " << counts_.killBloom
       << ", \"reused\": " << counts_.reused
       << "}, \"records\": " << rows.size() << "}\n";

    // Each row's lines are generated in fetch order and merged by
    // cycle through a heap, so only lines that a later row could still
    // precede are held, and none as text. low[i] is no later than any
    // line of rows i onward: a line at or before it can be written.
    std::vector<Cycle> low(rows.size() + 1, NoStamp);
    for (std::size_t i = rows.size(); i-- > 0;) {
        const Record &r = rows[i];
        Cycle first = low[i + 1];
        for (Cycle c : {r.fetch, r.decode, r.rename, r.issue, r.complete,
                        r.commit, r.logged, r.covered, r.tested, r.salvage})
            first = std::min(first, c);
        low[i] = first;
    }

    std::priority_queue<KanataLine, std::vector<KanataLine>, KanataLater>
        pending;
    bool first = true;
    Cycle cur = 0;
    auto write = [&](const KanataLine &l) {
        if (first) {
            os << "C=\t" << l.cycle << "\n";
            cur = l.cycle;
            first = false;
        } else if (l.cycle != cur) {
            os << "C\t" << (l.cycle - cur) << "\n";
            cur = l.cycle;
        }
        const Record &r = rows[l.row];
        os << l.op << '\t' << l.row << '\t';
        switch (l.op) {
          case 'I':
            os << r.seq << "\t0";
            break;
          case 'L':
            os << l.lane << '\t';
            if (l.lane == 0) {
                os << '[' << r.seq << "] " << hexPc(r.pc);
                if (r.salvage != NoStamp)
                    os << (r.needVerify ? " salvaged+verify" : " salvaged");
            } else {
                os << "seq=" << r.seq << " pc=" << hexPc(r.pc);
                if (r.squash != NoStamp)
                    os << " squash=" << toString(r.squashReason);
                if (r.verdict != ReuseOutcome::None)
                    os << " verdict=" << toString(r.verdict);
                if (r.adopterSeq != 0)
                    os << " adopter=" << r.adopterSeq;
                if (r.donorSeq != 0)
                    os << " donor=" << r.donorSeq;
            }
            break;
          case 'S':
          case 'E':
            os << l.lane << '\t' << l.name;
            break;
          case 'W':
            os << l.arg << "\t0";
            break;
          default: // 'R'
            os << r.seq << '\t' << l.arg;
            break;
        }
        os << '\n';
    };

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Record &r = rows[i];
        std::uint32_t order = 0;
        auto push = [&](Cycle c, char op, unsigned lane = 0,
                        const char *name = nullptr, std::uint64_t arg = 0) {
            pending.push({c, static_cast<std::uint32_t>(i), order++, op,
                          lane, name, arg});
        };

        push(r.fetch, 'I');
        push(r.fetch, 'L', 0);
        push(r.fetch, 'L', 1);

        // Lane 0: pipeline stages. Starts are non-decreasing by
        // construction; stamps at or past the termination cycle are
        // clamped away (e.g. decode of a frontend-squashed fetch).
        struct StageStamp { const char *name; Cycle start; };
        StageStamp all[] = {{"F", r.fetch},   {"Dc", r.decode},
                            {"Rn", r.rename}, {"Is", r.issue},
                            {"Cp", r.complete}, {"Cm", r.commit}};
        const bool committed = r.commit != NoStamp;
        const bool squashed = r.squash != NoStamp;
        Cycle term;
        if (committed) {
            term = r.commit + 1;
        } else if (squashed) {
            term = std::max(r.squash, r.fetch + 1);
        } else {
            term = r.fetch + 1; // still in flight at halt
            for (const StageStamp &s : all)
                if (s.start != NoStamp)
                    term = std::max(term, s.start + 1);
        }
        const StageStamp *prev = nullptr;
        for (const StageStamp &s : all) {
            if (s.start == NoStamp || s.start >= term)
                continue;
            if (prev && s.start <= prev->start)
                continue; // zero-length stage: merged into predecessor
            if (prev)
                push(s.start, 'E', 0, prev->name);
            push(s.start, 'S', 0, s.name);
            prev = &s;
        }
        if (prev)
            push(term, 'E', 0, prev->name);

        // Lanes 1/2: squash-log lifecycle and reuse-test verdicts,
        // width-1 markers. These outlive a squashed donor's flush, so
        // the retire record is deferred past the last marker to keep
        // the row visible in Konata until its salvage resolves.
        Cycle lastMark = 0;
        auto mark = [&](Cycle c, unsigned lane, const char *name) {
            if (c == NoStamp)
                return;
            push(c, 'S', lane, name);
            push(c + 1, 'E', lane, name);
            lastMark = std::max(lastMark, c + 1);
        };
        mark(r.logged, 1, "Lg");
        mark(r.covered, 1, "Cv");
        mark(r.tested, 1, "Ts");
        if (const char *v = verdictStage(r.verdict))
            mark(r.tested, 2, v);
        if (r.salvage != NoStamp) {
            mark(r.salvage, 2, "Sv");
            // Kanata file ids are record indices; a donor fetched
            // before the window has none.
            if (const Record *donor = findRecord(rows, r.donorSeq))
                push(r.salvage, 'W', 0, nullptr,
                     static_cast<std::uint64_t>(donor - rows.data()));
        }

        if (committed)
            push(term, 'R', 0, nullptr, 0);
        else if (squashed)
            push(std::max(term, lastMark), 'R', 0, nullptr, 1);
        // Still in flight at halt: no retire record.

        while (!pending.empty() && pending.top().cycle <= low[i + 1]) {
            write(pending.top());
            pending.pop();
        }
    }
    while (!pending.empty()) {
        write(pending.top());
        pending.pop();
    }
    return rows.size();
}


void
PipeView::writeText(std::ostream &os, std::size_t last_n) const
{
    const std::uint64_t printed = recorded_ - dropped();
    std::uint64_t skip = last_n == 0 || last_n >= printed ? 0
                                                          : printed - last_n;
    forEachTraceEvent([&](const ProbeEvent &e) {
        if (skip != 0) {
            --skip;
            return;
        }
        os << e.cycle << " " << toString(e.kind) << " [" << e.seq << "] "
           << hexPc(e.pc);
        if (e.reuse != ReuseOutcome::None)
            os << " reuse=" << toString(e.reuse);
        if (e.squash != SquashReason::None)
            os << " squash=" << toString(e.squash);
        if (e.arg != 0)
            os << " arg=" << e.arg;
        os << "\n";
    });
    if (dropped() != 0)
        os << "(" << dropped() << " older events dropped by the "
           << kTraceEvents << "-entry ring)\n";
}

void
writeChromeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, const PipeView *>> &jobs)
{
    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n    " : ",\n    ");
        first = false;
    };
    for (std::size_t pid = 0; pid < jobs.size(); ++pid) {
        auto meta = [&](const char *name, unsigned tid,
                        const std::string &value) {
            sep();
            os << "{\"name\": \"" << name << "\", \"ph\": \"M\", \"pid\": "
               << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
               << jsonEscape(value) << "\"}}";
        };
        meta("process_name", 0, jobs[pid].first);
        for (unsigned k = 0; k <= static_cast<unsigned>(ProbeKind::Verify);
             ++k)
            meta("thread_name", k, toString(static_cast<ProbeKind>(k)));
    }
    for (std::size_t pid = 0; pid < jobs.size(); ++pid) {
        jobs[pid].second->forEachTraceEvent([&](const ProbeEvent &e) {
            sep();
            os << "{\"name\": \"" << toString(e.kind)
               << "\", \"cat\": \"pipeline\", \"ph\": \"X\", \"ts\": "
               << e.cycle << ", \"dur\": 1, \"pid\": " << pid
               << ", \"tid\": " << static_cast<unsigned>(e.kind)
               << ", \"args\": {\"seq\": " << e.seq << ", \"pc\": \""
               << hexPc(e.pc) << "\"";
            if (e.reuse != ReuseOutcome::None)
                os << ", \"reuse\": \"" << toString(e.reuse) << "\"";
            if (e.squash != SquashReason::None)
                os << ", \"squash\": \"" << toString(e.squash) << "\"";
            os << ", \"arg\": " << e.arg << "}}";
        });
    }
    // Dropped trace events per job (pid order): readers of a partial
    // trace can tell how many older events were left out.
    os << "\n  ],\n  \"dropped_events\": [";
    for (std::size_t pid = 0; pid < jobs.size(); ++pid)
        os << (pid == 0 ? "" : ", ") << jobs[pid].second->dropped();
    os << "]\n}\n";
}

} // namespace mssr
