#include "common/pipeview.hh"

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <string_view>

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

/** One Kanata line pending emission, sorted by cycle (stable). */
struct KanataEvent
{
    Cycle cycle;
    std::string text;
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

    std::vector<KanataEvent> evs;
    // Built by append (not operator+ chains: GCC 12's -Wrestrict
    // false-positives on the rvalue concatenation overloads).
    auto push = [&](Cycle c, std::initializer_list<std::string_view> parts) {
        std::string text;
        for (std::string_view part : parts)
            text += part;
        evs.push_back({c, std::move(text)});
    };
    auto num = [](std::uint64_t v) { return std::to_string(v); };

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Record &r = rows[i];
        const std::string id = num(i);

        push(r.fetch, {"I\t", id, "\t", num(r.seq), "\t0"});

        std::string label = "[";
        label += num(r.seq);
        label += "] ";
        label += hexPc(r.pc);
        if (r.salvage != NoStamp)
            label += r.needVerify ? " salvaged+verify" : " salvaged";
        push(r.fetch, {"L\t", id, "\t0\t", label});

        std::string detail = "seq=";
        detail += num(r.seq);
        detail += " pc=";
        detail += hexPc(r.pc);
        if (r.squash != NoStamp) {
            detail += " squash=";
            detail += toString(r.squashReason);
        }
        if (r.verdict != ReuseOutcome::None) {
            detail += " verdict=";
            detail += toString(r.verdict);
        }
        if (r.adopterSeq != 0) {
            detail += " adopter=";
            detail += num(r.adopterSeq);
        }
        if (r.donorSeq != 0) {
            detail += " donor=";
            detail += num(r.donorSeq);
        }
        push(r.fetch, {"L\t", id, "\t1\t", detail});

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
        std::vector<StageStamp> stages;
        for (const StageStamp &s : all) {
            if (s.start == NoStamp || s.start >= term)
                continue;
            if (!stages.empty() && s.start <= stages.back().start)
                continue; // zero-length stage: merged into predecessor
            stages.push_back(s);
        }
        for (std::size_t k = 0; k < stages.size(); ++k) {
            if (k > 0)
                push(stages[k].start,
                     {"E\t", id, "\t0\t", stages[k - 1].name});
            push(stages[k].start, {"S\t", id, "\t0\t", stages[k].name});
        }
        if (!stages.empty())
            push(term, {"E\t", id, "\t0\t", stages.back().name});

        // Lanes 1/2: squash-log lifecycle and reuse-test verdicts,
        // width-1 markers. These outlive a squashed donor's flush, so
        // the retire record is deferred past the last marker to keep
        // the row visible in Konata until its salvage resolves.
        Cycle lastMark = 0;
        auto mark = [&](Cycle c, unsigned lane, const char *name) {
            if (c == NoStamp)
                return;
            const std::string ln = num(lane);
            push(c, {"S\t", id, "\t", ln, "\t", name});
            push(c + 1, {"E\t", id, "\t", ln, "\t", name});
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
                push(r.salvage,
                     {"W\t", id, "\t",
                      num(static_cast<std::uint64_t>(donor - rows.data())),
                      "\t0"});
        }

        if (committed)
            push(term, {"R\t", id, "\t", num(r.seq), "\t0"});
        else if (squashed)
            push(std::max(term, lastMark),
                 {"R\t", id, "\t", num(r.seq), "\t1"});
        // Still in flight at halt: no retire record.
    }

    std::stable_sort(evs.begin(), evs.end(),
                     [](const KanataEvent &a, const KanataEvent &b) {
                         return a.cycle < b.cycle;
                     });

    bool first = true;
    Cycle cur = 0;
    for (const KanataEvent &e : evs) {
        if (first) {
            os << "C=\t" << e.cycle << "\n";
            cur = e.cycle;
            first = false;
        } else if (e.cycle != cur) {
            os << "C\t" << (e.cycle - cur) << "\n";
            cur = e.cycle;
        }
        os << e.text << "\n";
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
