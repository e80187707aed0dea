#include "common/pipeview.hh"

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <string_view>

#include "common/log.hh"
#include "common/probe.hh"

namespace mssr
{

void
PipeView::count(std::uint64_t &counter, Cycle Record::*step,
                const ProbeEvent &e)
{
    ++counter;
    if (Record *r = find(e.seq))
        r->*step = e.cycle;
}

void
PipeView::onEvent(const ProbeEvent &e)
{
    switch (e.kind) {
      case ProbeKind::Fetch:
        ++counts_.fetched;
        if (e.cycle < winStart_ || e.cycle >= winEnd_)
            return;
        mssr_assert(records_.empty() || e.seq == records_.back().seq + 1,
                    "pipeview records must hold one contiguous seq range");
        records_.push_back({.seq = e.seq, .pc = e.pc, .fetch = e.cycle,
                            .decode = e.aux});
        return;
      case ProbeKind::Rename:
        return count(counts_.renamed, &Record::rename, e);
      case ProbeKind::Issue:
        return count(counts_.issued, &Record::issue, e);
      case ProbeKind::Writeback:
        return count(counts_.completed, &Record::complete, e);
      case ProbeKind::Commit:
        return count(counts_.committed, &Record::commit, e);
      case ProbeKind::Logged:
        return count(counts_.logged, &Record::logged, e);
      case ProbeKind::Covered:
        return count(counts_.covered, &Record::covered, e);
      case ProbeKind::SquashInst:
        ++counts_.squashed;
        if (Record *r = find(e.seq)) {
            r->squash = e.cycle;
            r->squashReason = e.squash;
        }
        return;
      case ProbeKind::ReuseTest:
        if (!e.firstTest)
            return;
        ++counts_.tested;
        countKill(counts_, e.reuse);
        if (Record *r = find(e.donorSeq)) {
            r->tested = e.cycle;
            r->verdict = e.reuse;
        }
        if (!isReuse(e.reuse))
            return;
        // Adopter e.seq is salvaged: it skips re-execution, except a
        // verify load, which re-issues as a verification op.
        ++counts_.reused;
        if (Record *r = find(e.donorSeq)) {
            r->reuseDone = e.cycle;
            r->adopterSeq = e.seq;
        }
        if (Record *r = find(e.seq)) {
            r->salvage = e.cycle;
            r->donorSeq = e.donorSeq;
            r->needVerify = e.reuse == ReuseOutcome::ReusedNeedVerify;
        }
        return;
      default:
        return;
    }
}

namespace
{

/** One Kanata line pending emission, sorted by cycle (stable). */
struct KanataEvent
{
    Cycle cycle;
    std::string text;
};

void
appendHexPc(std::string &out, Addr pc)
{
    static const char digits[] = "0123456789abcdef";
    char buf[16];
    int n = 0;
    do {
        buf[n++] = digits[pc & 0xf];
        pc >>= 4;
    } while (pc != 0);
    out += "0x";
    while (n > 0)
        out += buf[--n];
}

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

void
PipeView::writeKanata(std::ostream &os, const std::string &meta_fields) const
{
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
       << "}, \"records\": " << records_.size() << "}\n";

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

    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const std::string id = num(i);

        push(r.fetch, {"I\t", id, "\t", num(r.seq), "\t0"});

        std::string label = "[";
        label += num(r.seq);
        label += "] ";
        appendHexPc(label, r.pc);
        if (r.salvage != NoStamp)
            label += r.needVerify ? " salvaged+verify" : " salvaged";
        push(r.fetch, {"L\t", id, "\t0\t", label});

        std::string detail = "seq=";
        detail += num(r.seq);
        detail += " pc=";
        appendHexPc(detail, r.pc);
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
            if (const Record *donor = findRecord(r.donorSeq))
                push(r.salvage,
                     {"W\t", id, "\t",
                      num(static_cast<std::uint64_t>(donor - records_.data())),
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
}

} // namespace mssr
