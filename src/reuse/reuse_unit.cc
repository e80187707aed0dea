#include "reuse/reuse_unit.hh"

#include <algorithm>

#include "common/log.hh"

namespace mssr
{

ReuseUnit::ReuseUnit(const ReuseConfig &cfg, FreeList &free_list)
    : cfg_(cfg),
      freeList_(free_list),
      wpb_(cfg.numStreams, cfg.wpbEntriesPerStream, cfg.restrictVpn),
      log_(cfg.numStreams, cfg.squashLogEntriesPerStream),
      rgids_(cfg.rgidBits),
      bloom_(cfg.bloomBits, cfg.bloomHashes)
{
}

void
ReuseUnit::Session::advance(const WpbStream &wpb, unsigned n)
{
    fetchOffset += n;
    while (fetchEntry < wpb.numEntries &&
           fetchOffset >= wpb.entries[fetchEntry].numInsts()) {
        fetchOffset -= wpb.entries[fetchEntry].numInsts();
        ++fetchEntry;
    }
}

void
ReuseUnit::dropStream(unsigned s)
{
    mssr_assert(!wpb_.stream(s).inSession, "dropping a stream in session");
    // The free list is a FIFO: release order decides which register
    // rename allocates next.
    const SquashLogStream &stream = log_.stream(s);
    for (unsigned i = 0; i < stream.numEntries; ++i) {
        const SquashLogEntry &e = stream.entries[i];
        if (e.reserved && !e.consumed)
            freeList_.release(e.destPreg);
    }
    wpb_.invalidate(s);
    log_.clearStream(s);
}

void
ReuseUnit::endFrontSession()
{
    mssr_assert(!sessions_.empty());
    const unsigned s = sessions_.front().stream;
    sessions_.pop_front();
    wpb_.stream(s).inSession = false;
    dropStream(s);
    renameActive_ = false;
    renameCursor_ = 0;
}

void
ReuseUnit::clearSessions()
{
    for (const Session &session : sessions_)
        wpb_.stream(session.stream).inSession = false;
    sessions_.clear();
    renameActive_ = false;
    renameCursor_ = 0;
}

void
ReuseUnit::onBranchSquash(SeqNum branch_seq,
                          const std::vector<DynInstPtr> &squashed,
                          Cycle now, Addr branch_pc)
{
    ++squashEvents_;
    lastRedirectBranchSeq_ = branch_seq;
    // In-flight reuse sessions are cut by the squash; their streams
    // stay valid for later reconvergence attempts.
    clearSessions();

    if (squashed.empty())
        return;

    // Recycle the round-robin victim stream first.
    const unsigned victim = wpb_.nextStream();
    dropStream(victim);

    // Reconstruct the squashed path as contiguous fetch-block ranges
    // (<= fetch-block size), oldest first.
    ranges_.clear();
    for (const auto &inst : squashed) {
        const bool extend = !ranges_.empty() &&
                            ranges_.back().endPC + InstBytes == inst->pc &&
                            ranges_.back().numInsts() < MaxBlockInsts;
        if (extend) {
            ranges_.back().endPC = inst->pc;
        } else {
            ranges_.push_back(WpbEntry{inst->pc, inst->pc});
        }
    }

    const unsigned s = wpb_.writeStream(ranges_, branch_seq, squashEvents_);
    mssr_assert(s == victim);
    ++streamsCaptured_;
    WpbStream &captured = wpb_.stream(s);
    captured.captureCycle = now;
    captured.originPC = branch_pc;

    // Populate the Squash Log and apply reservation policy (1): only
    // executed instructions keep their physical registers.
    for (const auto &inst : squashed) {
        SquashLogEntry entry;
        entry.seq = inst->seq;
        entry.pc = inst->pc;
        entry.op = inst->si.op;
        entry.numSrcs = 0;
        if (inst->si.hasRs1())
            entry.srcRgid[entry.numSrcs++] = inst->srcRgid[0];
        if (inst->si.hasRs2())
            entry.srcRgid[entry.numSrcs++] = inst->srcRgid[1];
        entry.hasDest = inst->si.hasRd();
        entry.dstRgid = inst->dstRgid;
        entry.destPreg = inst->dst;
        entry.isLoad = inst->isLoad();
        entry.isStore = inst->isStore();
        entry.isControl = inst->isControl();
        entry.executed = inst->executed;
        entry.memAddr = inst->memAddr;
        entry.memSize = static_cast<std::uint8_t>(inst->si.memBytes());

        const bool logged = log_.append(s, entry);
        if (logged) {
            ++funnel_.logged;
            if (probe_)
                probe_->emit({.kind = ProbeKind::Logged, .seq = inst->seq,
                              .originPC = branch_pc});
        }
        const bool reusable = logged && entry.hasDest && entry.executed &&
                              !entry.isStore && !entry.isControl &&
                              (!entry.isLoad || cfg_.reuseLoads);
        if (entry.hasDest) {
            if (reusable) {
                freeList_.reserve(inst->dst);
                SquashLogStream &stream = log_.stream(s);
                stream.entries[stream.numEntries - 1].reserved = true;
            } else {
                freeList_.release(inst->dst);
            }
        }
    }
}

void
ReuseUnit::onOtherSquash(const std::vector<DynInstPtr> &squashed,
                         bool invalidate_all)
{
    clearSessions();
    for (const auto &inst : squashed)
        if (inst->si.hasRd())
            freeList_.release(inst->dst);
    if (invalidate_all) {
        for (unsigned s = 0; s < wpb_.numStreams(); ++s)
            dropStream(s);
        bloom_.reset();
    }
}

void
ReuseUnit::detect(Addr start_pc, Addr end_pc)
{
    ++detectCalls_;
    if (!wpb_.anyValid() || sessions_.size() >= wpb_.numStreams())
        return;
    ++detectEligible_;

    // Most-recently-updated stream is preferred (section 3.3.1);
    // streams already claimed by a queued session are skipped.
    order_.clear();
    for (unsigned s = 0; s < wpb_.numStreams(); ++s)
        if (wpb_.stream(s).numEntries > 0 && !wpb_.stream(s).inSession)
            order_.push_back(s);
    std::sort(order_.begin(), order_.end(), [&](unsigned a, unsigned b) {
        return wpb_.stream(a).squashEventIndex >
               wpb_.stream(b).squashEventIndex;
    });

    for (unsigned s : order_) {
        WpbStream &stream = wpb_.stream(s);
        const ReconvHit hit = ReconvDetector::match(
            stream, start_pc, end_pc, cfg_.restrictVpn);
        if (!hit.found)
            continue;
        if (hit.instOffset >= log_.stream(s).numEntries) {
            ++reconvBeyondLog_;
            return; // WPB covers more insts than the Squash Log kept
        }
        ++reconvDetected_;

        // Classification (Figure 4): compare the hit stream's origin
        // branch with the branch whose squash created the current
        // corrected stream.
        if (stream.originBranchSeq == lastRedirectBranchSeq_)
            ++reconvSimple_;
        else if (stream.originBranchSeq < lastRedirectBranchSeq_)
            ++reconvSoftware_;
        else
            ++reconvHardware_;

        // Stream distance (Figure 11): 1 = neighboring stream.
        const std::uint64_t distance =
            squashEvents_ - stream.squashEventIndex + 1;
        distance_.sample(std::min<std::uint64_t>(distance, 7));
        if (probe_)
            probe_->emit({.kind = ProbeKind::Reconv, .pc = hit.reconvPC,
                          .arg = distance, .originPC = stream.originPC,
                          .aux = hit.instOffset});

        // Funnel: the entries this session can reach are now covered
        // by a detected reconvergence. The flag makes each entry count
        // once even when a stream is re-detected by a later session.
        SquashLogStream &logStream = log_.stream(s);
        for (unsigned i = hit.instOffset; i < logStream.numEntries; ++i) {
            SquashLogEntry &entry = logStream.entries[i];
            if (entry.covered)
                continue;
            entry.covered = true;
            ++funnel_.covered;
            if (probe_)
                probe_->emit({.kind = ProbeKind::Covered, .seq = entry.seq,
                              .originPC = stream.originPC});
        }

        Session session;
        session.stream = s;
        session.startCursor = hit.instOffset;
        session.reconvPC = hit.reconvPC;
        // The IFU cursor starts at the reconvergence point and moves
        // past the detection block: one instruction for each of its
        // PCs from the reconvergence point to its end.
        session.fetchEntry = hit.entryIdx;
        session.fetchOffset = static_cast<unsigned>(
            (hit.reconvPC - stream.entries[hit.entryIdx].startPC) /
            InstBytes);
        session.advance(stream, static_cast<unsigned>(
                                    (end_pc - hit.reconvPC) / InstBytes + 1));
        sessions_.push_back(session);
        stream.inSession = true;
        return;
    }
}

void
ReuseUnit::onBlockFormed(const PredBlock &block)
{
    // IFU-side session monitoring (section 3.3.1): while a session is
    // being extended, compare the new block against the squashed
    // stream's continuation; on mismatch or end of coverage, stop
    // extending and resume reconvergence detection immediately.
    if (!sessions_.empty() && !sessions_.back().fetchDone) {
        Session &fs = sessions_.back();
        const WpbStream &stream = wpb_.stream(fs.stream);
        unsigned index = 0;
        const unsigned blockInsts = block.numInsts();
        // Project the stream's instruction PCs against the block's.
        while (index < blockInsts) {
            if (fs.fetchEntry >= stream.numEntries) {
                fs.fetchDone = true; // coverage exhausted
                break;
            }
            const Addr expect = stream.entries[fs.fetchEntry].startPC +
                                fs.fetchOffset * InstBytes;
            if (expect != block.startPC + index * InstBytes) {
                fs.fetchDone = true; // diverged
                break;
            }
            fs.advance(stream, 1);
            ++index;
        }
        if (!fs.fetchDone)
            return; // block fully matched: keep extending
        if (index > 0)
            return; // partial match: detection resumes next block
        // No instruction matched: fall through and let this block be
        // considered for a fresh reconvergence immediately.
    }
    detect(block.startPC, block.endPC);
}

ReuseAdvice
ReuseUnit::processRename(const DynInstPtr &inst,
                         const Rgid current_src_rgids[2], Cycle now)
{
    // Stream aging and the 1024-instruction reconvergence timeout.
    for (unsigned s = 0; s < wpb_.numStreams(); ++s) {
        WpbStream &stream = wpb_.stream(s);
        if (stream.numEntries == 0 || stream.inSession)
            continue;
        if (++stream.ageInsts > cfg_.reconvTimeoutInsts) {
            dropStream(s);
            ++timeouts_;
        }
    }

    ReuseAdvice advice;
    // Activation may fall through from a just-ended session to the
    // next queued one whose reconvergence PC is this instruction.
    for (int attempts = 0; attempts < 2; ++attempts) {
        if (sessions_.empty())
            return advice;
        Session &front = sessions_.front();
        if (!renameActive_) {
            if (inst->pc != front.reconvPC)
                return advice;
            renameActive_ = true;
            renameCursor_ = front.startCursor;
            if (probe_)
                probe_->emit({.kind = ProbeKind::SessionStart,
                              .pc = front.reconvPC});
        }

        SquashLogStream &stream = log_.stream(front.stream);
        if (renameCursor_ >= stream.numEntries) {
            endFrontSession();
            continue; // try the next queued session for this inst
        }
        SquashLogEntry &entry = stream.entries[renameCursor_];
        if (entry.pc != inst->pc) {
            // The corrected stream diverged from the squashed stream:
            // policy (4) releases the remaining reservations.
            ++divergences_;
            if (probe_)
                probe_->emit({.kind = ProbeKind::ReuseTest,
                              .reuse = ReuseOutcome::Divergence,
                              .seq = inst->seq, .pc = inst->pc});
            endFrontSession();
            continue;
        }
        ++renameCursor_;
        const bool exhausted = renameCursor_ >= stream.numEntries;

        // ---- Reuse test (section 3.5) ----
        ++reuseTests_;
        // Funnel: only an entry's first test advances the stage and
        // kill counters (a stream can be re-covered after a squash
        // cuts its session; re-tests would otherwise double count).
        const bool firstTest = !entry.tested;
        if (firstTest) {
            entry.tested = true;
            ++funnel_.tested;
        }
        ReuseOutcome outcome = ReuseOutcome::Reused;
        if (entry.consumed || !entry.reserved) {
            // Covers: no destination, stores, control insts,
            // unexecuted squashed insts, already-consumed entries.
            const bool valueKind =
                entry.hasDest && !entry.isStore && !entry.isControl;
            outcome = valueKind && !entry.executed
                          ? ReuseOutcome::FailNotExecuted
                          : ReuseOutcome::FailKind;
        } else if (!rgids_.inWindow(inst->si.rd, entry.dstRgid)) {
            // Hardware's rgidBits-wide tag would have wrapped since
            // this mapping was created: not reusable (capacity cost
            // of the finite RGID width, see rgid.hh).
            outcome = ReuseOutcome::FailRgidCapacity;
        } else {
            mssr_assert(entry.op == inst->si.op,
                        "PC match with opcode mismatch");
            ArchReg srcRegs[2] = {0, 0};
            unsigned nsrc = 0;
            if (inst->si.hasRs1())
                srcRegs[nsrc++] = inst->si.rs1;
            if (inst->si.hasRs2())
                srcRegs[nsrc++] = inst->si.rs2;
            mssr_assert(nsrc == entry.numSrcs);
            bool match = true;
            bool stale = false;
            for (unsigned i = 0; i < nsrc; ++i) {
                if (current_src_rgids[i] != entry.srcRgid[i])
                    match = false;
                else if (!rgids_.inWindow(srcRegs[i], entry.srcRgid[i]))
                    stale = true;
            }
            if (!match)
                outcome = ReuseOutcome::FailRgid;
            else if (stale)
                outcome = ReuseOutcome::FailRgidCapacity;
        }

        if (outcome == ReuseOutcome::Reused && entry.isLoad &&
            cfg_.useBloomFilter &&
            (bloom_.mayContain(entry.memAddr) ||
             bloom_.mayContain(entry.memAddr + entry.memSize - 1))) {
            // A store may have touched this address since the squash:
            // the load must re-execute rather than be reused.
            outcome = ReuseOutcome::FailBloom;
        }

        if (outcome == ReuseOutcome::Reused) {
            // A reuse is always a first test: the first test of a
            // reserved entry either consumes it (reuse or release)
            // and any non-reserved entry fails on kind above.
            mssr_assert(firstTest, "reuse of a re-tested entry");
            freeList_.adopt(entry.destPreg);
            entry.consumed = true;
            ++funnel_.reused;
            reuseLag_.sample(now - wpb_.stream(front.stream).captureCycle);
            if (entry.isLoad)
                ++reuseLoads_;
            advice.reuse = true;
            advice.needVerify = entry.isLoad && !cfg_.useBloomFilter;
            advice.destPreg = entry.destPreg;
            advice.dstRgid = entry.dstRgid;
            advice.memAddr = entry.memAddr;
            advice.memSize = entry.memSize;
            if (advice.needVerify)
                outcome = ReuseOutcome::ReusedNeedVerify;
        } else {
            countKill(failed_, outcome);
            if (firstTest)
                countKill(funnel_, outcome);
            if (entry.reserved && !entry.consumed) {
                // Policy (3): a failed reuse test releases the
                // reservation.
                freeList_.release(entry.destPreg);
                entry.consumed = true;
            }
        }
        if (probe_)
            probe_->emit({.kind = ProbeKind::ReuseTest, .reuse = outcome,
                          .firstTest = firstTest, .seq = inst->seq,
                          .pc = inst->pc, .arg = entry.destPreg,
                          .donorSeq = entry.seq,
                          .originPC = wpb_.stream(front.stream).originPC,
                          .aux = front.reconvPC});

        if (exhausted)
            endFrontSession();
        return advice;
    }
    return advice;
}

void
ReuseUnit::onStoreExecuted(Addr addr, unsigned size)
{
    if (!cfg_.useBloomFilter || log_.allUnoccupied())
        return;
    bloom_.insert(addr);
    bloom_.insert(addr + size - 1);
}

bool
ReuseUnit::reclaimLeastRecentStream()
{
    int best = -1;
    for (unsigned s = 0; s < wpb_.numStreams(); ++s) {
        const WpbStream &stream = wpb_.stream(s);
        if (stream.numEntries == 0)
            continue;
        if (best < 0 || stream.squashEventIndex <
                            wpb_.stream(best).squashEventIndex) {
            best = static_cast<int>(s);
        }
    }
    if (best < 0)
        return false;
    const unsigned victim = static_cast<unsigned>(best);
    const std::size_t before = freeList_.numFree();
    // Drop the queued session on the reclaimed stream, if any.
    if (wpb_.stream(victim).inSession) {
        const auto it = std::find_if(
            sessions_.begin(), sessions_.end(),
            [&](const Session &session) { return session.stream == victim; });
        if (it == sessions_.begin())
            renameActive_ = false;
        sessions_.erase(it);
        wpb_.stream(victim).inSession = false;
    }
    dropStream(victim);
    ++pressureReclaims_;
    return freeList_.numFree() > before;
}

ReuseFunnel
ReuseUnit::funnel() const
{
    ReuseFunnel f = funnel_;
    const bool fits = f.derivePasses();
    mssr_assert(fits, "reuse funnel kills exceed tested");
    mssr_assert(f.hazardPass == f.reused, "hazard-pass / reuse mismatch");
    return f;
}

void
ReuseUnit::reportStats(StatSet &stats) const
{
    stats.set("reuse.squashEvents", static_cast<double>(squashEvents_));
    stats.set("reuse.streamsCaptured", static_cast<double>(streamsCaptured_));
    stats.set("reuse.detectCalls", static_cast<double>(detectCalls_));
    stats.set("reuse.detectEligible", static_cast<double>(detectEligible_));
    stats.set("reuse.reconvDetected", static_cast<double>(reconvDetected_));
    stats.set("reuse.reconvSimple", static_cast<double>(reconvSimple_));
    stats.set("reuse.reconvSoftware", static_cast<double>(reconvSoftware_));
    stats.set("reuse.reconvHardware", static_cast<double>(reconvHardware_));
    stats.set("reuse.reconvBeyondLog",
              static_cast<double>(reconvBeyondLog_));
    for (unsigned d = 1; d <= 7; ++d)
        stats.set("reuse.distance" + std::to_string(d),
                  static_cast<double>(distance_.bucket(d)));
    stats.set("reuse.tests", static_cast<double>(reuseTests_));
    stats.set("reuse.success", static_cast<double>(funnel_.reused));
    stats.set("reuse.loadsReused", static_cast<double>(reuseLoads_));
    stats.set("reuse.failRgid", static_cast<double>(failed_.killRgid));
    stats.set("reuse.failRgidCapacity",
              static_cast<double>(failed_.killRgidCapacity));
    stats.set("reuse.failNotExecuted",
              static_cast<double>(failed_.killNotExecuted));
    stats.set("reuse.failKind", static_cast<double>(failed_.killKind));
    stats.set("reuse.failBloom", static_cast<double>(failed_.killBloom));
    stats.set("reuse.divergences", static_cast<double>(divergences_));
    stats.set("reuse.timeouts", static_cast<double>(timeouts_));
    stats.set("reuse.pressureReclaims",
              static_cast<double>(pressureReclaims_));
    stats.set("reuse.bloomInsertions",
              static_cast<double>(bloom_.insertions()));
    // Capture-to-reuse latency (cycles; clamped at 255 by the
    // histogram's overflow bucket). A run with zero reuses has no lag
    // distribution -- mean()/percentile() return NaN, which is not
    // valid JSON -- so the keys are only emitted when samples exist.
    if (reuseLag_.count() > 0) {
        stats.set("reuse.lagMeanCycles", reuseLag_.mean());
        stats.set("reuse.lagP50Cycles", reuseLag_.percentile(0.5));
        stats.set("reuse.lagP90Cycles", reuseLag_.percentile(0.9));
    }
}

} // namespace mssr
