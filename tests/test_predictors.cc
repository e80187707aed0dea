/**
 * Direction-predictor behaviour tests: learnability of simple
 * patterns, speculative-history snapshot/restore, clones, and the expected
 * capability ordering (TAGE handles history-correlated patterns that
 * bimodal cannot).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bpu/bimodal.hh"
#include "bpu/gshare.hh"
#include "bpu/loop_predictor.hh"
#include "bpu/statistical_corrector.hh"
#include "bpu/tage.hh"
#include "bpu/tage_sc_l.hh"
#include "common/log.hh"
#include "common/rng.hh"

using namespace mssr;

namespace
{

/**
 * Trains @p pred on @p pattern(i) for a branch at @p pc and returns
 * the accuracy over the last quarter of @p iters trials.
 */
double
accuracy(DirPredictor &pred, Addr pc, unsigned iters,
         const std::function<bool(unsigned)> &pattern)
{
    unsigned correct = 0, measured = 0;
    for (unsigned i = 0; i < iters; ++i) {
        const bool taken = pattern(i);
        const bool guess = pred.predict(pc);
        pred.specUpdate(pc, taken); // in-order: spec follows actual
        pred.commitUpdate(pc, taken);
        if (i >= iters - iters / 4) {
            ++measured;
            correct += guess == taken ? 1 : 0;
        }
    }
    return static_cast<double>(correct) / measured;
}

} // namespace

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor pred;
    EXPECT_GT(accuracy(pred, 0x1000, 400, [](unsigned) { return true; }),
              0.99);
    BimodalPredictor pred2;
    EXPECT_GT(accuracy(pred2, 0x1000, 400, [](unsigned) { return false; }),
              0.99);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor pred;
    const double acc =
        accuracy(pred, 0x2000, 1000, [](unsigned i) { return i % 2 == 0; });
    EXPECT_LT(acc, 0.7); // 2-bit counters thrash on T/N/T/N
}

TEST(Gshare, LearnsShortPattern)
{
    GsharePredictor pred;
    EXPECT_GT(accuracy(pred, 0x3000, 4000,
                       [](unsigned i) { return i % 3 == 0; }),
              0.95);
}

TEST(Tage, LearnsLongPeriodicPattern)
{
    TagePredictor pred;
    // Period-20 pattern: needs real history, defeats bimodal.
    EXPECT_GT(accuracy(pred, 0x4000, 20000,
                       [](unsigned i) { return (i % 20) < 7; }),
              0.95);
}

TEST(Tage, RandomIsUnpredictable)
{
    TagePredictor pred;
    Rng rng(3);
    std::vector<bool> outcomes;
    for (int i = 0; i < 8000; ++i)
        outcomes.push_back(rng.chance(0.5));
    const double acc = accuracy(pred, 0x5000, 8000,
                                [&](unsigned i) { return outcomes[i]; });
    EXPECT_LT(acc, 0.62); // near coin-flip on true randomness
}

TEST(Tage, SnapshotRestoreRoundTrip)
{
    TagePredictor pred;
    for (int i = 0; i < 50; ++i)
        pred.specUpdate(0x100, i % 3 == 0);
    const PredSnapshot snap = pred.snapshot();
    const bool before = pred.predict(0x100);
    // Pollute speculative history (wrong path), then restore.
    for (int i = 0; i < 30; ++i)
        pred.specUpdate(0x104, true);
    pred.restore(snap);
    EXPECT_EQ(pred.predict(0x100), before);
}

TEST(Tage, TableCountBoundedByLookupArrays)
{
    // TageLookup holds per-table indices and tags in fixed arrays, so
    // the constructor must refuse a config with more tagged tables.
    TageConfig cfg;
    cfg.histLens.clear();
    for (unsigned t = 0; t < TageLookup::MaxTables; ++t)
        cfg.histLens.push_back(4 + 8 * t);
    TagePredictor full(cfg);
    EXPECT_GT(accuracy(full, 0x4000, 20000,
                       [](unsigned i) { return (i % 20) < 7; }),
              0.95);
    cfg.histLens.push_back(200);
    EXPECT_THROW(TagePredictor{cfg}, SimPanic);
    EXPECT_THROW(TageScLPredictor{cfg}, SimPanic);
}

TEST(TageScL, LoopPredictorCapturesFixedTripLoops)
{
    // Trip count 37 defeats short-history predictors; the loop
    // predictor should nail the exit after warmup.
    TageScLPredictor pred;
    const double acc = accuracy(pred, 0x6000, 37 * 300, [](unsigned i) {
        return (i % 37) != 36; // taken 36x, exit once
    });
    EXPECT_GT(acc, 0.99);
}

TEST(LoopPredictor, LearnsTripCount)
{
    LoopPredictor loop(64, 3, /*min_trip*/ 0);
    const Addr pc = 0x7000;
    // Warm up several full loop executions with trip count 5.
    for (int rep = 0; rep < 6; ++rep) {
        for (int i = 0; i < 5; ++i) {
            const bool taken = i != 4;
            loop.specUpdate(pc, taken);
            loop.commitUpdate(pc, taken);
        }
    }
    // Now confident: predicts taken for 4 iterations then exit.
    for (int i = 0; i < 5; ++i) {
        const auto p = loop.predict(pc);
        ASSERT_TRUE(p.valid) << "iteration " << i;
        EXPECT_EQ(p.taken, i != 4) << "iteration " << i;
        loop.specUpdate(pc, i != 4);
        loop.commitUpdate(pc, i != 4);
    }
}

TEST(LoopPredictor, SquashResyncsSpeculativeState)
{
    LoopPredictor loop(64, 0, 0); // no thresholds: always valid
    const Addr pc = 0x8000;
    for (int rep = 0; rep < 4; ++rep)
        for (int i = 0; i < 4; ++i) {
            loop.specUpdate(pc, i != 3);
            loop.commitUpdate(pc, i != 3);
        }
    // Speculatively advance without commits, then squash.
    loop.specUpdate(pc, true);
    loop.specUpdate(pc, true);
    loop.squash();
    // After squash the speculative iteration equals the committed one,
    // so the prediction sequence restarts from the beginning.
    const auto p = loop.predict(pc);
    EXPECT_TRUE(p.valid);
    EXPECT_TRUE(p.taken);
}

TEST(StatisticalCorrector, LearnsDisagreement)
{
    GlobalHistory hist;
    StatisticalCorrector sc(
        [&](unsigned len, unsigned bits) { return hist.addFold(len, bits); });
    const Addr pc = 0x9000;
    // TAGE always says taken; reality is always not-taken.
    for (int i = 0; i < 200; ++i)
        sc.train(pc, true, false, hist);
    EXPECT_TRUE(sc.shouldRevert(pc, true, true, hist));
    // Strong (non-weak) TAGE predictions are never reverted.
    EXPECT_FALSE(sc.shouldRevert(pc, true, false, hist));
}

TEST(GlobalHistory, FoldStability)
{
    GlobalHistory a, b;
    for (int i = 0; i < 100; ++i) {
        a.shift(i % 3 == 0);
        b.shift(i % 3 == 0);
    }
    EXPECT_EQ(a.fold(64, 10), b.fold(64, 10));
    a.shift(true);
    b.shift(false);
    EXPECT_NE(a.fold(4, 10), b.fold(4, 10));
}

namespace
{

/** Every (length, width) pair TAGE-SC-L registers at the defaults. */
std::vector<std::pair<unsigned, unsigned>>
tageFoldPairs()
{
    std::vector<std::pair<unsigned, unsigned>> pairs;
    const TageConfig cfg;
    for (unsigned len : cfg.histLens)
        for (unsigned bits : {cfg.tableBits, cfg.tagBits, cfg.tagBits - 1})
            pairs.emplace_back(len, bits);
    return pairs;
}

/** Expects every registered fold of @p hist to equal fold(). */
void
expectFoldsCurrent(const GlobalHistory &hist,
                   const std::vector<std::pair<unsigned, unsigned>> &pairs,
                   const std::vector<unsigned> &slots, int step)
{
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        const auto [len, bits] = pairs[k];
        ASSERT_EQ(hist.folded(slots[k]), hist.fold(len, bits))
            << "len " << len << " bits " << bits << " after step " << step;
    }
}

} // namespace

TEST(GlobalHistory, FoldedRegistersTrackFold)
{
    // fold() restarts at every 64-bit word, so past 64 bits a plain
    // circular fold diverges unless the width divides 64 (8 does, 9
    // and 10 do not). Lengths cover one, two, three and four words,
    // the boundaries between them, and the clamp at 256.
    std::vector<std::pair<unsigned, unsigned>> pairs;
    for (unsigned len : {1u, 4u, 8u, 16u, 32u, 63u, 64u, 65u, 100u, 127u,
                         128u, 129u, 191u, 192u, 193u, 200u, 256u, 300u})
        for (unsigned bits : {1u, 7u, 8u, 9u, 10u, 13u, 33u})
            pairs.emplace_back(len, bits);
    GlobalHistory hist;
    std::vector<unsigned> slots;
    for (const auto &[len, bits] : pairs)
        slots.push_back(hist.addFold(len, bits));
    const auto again = std::find(pairs.begin(), pairs.end(),
                                 std::make_pair(65u, 9u)) - pairs.begin();
    EXPECT_EQ(hist.addFold(65, 9), slots[again]); // registered once
    expectFoldsCurrent(hist, pairs, slots, 0);

    Rng rng(7);
    for (int i = 1; i <= 10000; ++i) {
        hist.shift(rng.chance(0.5));
        expectFoldsCurrent(hist, pairs, slots, i);
        if (HasFatalFailure())
            return;
    }

    // Words written directly: setWords() brings every register back.
    GlobalHistory copy;
    std::vector<unsigned> copySlots;
    for (const auto &[len, bits] : pairs)
        copySlots.push_back(copy.addFold(len, bits));
    copy.setWords({hist.word(0), hist.word(1), hist.word(2), hist.word(3)});
    expectFoldsCurrent(copy, pairs, copySlots, 10000);
}

TEST(Tage, FoldedHistoriesSurviveRestore)
{
    TagePredictor tage;
    const auto pairs = tageFoldPairs();
    std::vector<unsigned> slots;
    for (const auto &[len, bits] : pairs)
        slots.push_back(tage.addFold(len, bits)); // existing slots
    Rng rng(42);
    PredSnapshot mid;
    for (int i = 1; i <= 10000; ++i) {
        const Addr pc = 0x1000 + (rng.next() & 0xffc);
        const bool taken = rng.chance(0.5);
        tage.predict(pc);
        if (i == 5000)
            mid = tage.snapshot();
        tage.specUpdate(pc, taken);
        tage.commitUpdate(pc, taken);
    }
    expectFoldsCurrent(tage.specHist(), pairs, slots, 10000);
    expectFoldsCurrent(tage.retiredHist(), pairs, slots, 10000);
    tage.restore(mid);
    expectFoldsCurrent(tage.specHist(), pairs, slots, 5000);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_EQ(tage.specHist().word(w), mid.words[w]);
    // Wrong-path shifts after the restore keep the registers current.
    for (int i = 1; i <= 300; ++i) {
        tage.specUpdate(0x2000, rng.chance(0.5));
        expectFoldsCurrent(tage.specHist(), pairs, slots, 5000 + i);
    }
}

namespace
{

/** One predicted branch still in flight. */
struct InFlight
{
    std::size_t pos;    //!< index into the correct-path stream
    PredSnapshot snap;  //!< predictor state before this branch
};

/**
 * The correct path of a synthetic program: runs of a small loop over
 * @p num_pcs conditional branches, each biased, periodic, correlated
 * with the previous outcome or closing the loop.
 */
std::vector<std::pair<Addr, bool>>
referencePath(std::size_t length, unsigned num_pcs, Rng &rng)
{
    std::vector<std::pair<Addr, bool>> path;
    std::vector<unsigned> visits(num_pcs, 0);
    bool last = false;
    while (path.size() < length) {
        const unsigned first = static_cast<unsigned>(rng.below(num_pcs - 8));
        const unsigned body = 2 + static_cast<unsigned>(rng.below(7));
        const unsigned trips = 3 + static_cast<unsigned>(rng.below(60));
        for (unsigned trip = 0; trip < trips; ++trip) {
            for (unsigned k = 0; k < body; ++k) {
                const unsigned b = first + k;
                const Addr pc = 0x10000 + Addr(b) * 12;
                bool taken;
                switch (b % 4) {
                  case 0: taken = rng.chance(b % 8 == 0 ? 0.5 : 0.9); break;
                  case 1: taken = visits[b] % (2 + b % 11) < 2; break;
                  case 2: taken = last != (b % 3 == 0); break;
                  default: taken = rng.chance(0.1); break;
                }
                ++visits[b];
                path.emplace_back(pc, taken);
                last = taken;
            }
            const Addr loopPC = 0x10000 + Addr(first + body) * 12;
            path.emplace_back(loopPC, trip + 1 < trips);
            last = trip + 1 < trips;
        }
    }
    path.resize(length);
    return path;
}

} // namespace

TEST(TageScL, ReferenceStreamDigest)
{
    // Drives the predictor as BpuPipeline does: snapshot, predict and
    // specUpdate at prediction; commitUpdate in commit order; wrong-path
    // runs after each misprediction, undone by restore plus the actual
    // outcome; and now and then a restore that refetches younger
    // branches (a non-branch squash). Every prediction, wrong-path ones
    // included, goes into an FNV-1a digest, so a change to any index,
    // tag, fold or counter update shows as a different digest.
    Rng rng(2024);
    const auto path = referencePath(300000, 400, rng);
    TageScLPredictor pred;
    std::uint64_t digest = 14695981039346656037ull;
    std::uint64_t predictions = 0;
    auto record = [&](bool taken) {
        digest = (digest ^ (taken ? 1 : 0)) * 1099511628211ull;
        ++predictions;
    };

    std::deque<InFlight> inflight;
    std::size_t next = 0;
    std::size_t committed = 0;
    while (committed < path.size()) {
        if (next < path.size()) {
            const auto [pc, actual] = path[next];
            InFlight f{next, pred.snapshot()};
            const bool guess = pred.predict(pc);
            record(guess);
            pred.specUpdate(pc, guess);
            if (guess != actual) {
                const unsigned wrong = 1 + static_cast<unsigned>(rng.below(12));
                for (unsigned w = 0; w < wrong; ++w) {
                    const Addr wpc = 0x10000 + rng.below(400) * 12;
                    pred.snapshot();
                    const bool g = pred.predict(wpc);
                    record(g);
                    pred.specUpdate(wpc, g);
                }
                pred.restore(f.snap);
                pred.specUpdate(pc, actual);
            }
            inflight.push_back(f);
            ++next;
        }
        if (inflight.size() > 4 && rng.chance(0.002)) {
            // Squash the youngest few and refetch them.
            const std::size_t keep = 1 + rng.below(inflight.size() - 1);
            pred.restore(inflight[keep].snap);
            next = inflight[keep].pos;
            inflight.resize(keep);
        }
        while (inflight.size() > 24 || (next == path.size() &&
                                        !inflight.empty())) {
            const auto [pc, actual] = path[inflight.front().pos];
            pred.commitUpdate(pc, actual);
            inflight.pop_front();
            ++committed;
        }
    }
    // Recorded from the reference implementation (2505c2e): any
    // storage or layout change must leave every prediction as it was.
    EXPECT_EQ(predictions, 732835u);
    EXPECT_EQ(digest, 0x819cb3651eccab88ull);
}

TEST(Predictors, CloneGoesItsOwnWay)
{
    // A clone predicts as its source would have from the moment it was
    // made, whatever the source learns afterwards and after the source
    // is gone. Each stream is run in order (accuracy()'s way) and its
    // predictions digested.
    Rng rng(25);
    const auto path = referencePath(30000, 64, rng);
    const auto third = static_cast<std::ptrdiff_t>(path.size() / 3);
    const std::vector<std::pair<Addr, bool>> before(path.begin(),
                                                    path.begin() + third);
    std::vector<std::pair<Addr, bool>> inverted = before;
    for (auto &[pc, taken] : inverted)
        taken = !taken;
    const std::vector<std::pair<Addr, bool>> after(path.begin() + third,
                                                   path.end());
    const auto drive = [](DirPredictor &pred,
                          const std::vector<std::pair<Addr, bool>> &stream) {
        std::uint64_t digest = 14695981039346656037ull;
        for (const auto &[pc, taken] : stream) {
            digest = (digest ^ (pred.predict(pc) ? 1 : 0)) * 1099511628211ull;
            pred.specUpdate(pc, taken);
            pred.commitUpdate(pc, taken);
        }
        return digest;
    };

    const std::vector<std::function<std::unique_ptr<DirPredictor>()>> kinds =
        {[] { return std::make_unique<BimodalPredictor>(); },
         [] { return std::make_unique<GsharePredictor>(); },
         [] { return std::make_unique<TagePredictor>(); },
         [] { return std::make_unique<TageScLPredictor>(); }};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::unique_ptr<DirPredictor> reference = kinds[k]();
        drive(*reference, before);
        // Learning the inverted stream changes what the reference's
        // twin predicts afterwards, so a clone sharing state would show.
        std::unique_ptr<DirPredictor> retrained = kinds[k]();
        drive(*retrained, before);
        drive(*retrained, inverted);

        std::unique_ptr<DirPredictor> source = kinds[k]();
        drive(*source, before);
        std::unique_ptr<DirPredictor> clone = source->clone();
        drive(*source, inverted);
        source.reset();

        const std::uint64_t want = drive(*reference, after);
        EXPECT_NE(drive(*retrained, after), want) << "kind " << k;
        EXPECT_EQ(drive(*clone, after), want) << "kind " << k;
    }
}
