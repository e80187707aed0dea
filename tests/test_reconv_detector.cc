#include <gtest/gtest.h>

#include "reuse/reconv_detector.hh"

using namespace mssr;

namespace
{

WpbStream
makeStream(std::initializer_list<std::pair<Addr, Addr>> blocks,
           Addr vpn_pc = 0)
{
    WpbStream stream;
    for (auto [s, e] : blocks)
        stream.entries.push_back(WpbEntry{s, e});
    stream.numEntries = static_cast<unsigned>(stream.entries.size());
    // Pad to a fixed size with unfilled slots as the hardware would.
    while (stream.entries.size() < 8)
        stream.entries.push_back(WpbEntry{});
    stream.vpn = (vpn_pc ? vpn_pc : blocks.begin()->first) >> 12;
    return stream;
}

} // namespace

TEST(ReconvDetector, AlignerBoundaries)
{
    const WpbStream s = makeStream({{0x1000, 0x101c}, {0x1040, 0x105c}});
    // head_start below both ends: the left aligner accepts both
    // entries, so the first one wins.
    ReconvHit hit = ReconvDetector::match(s, 0x0800, 0x1040, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 0u);
    EXPECT_EQ(hit.reconvPC, 0x1000u);
    // head_start above the first block's end: only entry 1 is left.
    hit = ReconvDetector::match(s, 0x1020, 0x1040, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 1u);
    EXPECT_EQ(hit.reconvPC, 0x1040u);
    EXPECT_EQ(hit.instOffset, 8u);
    // head_end below both starts: the right aligner accepts neither.
    EXPECT_FALSE(ReconvDetector::match(s, 0x0700, 0x0800, false).found);
    // Above the first block's end and below the second's start.
    EXPECT_FALSE(ReconvDetector::match(s, 0x1020, 0x103c, false).found);
}

TEST(ReconvDetector, ExactOverlapDetection)
{
    const WpbStream s = makeStream({{0x1000, 0x101c}});
    // Overlapping block.
    ReconvHit hit = ReconvDetector::match(s, 0x1010, 0x102c, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 0u);
    EXPECT_EQ(hit.reconvPC, 0x1010u); // max(head_start, wpb_start)
    EXPECT_EQ(hit.instOffset, 4u);    // (0x1010-0x1000)/4
    // Disjoint block.
    EXPECT_FALSE(ReconvDetector::match(s, 0x1020, 0x103c, false).found);
    // Head entirely inside.
    hit = ReconvDetector::match(s, 0x1004, 0x1008, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.reconvPC, 0x1004u);
}

TEST(ReconvDetector, PriorityEncoderPicksFirstEntry)
{
    // Two WPB entries cover overlapping PC ranges (a loop fetched
    // twice on the wrong path): the first (oldest) entry must win.
    const WpbStream s = makeStream({{0x1000, 0x101c}, {0x1000, 0x101c}});
    const ReconvHit hit = ReconvDetector::match(s, 0x1008, 0x1024, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 0u);
}

TEST(ReconvDetector, InstOffsetAccumulatesEarlierBlocks)
{
    const WpbStream s =
        makeStream({{0x1000, 0x101c}, {0x2000, 0x2004}, {0x3000, 0x301c}});
    const ReconvHit hit = ReconvDetector::match(s, 0x3008, 0x3024, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 2u);
    // 8 insts (block 0) + 2 insts (block 1) + (0x3008-0x3000)/4 = 12.
    EXPECT_EQ(hit.instOffset, 12u);
}

TEST(ReconvDetector, VpnRestriction)
{
    const WpbStream s = makeStream({{0x1000, 0x101c}});
    // Same page: found.
    EXPECT_TRUE(ReconvDetector::match(s, 0x1000, 0x101c, true).found);
    // A different page whose low bits alias would wrongly match
    // without the VPN compare.
    WpbStream aliased = s;
    const ReconvHit wrongPage =
        ReconvDetector::match(aliased, 0x5000 + 0, 0x5000 + 0x1c, true);
    EXPECT_FALSE(wrongPage.found);
}

TEST(ReconvDetector, SingleInstructionBlockAtHeadStart)
{
    // A WPB entry holding exactly one instruction (startPC == endPC,
    // inclusive range) overlapped right at its only PC: head_start ==
    // end_pc is the tightest legal overlap and must still hit.
    const WpbStream s = makeStream({{0x1000, 0x101c}, {0x2000, 0x2000}});
    const ReconvHit hit = ReconvDetector::match(s, 0x2000, 0x201c, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 1u);
    EXPECT_EQ(hit.reconvPC, 0x2000u);
    EXPECT_EQ(hit.instOffset, 8u); // all of block 0, none of block 1
}

TEST(ReconvDetector, AlignerExactEquality)
{
    const WpbStream s = makeStream({{0x1000, 0x101c}});
    // Inclusive boundaries: head_start == endPC and head_end ==
    // startPC are overlaps, one instruction wide.
    ReconvHit hit = ReconvDetector::match(s, 0x101c, 0x1038, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.reconvPC, 0x101cu); // last instruction of the entry
    EXPECT_EQ(hit.instOffset, 7u);
    hit = ReconvDetector::match(s, 0x0fe4, 0x1000, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.reconvPC, 0x1000u); // first instruction of the entry
    EXPECT_EQ(hit.instOffset, 0u);
    // One instruction past either boundary misses.
    EXPECT_FALSE(ReconvDetector::match(s, 0x1020, 0x103c, false).found);
    EXPECT_FALSE(ReconvDetector::match(s, 0x0fe0, 0x0ffc, false).found);
}

TEST(ReconvDetector, VpnRestrictedMismatchIgnoresOverlap)
{
    // The stream's VPN says page 0x5, but its entries (stale or
    // aliased) overlap a page-0x1 head block: the VPN compare must
    // veto the range overlap when the restriction is on, and only
    // then.
    const WpbStream s = makeStream({{0x1000, 0x101c}}, /*vpn_pc=*/0x5000);
    EXPECT_TRUE(ReconvDetector::match(s, 0x1000, 0x101c, false).found);
    EXPECT_FALSE(ReconvDetector::match(s, 0x1000, 0x101c, true).found);
}

TEST(ReconvDetector, PriorityEncoderFirstAmongSeveral)
{
    // Three distinct entries all overlap the head block: the priority
    // encoder must pick the first (lowest index), not the tightest.
    const WpbStream s = makeStream(
        {{0x1000, 0x101c}, {0x1008, 0x1010}, {0x100c, 0x100c}});
    const ReconvHit hit = ReconvDetector::match(s, 0x100c, 0x1028, false);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.entryIdx, 0u);
    EXPECT_EQ(hit.reconvPC, 0x100cu);
    EXPECT_EQ(hit.instOffset, 3u); // offset within entry 0
}

TEST(ReconvDetector, InvalidStreamNeverMatches)
{
    // A stream with no filled entries is invalid, whatever its slots
    // still hold.
    WpbStream s = makeStream({{0x1000, 0x101c}});
    s.numEntries = 0;
    EXPECT_FALSE(ReconvDetector::match(s, 0x1000, 0x101c, false).found);
}

TEST(ReconvDetector, FilledPrefixBoundsMatchAtAnySize)
{
    // The same ranges in an 8-entry WPB and a 1024-entry WPB (the
    // Figure-10 upper-bound size), each first written with six blocks
    // and then rewritten with four: slots 4 and 5 keep the old blocks'
    // PCs past the filled prefix.
    auto blocksFrom = [](unsigned n) {
        std::vector<WpbEntry> out;
        for (unsigned i = 0; i < n; ++i) {
            const Addr start = 0x1000 + i * 0x1000;
            out.push_back(WpbEntry{start, start + 7 * InstBytes});
        }
        return out;
    };
    Wpb small(1, 8, false);
    Wpb large(1, 1024, false);
    for (Wpb *wpb : {&small, &large}) {
        wpb->writeStream(blocksFrom(6), 1, 1);
        wpb->writeStream(blocksFrom(4), 2, 2);
        ASSERT_EQ(wpb->stream(0).numEntries, 4u);
    }

    // Hit on the last filled entry: 3 whole blocks + 2 insts.
    const ReconvHit a = ReconvDetector::match(small.stream(0), 0x4008,
                                              0x4024, false);
    const ReconvHit b = ReconvDetector::match(large.stream(0), 0x4008,
                                              0x4024, false);
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.entryIdx, 3u);
    EXPECT_EQ(a.reconvPC, 0x4008u);
    EXPECT_EQ(a.instOffset, 26u);
    EXPECT_EQ(b.entryIdx, a.entryIdx);
    EXPECT_EQ(b.reconvPC, a.reconvPC);
    EXPECT_EQ(b.instOffset, a.instOffset);

    // A head block overlapping only a left-over range misses.
    EXPECT_FALSE(
        ReconvDetector::match(small.stream(0), 0x5000, 0x501c, false).found);
    EXPECT_FALSE(
        ReconvDetector::match(large.stream(0), 0x5000, 0x501c, false).found);
}
