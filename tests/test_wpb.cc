#include <gtest/gtest.h>

#include "reuse/wpb.hh"

using namespace mssr;

namespace
{

std::vector<WpbEntry>
ranges(std::initializer_list<std::pair<Addr, Addr>> list)
{
    std::vector<WpbEntry> out;
    for (auto [s, e] : list)
        out.push_back(WpbEntry{s, e});
    return out;
}

/** @p n two-instruction blocks, 256 bytes apart from @p base. */
std::vector<WpbEntry>
blocks(unsigned n, Addr base)
{
    std::vector<WpbEntry> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(
            WpbEntry{base + i * 0x100, base + i * 0x100 + InstBytes});
    return out;
}

} // namespace

TEST(Wpb, RoundRobinAllocation)
{
    Wpb wpb(2, 4, false);
    EXPECT_EQ(wpb.writeStream(ranges({{0x1000, 0x101c}}), 10, 1), 0u);
    EXPECT_EQ(wpb.writeStream(ranges({{0x2000, 0x201c}}), 20, 2), 1u);
    EXPECT_EQ(wpb.writeStream(ranges({{0x3000, 0x301c}}), 30, 3), 0u);
    EXPECT_EQ(wpb.stream(0).originBranchSeq, 30u);
    EXPECT_EQ(wpb.stream(1).originBranchSeq, 20u);
}

TEST(Wpb, CapacityDropsYoungerBlocks)
{
    Wpb wpb(1, 2, false);
    wpb.writeStream(ranges({{0x1000, 0x101c},
                            {0x2000, 0x201c},
                            {0x3000, 0x301c}}),
                    1, 1);
    const WpbStream &s = wpb.stream(0);
    EXPECT_EQ(s.numEntries, 2u); // slots 0 and 1 filled
    EXPECT_EQ(s.entries[1].startPC, 0x2000u);
    EXPECT_EQ(s.numInsts(), 16u); // 2 blocks x 8 insts
}

TEST(Wpb, VpnRestrictionTruncatesAtPageBoundary)
{
    Wpb wpb(1, 8, true);
    // Second block on a different 4K page: dropped.
    wpb.writeStream(ranges({{0x1000, 0x101c}, {0x5000, 0x501c}}), 1, 1);
    const WpbStream &s = wpb.stream(0);
    EXPECT_EQ(s.numEntries, 1u); // slot 0 filled, slot 1 not
    EXPECT_EQ(s.vpn, 0x1u);
}

TEST(Wpb, InvalidateAndAnyValid)
{
    Wpb wpb(2, 4, false);
    EXPECT_FALSE(wpb.anyValid());
    wpb.writeStream(ranges({{0x1000, 0x1000}}), 1, 1);
    EXPECT_TRUE(wpb.anyValid());
    wpb.invalidate(0);
    EXPECT_FALSE(wpb.anyValid());
    wpb.writeStream(ranges({{0x1000, 0x1000}}), 2, 2);
    EXPECT_TRUE(wpb.anyValid());
    wpb.invalidate(1);
    EXPECT_FALSE(wpb.anyValid());
}

TEST(Wpb, EmptyRangesLeaveStreamInvalid)
{
    Wpb wpb(2, 4, false);
    wpb.writeStream({}, 5, 1);
    EXPECT_EQ(wpb.stream(0).numEntries, 0u);
}

TEST(Wpb, StreamInstCount)
{
    Wpb wpb(1, 4, false);
    wpb.writeStream(ranges({{0x1000, 0x1004}, {0x2000, 0x2000}}), 1, 1);
    EXPECT_EQ(wpb.stream(0).numInsts(), 3u);
}

TEST(Wpb, ShorterRewriteClearsOldPrefix)
{
    // A full stream rewritten with fewer ranges: no slot past the new
    // fill may stay valid, so a fill count left at the old length shows.
    constexpr unsigned Cap = 8;
    Wpb wpb(1, Cap, false);
    wpb.writeStream(blocks(Cap, 0x1000), 1, 1);
    ASSERT_EQ(wpb.stream(0).numEntries, Cap);
    wpb.writeStream(blocks(3, 0x8000), 2, 2);
    const WpbStream &s = wpb.stream(0);
    // Slots 0-2 valid, slots 3-7 invalid.
    ASSERT_EQ(s.numEntries, 3u);
    for (unsigned i = 0; i < s.numEntries; ++i)
        EXPECT_EQ(s.entries[i].startPC, 0x8000u + i * 0x100);
    EXPECT_EQ(s.numInsts(), 6u);
}

TEST(Wpb, InvalidateClearsPartlyFilledStream)
{
    constexpr unsigned Cap = 8;
    Wpb wpb(2, Cap, false);
    wpb.writeStream(blocks(5, 0x1000), 1, 1);
    wpb.writeStream(blocks(2, 0x2000), 2, 2);
    EXPECT_EQ(wpb.stream(0).numEntries, 5u);
    wpb.invalidate(0);
    const WpbStream &s = wpb.stream(0);
    EXPECT_EQ(s.numEntries, 0u); // the stream and every slot invalid
    EXPECT_EQ(s.numInsts(), 0u);
    // The other stream is untouched.
    EXPECT_EQ(wpb.stream(1).numEntries, 2u);
    EXPECT_EQ(wpb.stream(1).numInsts(), 4u);
}
