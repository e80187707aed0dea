#include <gtest/gtest.h>

#include "reuse/squash_log.hh"

using namespace mssr;

TEST(SquashLog, AppendAndCapacity)
{
    SquashLog log(2, 3);
    SquashLogEntry e;
    e.pc = 0x1000;
    EXPECT_TRUE(log.append(0, e));
    EXPECT_TRUE(log.append(0, e));
    EXPECT_TRUE(log.append(0, e));
    // Beyond capacity: younger squashed instructions are discarded.
    EXPECT_FALSE(log.append(0, e));
    EXPECT_EQ(log.stream(0).numEntries, 3u);
}

TEST(SquashLog, StreamsAreIndependent)
{
    SquashLog log(2, 4);
    SquashLogEntry e;
    e.pc = 0xaaa0;
    log.append(0, e);
    EXPECT_EQ(log.stream(0).numEntries, 1u);
    EXPECT_EQ(log.stream(1).numEntries, 0u);
    e.pc = 0xbbb0;
    log.append(1, e);
    EXPECT_EQ(log.stream(0).entries[0].pc, 0xaaa0u);
    EXPECT_EQ(log.stream(1).entries[0].pc, 0xbbb0u);
}

TEST(SquashLog, ClearStream)
{
    SquashLog log(1, 4);
    SquashLogEntry e;
    e.reserved = true;
    log.append(0, e);
    log.clearStream(0);
    // The stream and its slot 0 are invalid.
    EXPECT_EQ(log.stream(0).numEntries, 0u);
    EXPECT_FALSE(log.stream(0).entries[0].reserved);
}

TEST(SquashLog, ClearResetsFilledPrefixForShorterRefill)
{
    // Fill to capacity and mark every entry the way the reuse unit
    // does (reservation, coverage, first test), then clear and refill
    // with fewer entries: every slot at or past numEntries must be a
    // default entry again, so a clear that stops one slot short shows.
    constexpr unsigned Cap = 8;
    SquashLog log(1, Cap);
    for (unsigned i = 0; i < Cap; ++i) {
        SquashLogEntry e;
        e.pc = 0x1000 + i * InstBytes;
        e.reserved = true;
        e.executed = true;
        ASSERT_TRUE(log.append(0, e));
        log.stream(0).entries[i].covered = true;
        log.stream(0).entries[i].tested = true;
        log.stream(0).entries[i].consumed = true;
    }
    log.clearStream(0);
    for (unsigned i = 0; i < Cap; ++i)
        EXPECT_EQ(log.stream(0).entries[i], SquashLogEntry{}) << "slot " << i;

    for (unsigned i = 0; i < 3; ++i) {
        SquashLogEntry e;
        e.pc = 0x2000 + i * InstBytes;
        ASSERT_TRUE(log.append(0, e));
    }
    const SquashLogStream &stream = log.stream(0);
    ASSERT_EQ(stream.numEntries, 3u); // slots 0-2 valid
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(stream.entries[i].pc, 0x2000u + i * InstBytes);
        EXPECT_FALSE(stream.entries[i].covered);
        EXPECT_FALSE(stream.entries[i].tested);
    }
    for (unsigned i = stream.numEntries; i < Cap; ++i)
        EXPECT_EQ(stream.entries[i], SquashLogEntry{}) << "slot " << i;
}

TEST(SquashLog, AllUnoccupiedTracksValidity)
{
    SquashLog log(2, 2);
    EXPECT_TRUE(log.allUnoccupied());
    SquashLogEntry e;
    log.append(1, e);
    EXPECT_FALSE(log.allUnoccupied());
    log.clearStream(1);
    EXPECT_TRUE(log.allUnoccupied());
}

TEST(SquashLog, EntryFieldsRoundTrip)
{
    SquashLog log(1, 2);
    SquashLogEntry e;
    e.pc = 0x1234;
    e.op = isa::Op::ADD;
    e.numSrcs = 2;
    e.srcRgid[0] = 5;
    e.srcRgid[1] = 6;
    e.dstRgid = 7;
    e.destPreg = 42;
    e.hasDest = true;
    e.executed = true;
    log.append(0, e);
    ASSERT_EQ(log.stream(0).numEntries, 1u); // slot 0 valid
    const SquashLogEntry &r = log.stream(0).entries[0];
    EXPECT_EQ(r.pc, 0x1234u);
    EXPECT_EQ(r.op, isa::Op::ADD);
    EXPECT_EQ(r.srcRgid[1], 6u);
    EXPECT_EQ(r.destPreg, 42u);
    EXPECT_TRUE(r.executed);
}
