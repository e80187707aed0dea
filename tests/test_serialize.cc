/**
 * Serialization layer and checkpoint container: primitive round-trips,
 * the endian-stable on-disk layout, and adversarial inputs (truncated,
 * bit-flipped, wrong magic/version) which must raise SerializeError --
 * never crash, never partially populate caller state. Also co-simulates
 * FuncEmu save/restore against an uninterrupted reference run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/func_emu.hh"
#include "sim/memory.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

const std::string SampleText = "hello, serialization";

/** A representative multi-section image for corruption tests. */
std::vector<std::uint8_t>
sampleImage()
{
    SerialWriter w("TESTMAGC", 3);
    w.beginSection("ONE ");
    w.u8(0xAB);
    const std::uint8_t pair[2] = {0xBE, 0xEF};
    w.bytes(pair, 2);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.endSection();
    w.beginSection("TWO ");
    w.u32(static_cast<std::uint32_t>(SampleText.size()));
    w.bytes(reinterpret_cast<const std::uint8_t *>(SampleText.data()),
            SampleText.size());
    w.endSection();
    return w.buffer();
}

void
readSampleImage(std::vector<std::uint8_t> data)
{
    SerialReader r(std::move(data), "TESTMAGC", 3);
    EXPECT_EQ(r.enterSection(), "ONE ");
    EXPECT_EQ(r.u8(), 0xAB);
    std::uint8_t pair[2] = {};
    r.bytes(pair, 2);
    EXPECT_EQ(pair[0], 0xBE);
    EXPECT_EQ(pair[1], 0xEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    r.leaveSection();
    EXPECT_EQ(r.enterSection(), "TWO ");
    ASSERT_EQ(r.u32(), SampleText.size());
    std::string text(SampleText.size(), '\0');
    r.bytes(reinterpret_cast<std::uint8_t *>(text.data()), text.size());
    EXPECT_EQ(text, SampleText);
    r.leaveSection();
    EXPECT_TRUE(r.atEnd());
}

} // namespace

TEST(Serialize, Crc32MatchesIeeeReferenceVector)
{
    // The canonical CRC-32 check value: crc32("123456789").
    const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8',
                                '9'};
    EXPECT_EQ(crc32(msg, sizeof msg), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Serialize, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    // The definition, one bit at a time: the eight-byte steps and the
    // byte tail must agree with it whatever the length and alignment.
    const auto reference = [](const std::uint8_t *p, std::size_t n) {
        std::uint32_t c = 0xFFFFFFFFu;
        for (std::size_t i = 0; i < n; ++i) {
            c ^= p[i];
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        return c ^ 0xFFFFFFFFu;
    };
    Rng rng(25);
    std::vector<std::uint8_t> buf(8 + 256);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t n = 0; n <= 256; ++n)
            ASSERT_EQ(crc32(buf.data() + offset, n),
                      reference(buf.data() + offset, n))
                << "offset " << offset << ", length " << n;
}

TEST(Serialize, PrimitivesRoundTrip)
{
    readSampleImage(sampleImage());
}

TEST(Serialize, LayoutIsLittleEndianAndStable)
{
    SerialWriter w("TESTMAGC", 3);
    w.beginSection("TAG0");
    w.u32(0x11223344);
    w.endSection();
    const std::vector<std::uint8_t> &b = w.buffer();

    // [8-byte magic][u32 version][4-byte tag][u64 len][payload][crc].
    ASSERT_EQ(b.size(), 8u + 4 + 4 + 8 + 4 + 4);
    EXPECT_EQ(std::string(b.begin(), b.begin() + 8), "TESTMAGC");
    EXPECT_EQ(b[8], 3u); // version, little-endian
    EXPECT_EQ(b[9], 0u);
    EXPECT_EQ(std::string(b.begin() + 12, b.begin() + 16), "TAG0");
    EXPECT_EQ(b[16], 4u); // payload length 4, little-endian u64
    for (int i = 17; i < 24; ++i)
        EXPECT_EQ(b[i], 0u);
    EXPECT_EQ(b[24], 0x44); // the u32 payload, little-endian
    EXPECT_EQ(b[25], 0x33);
    EXPECT_EQ(b[26], 0x22);
    EXPECT_EQ(b[27], 0x11);
}

TEST(Serialize, WrongMagicThrows)
{
    std::vector<std::uint8_t> img = sampleImage();
    img[0] ^= 0xFF;
    EXPECT_THROW(SerialReader(img, "TESTMAGC", 3), SerializeError);
    // Reading with a different expected magic fails the same way.
    EXPECT_THROW(SerialReader(sampleImage(), "OTHERMAG", 3),
                 SerializeError);
}

TEST(Serialize, WrongVersionThrows)
{
    EXPECT_THROW(SerialReader(sampleImage(), "TESTMAGC", 2),
                 SerializeError);
    EXPECT_THROW(SerialReader(sampleImage(), "TESTMAGC", 4),
                 SerializeError);
}

TEST(Serialize, EveryTruncationThrowsCleanly)
{
    const std::vector<std::uint8_t> img = sampleImage();
    for (std::size_t n = 0; n < img.size(); ++n) {
        std::vector<std::uint8_t> cut(img.begin(), img.begin() + n);
        EXPECT_THROW(readSampleImage(std::move(cut)), SerializeError)
            << "truncated to " << n << " of " << img.size() << " bytes";
    }
}

TEST(Serialize, EveryFlippedByteThrowsCleanly)
{
    // Flipping any byte -- header, tag, length, payload or CRC -- must
    // surface as SerializeError (magic/version mismatch, bad bounds or
    // CRC failure), never as silently wrong values. Payload flips are
    // caught by the CRC before any accessor sees the data.
    const std::vector<std::uint8_t> img = sampleImage();
    for (std::size_t i = 0; i < img.size(); ++i) {
        std::vector<std::uint8_t> bad = img;
        bad[i] ^= 0x40;
        EXPECT_THROW(readSampleImage(std::move(bad)), SerializeError)
            << "flipped byte " << i;
    }
}

TEST(Serialize, OverreadAndUnderreadOfSectionThrow)
{
    {
        SerialReader r(sampleImage(), "TESTMAGC", 3);
        r.enterSection();
        r.u64(); // only 15 bytes in "ONE " -- this crosses the end
        EXPECT_THROW(r.u64(), SerializeError);
    }
    {
        SerialReader r(sampleImage(), "TESTMAGC", 3);
        r.enterSection();
        r.u8();
        EXPECT_THROW(r.leaveSection(), SerializeError); // 14 bytes left
    }
}

TEST(Serialize, FileRoundTripAndMissingFile)
{
    const std::string path = tempPath("serialize_roundtrip.bin");
    SerialWriter w("TESTMAGC", 3);
    w.beginSection("TAG0");
    w.u64(42);
    w.endSection();
    w.writeFile(path);

    SerialReader r(SerialReader::readFile(path), "TESTMAGC", 3);
    EXPECT_EQ(r.enterSection(), "TAG0");
    EXPECT_EQ(r.u64(), 42u);
    r.leaveSection();
    EXPECT_TRUE(r.atEnd());
    std::filesystem::remove(path);

    EXPECT_THROW(SerialReader::readFile(tempPath("no_such_file.bin")),
                 SerializeError);
}

namespace
{

/** Checkpoint with hand-built state covering @p runs page runs. */
Checkpoint
syntheticCheckpoint(unsigned runs)
{
    Checkpoint ck;
    ck.programHash = 0x1122334455667788ull;
    ck.ffInsts = 1000;
    ck.instret = 987;
    ck.pc = 0x1040;
    ck.halted = false;
    for (unsigned r = 0; r < NumArchRegs; ++r)
        ck.regs[r] = 0x100 * r + 7;
    Memory mem;
    for (unsigned r = 0; r < runs; ++r) {
        // Two consecutive pages per run, with a gap between runs.
        const Addr base = Addr{r} * 8 * Memory::PageBytes + 0x100000;
        mem.write64(base, 0xAAAA0000 + r);
        mem.write64(base + Memory::PageBytes + 16, 0xBBBB0000 + r);
    }
    ck.captureMemory(mem);
    ck.branchHist = {{0x1000, 0x1010, true}, {0x1014, 0x1018, false}};
    return ck;
}

} // namespace

TEST(Checkpoint, RoundTripsEmptyOnePageAndMultiPage)
{
    for (unsigned runs : {0u, 1u, 3u, 17u}) {
        const Checkpoint ck = syntheticCheckpoint(runs);
        EXPECT_EQ(ck.pageRuns.size(), runs);
        const std::string path = tempPath("ckpt_roundtrip.ckpt");
        writeCheckpoint(path, ck);
        const Checkpoint back = readCheckpoint(path);
        EXPECT_TRUE(back == ck) << runs << " page runs";
        std::filesystem::remove(path);
    }
}

TEST(Checkpoint, CaptureCoalescesConsecutivePages)
{
    Memory mem;
    mem.write64(0, 1);                      // page 0
    mem.write64(Memory::PageBytes, 2);      // page 1 -- same run
    mem.write64(4 * Memory::PageBytes, 3);  // page 4 -- new run
    Checkpoint ck;
    ck.captureMemory(mem);
    ASSERT_EQ(ck.pageRuns.size(), 2u);
    EXPECT_EQ(ck.pageRuns[0].firstPage, 0u);
    EXPECT_EQ(ck.pageRuns[0].data.size(), 2 * Memory::PageBytes);
    EXPECT_EQ(ck.pageRuns[1].firstPage, 4u);
    EXPECT_EQ(ck.pageRuns[1].data.size(), Memory::PageBytes);

    Memory back;
    ck.restoreMemory(back);
    EXPECT_EQ(back.read64(0), 1u);
    EXPECT_EQ(back.read64(Memory::PageBytes), 2u);
    EXPECT_EQ(back.read64(4 * Memory::PageBytes), 3u);
}

TEST(Checkpoint, CorruptFilesThrowNeverCrash)
{
    const Checkpoint ck = syntheticCheckpoint(2);
    const std::string path = tempPath("ckpt_corrupt.ckpt");
    writeCheckpoint(path, ck);
    std::vector<std::uint8_t> img = SerialReader::readFile(path);
    std::filesystem::remove(path);

    const std::string badPath = tempPath("ckpt_corrupt_bad.ckpt");
    auto writeRaw = [&](const std::vector<std::uint8_t> &data) {
        std::ofstream os(badPath, std::ios::binary);
        os.write(reinterpret_cast<const char *>(data.data()),
                 static_cast<std::streamsize>(data.size()));
    };

    // Truncation at every prefix length.
    for (std::size_t n = 0; n < img.size(); n += 7) {
        writeRaw({img.begin(), img.begin() + n});
        EXPECT_THROW(readCheckpoint(badPath), SerializeError)
            << "truncated to " << n;
    }
    // A flipped byte inside the first section's payload (CRC must
    // catch it) and a flipped final-CRC byte.
    for (const std::size_t at : {std::size_t{30}, img.size() - 1}) {
        std::vector<std::uint8_t> bad = img;
        bad[at] ^= 0x01;
        writeRaw(bad);
        EXPECT_THROW(readCheckpoint(badPath), SerializeError)
            << "flipped byte " << at;
    }
    // Wrong magic and wrong version words.
    {
        std::vector<std::uint8_t> bad = img;
        bad[0] = 'X';
        writeRaw(bad);
        EXPECT_THROW(readCheckpoint(badPath), SerializeError);
    }
    {
        std::vector<std::uint8_t> bad = img;
        bad[8] = 0xFE;
        writeRaw(bad);
        EXPECT_THROW(readCheckpoint(badPath), SerializeError);
    }
    std::filesystem::remove(badPath);
}

TEST(Checkpoint, FuncEmuRestoreNeverDivergesFromStraightRun)
{
    // Co-simulation: for a sweep of split points K, running K insts,
    // checkpointing, restoring into a fresh emulator on fresh memory
    // and finishing must be indistinguishable -- registers, PC,
    // instret, halt state and memory -- from the uninterrupted run.
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 80;
    for (const std::string name : {"bfs", "gobmk"}) {
        const isa::Program prog = workloads::buildWorkload(name, scale);

        Memory refMem;
        FuncEmu ref(prog, refMem);
        ref.run(0); // to completion
        const std::uint64_t total = ref.instret();
        ASSERT_GT(total, 1000u);

        for (const std::uint64_t k :
             {std::uint64_t{1}, total / 7, total / 3, total - 1, total}) {
            Memory aMem;
            FuncEmu a(prog, aMem);
            a.run(k);
            Checkpoint ck;
            a.saveState(ck);

            Memory bMem;
            FuncEmu b(prog, bMem);
            b.restoreState(ck);
            EXPECT_EQ(b.pc(), a.pc());
            EXPECT_EQ(b.instret(), k);
            b.run(0);

            EXPECT_EQ(b.instret(), total) << name << " k=" << k;
            EXPECT_EQ(b.halted(), ref.halted());
            EXPECT_EQ(b.pc(), ref.pc());
            EXPECT_EQ(b.regs(), ref.regs()) << name << " k=" << k;
            // Full memory-image comparison via the page capture.
            Checkpoint endB, endRef;
            endB.captureMemory(bMem);
            endRef.captureMemory(refMem);
            EXPECT_TRUE(endB.pageRuns == endRef.pageRuns)
                << name << " k=" << k;
        }
    }
}
