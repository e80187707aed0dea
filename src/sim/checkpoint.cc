#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/serialize.hh"
#include "sim/memory.hh"

namespace mssr
{

namespace
{

constexpr char CkptMagic[9] = "MSSRCKPT";
// v2 added the producer-tier word to META (the file name keys only
// (program hash, K), so provenance must live inside the container)
// and the MEMH access-history section for functional cache warming.
constexpr std::uint32_t CkptVersion = 2;

/** Stable on-disk codes for FuncTier (never reorder the enum blindly). */
constexpr std::uint64_t TierCodeFast = 0;
constexpr std::uint64_t TierCodeInterp = 1;

/** BHST bytes per record: pc, next PC, taken. */
constexpr std::size_t BranchRecordBytes = 8 + 8 + 1;
/** MEMH bytes per record: one word (see writeCheckpoint). */
constexpr std::size_t MemRecordBytes = 8;

std::uint64_t
tierCode(FuncTier tier)
{
    return tier == FuncTier::Interpreter ? TierCodeInterp : TierCodeFast;
}

/**
 * A history ring's records oldest to newest. @p head is the oldest
 * record once the ring is full, and 0 until then.
 */
template <typename T>
std::vector<T>
oldestFirst(const std::vector<T> &recs, std::size_t head)
{
    std::vector<T> out;
    out.reserve(recs.size());
    out.insert(out.end(), recs.begin() + head, recs.end());
    out.insert(out.end(), recs.begin(), recs.begin() + head);
    return out;
}

} // namespace

std::vector<BranchOutcome>
BranchHistory::inOrder() const
{
    return oldestFirst(recs_, head_);
}

std::vector<MemAccess>
MemHistory::inOrder() const
{
    return oldestFirst(recs_, head_);
}

void
Checkpoint::captureMemory(const Memory &mem)
{
    pageRuns.clear();
    const auto pages = mem.sortedPages();
    // Find each contiguous run's extent first so its storage is
    // allocated exactly once -- appending page by page re-copies the
    // run on every vector growth, which hurts on MB-scale images.
    std::size_t i = 0;
    while (i < pages.size()) {
        std::size_t j = i + 1;
        while (j < pages.size() &&
               pages[j].first == pages[j - 1].first + 1)
            ++j;
        PageRun run;
        run.firstPage = pages[i].first;
        run.data.resize((j - i) * Memory::PageBytes);
        for (std::size_t k = i; k < j; ++k)
            std::memcpy(run.data.data() + (k - i) * Memory::PageBytes,
                        pages[k].second, Memory::PageBytes);
        pageRuns.push_back(std::move(run));
        i = j;
    }
}

void
Checkpoint::restoreMemory(Memory &mem) const
{
    for (const PageRun &run : pageRuns) {
        const std::size_t n = run.data.size() / Memory::PageBytes;
        for (std::size_t i = 0; i < n; ++i)
            mem.loadPage(run.firstPage + i,
                         run.data.data() + i * Memory::PageBytes);
    }
}

void
writeCheckpoint(const std::string &path, const Checkpoint &ckpt)
{
    SerialWriter w(CkptMagic, CkptVersion);

    w.beginSection("META");
    w.u64(ckpt.programHash);
    w.u64(ckpt.ffInsts);
    w.u64(ckpt.instret);
    w.u64(tierCode(ckpt.producerTier));
    w.endSection();

    w.beginSection("REGS");
    w.u64(ckpt.pc);
    w.u8(ckpt.halted ? 1 : 0);
    for (RegVal r : ckpt.regs)
        w.u64(r);
    w.endSection();

    w.beginSection("PAGE");
    w.u64(ckpt.pageRuns.size());
    for (const Checkpoint::PageRun &run : ckpt.pageRuns) {
        w.u64(run.firstPage);
        w.u64(run.data.size() / Memory::PageBytes);
        w.bytes(run.data.data(), run.data.size());
    }
    w.endSection();

    w.beginSection("BHST");
    w.u64(ckpt.branchHist.size());
    std::uint8_t *out = w.append(ckpt.branchHist.size() * BranchRecordBytes);
    for (const BranchOutcome &b : ckpt.branchHist) {
        putLe(out, b.pc);
        putLe(out + 8, b.next);
        out[16] = b.taken ? 1 : 0;
        out += BranchRecordBytes;
    }
    w.endSection();

    w.beginSection("MEMH");
    w.u64(ckpt.memHist.size());
    // One word per record: the store bit rides in bit 0 under the
    // left-shifted address (warming is line-granular, so the top
    // address bit carries no information worth a second field).
    out = w.append(ckpt.memHist.size() * MemRecordBytes);
    for (const MemAccess &a : ckpt.memHist) {
        putLe(out, (a.addr << 1) | (a.isStore ? 1 : 0));
        out += MemRecordBytes;
    }
    w.endSection();

    w.writeFile(path);
}

Checkpoint
readCheckpoint(const std::string &path)
{
    SerialReader r(SerialReader::readFile(path), CkptMagic, CkptVersion);
    Checkpoint ckpt;
    bool meta = false, regs = false, page = false, bhst = false;
    bool memh = false;
    while (!r.atEnd()) {
        const std::string tag = r.enterSection();
        if (tag == "META") {
            ckpt.programHash = r.u64();
            ckpt.ffInsts = r.u64();
            ckpt.instret = r.u64();
            const std::uint64_t tier = r.u64();
            if (tier == TierCodeFast) {
                ckpt.producerTier = FuncTier::Fast;
            } else if (tier == TierCodeInterp) {
                ckpt.producerTier = FuncTier::Interpreter;
            } else {
                throw SerializeError(
                    "unknown producer-tier code " + std::to_string(tier) +
                    " (file from a newer, incompatible build?)");
            }
            meta = true;
        } else if (tag == "REGS") {
            ckpt.pc = r.u64();
            ckpt.halted = r.u8() != 0;
            for (RegVal &reg : ckpt.regs)
                reg = r.u64();
            regs = true;
        } else if (tag == "PAGE") {
            const std::uint64_t runs = r.u64();
            for (std::uint64_t i = 0; i < runs; ++i) {
                Checkpoint::PageRun run;
                run.firstPage = r.u64();
                const std::uint64_t pages = r.u64();
                if (pages > r.remaining() / Memory::PageBytes)
                    throw SerializeError(
                        "page-run count exceeds section size");
                run.data.resize(static_cast<std::size_t>(pages) *
                                Memory::PageBytes);
                r.bytes(run.data.data(), run.data.size());
                ckpt.pageRuns.push_back(std::move(run));
            }
            page = true;
        } else if (tag == "BHST") {
            const std::uint64_t n = r.u64();
            if (n > r.remaining() / BranchRecordBytes)
                throw SerializeError(
                    "branch-history count exceeds section size");
            ckpt.branchHist.resize(static_cast<std::size_t>(n));
            const std::uint8_t *in = r.take(ckpt.branchHist.size() *
                                            BranchRecordBytes);
            for (BranchOutcome &b : ckpt.branchHist) {
                b.pc = getLe<std::uint64_t>(in);
                b.next = getLe<std::uint64_t>(in + 8);
                b.taken = in[16] != 0;
                in += BranchRecordBytes;
            }
            bhst = true;
        } else if (tag == "MEMH") {
            const std::uint64_t n = r.u64();
            if (n > r.remaining() / MemRecordBytes)
                throw SerializeError(
                    "memory-history count exceeds section size");
            ckpt.memHist.resize(static_cast<std::size_t>(n));
            const std::uint8_t *in =
                r.take(ckpt.memHist.size() * MemRecordBytes);
            for (MemAccess &a : ckpt.memHist) {
                const std::uint64_t word = getLe<std::uint64_t>(in);
                a.addr = word >> 1;
                a.isStore = (word & 1) != 0;
                in += MemRecordBytes;
            }
            memh = true;
        } else {
            // Unknown section: forward-compat would skip it, but v2
            // has no optional sections, so treat it as corruption.
            throw SerializeError("unknown section '" + tag + "'");
        }
        r.leaveSection();
    }
    if (!meta || !regs || !page || !bhst || !memh)
        throw SerializeError("missing checkpoint section (truncated?)");
    return ckpt;
}

std::string
checkpointFileName(std::uint64_t program_hash, std::uint64_t ff_insts)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "ck_%016llx_ff%llu.ckpt",
                  static_cast<unsigned long long>(program_hash),
                  static_cast<unsigned long long>(ff_insts));
    return buf;
}

namespace
{

/** The mssr_ckpt_store_* counters, registered on first use. */
struct StoreMetrics
{
    MetricsRegistry &reg = MetricsRegistry::global();
    Counter &hits = reg.counter(
        "mssr_ckpt_store_hits_total",
        "Checkpoints loaded from the on-disk checkpoint store");
    Counter &misses = reg.counter(
        "mssr_ckpt_store_misses_total",
        "Checkpoints computed and written because the store had no match");
    Counter &bytesRead = reg.counter("mssr_ckpt_store_bytes_read_total",
                                     "Bytes read from the checkpoint store");
    Counter &bytesWritten =
        reg.counter("mssr_ckpt_store_bytes_written_total",
                    "Bytes written to the checkpoint store");
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics m;
    return m;
}

} // namespace

std::optional<Checkpoint>
loadStoredCheckpoint(const std::string &dir, std::uint64_t program_hash,
                     std::uint64_t ff_insts)
{
    const std::string path =
        dir + "/" + checkpointFileName(program_hash, ff_insts);
    if (!std::filesystem::exists(path))
        return std::nullopt;
    Checkpoint ckpt = readCheckpoint(path);
    if (ckpt.programHash != program_hash || ckpt.ffInsts != ff_insts)
        throw SerializeError("store checkpoint '" + path +
                             "' was not taken from this program at " +
                             std::to_string(ff_insts) + " instructions");
    const auto bytes = std::filesystem::file_size(path);
    StoreMetrics &m = storeMetrics();
    m.hits.inc();
    m.bytesRead.inc(bytes);
    logDebug("ckpt", "store hit ", path, " (", bytes, " bytes)");
    return ckpt;
}

void
saveStoredCheckpoint(const std::string &dir, const Checkpoint &ckpt)
{
    const std::string path =
        dir + "/" + checkpointFileName(ckpt.programHash, ckpt.ffInsts);
    writeCheckpoint(path, ckpt);
    const auto bytes = std::filesystem::file_size(path);
    StoreMetrics &m = storeMetrics();
    m.misses.inc();
    m.bytesWritten.inc(bytes);
    logDebug("ckpt", "store miss, wrote ", path, " (", bytes, " bytes)");
}

void
registerCheckpointStoreMetrics()
{
    storeMetrics();
}

} // namespace mssr
