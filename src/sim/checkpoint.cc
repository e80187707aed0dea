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

std::uint64_t
tierCode(FuncTier tier)
{
    return tier == FuncTier::Interpreter ? TierCodeInterp : TierCodeFast;
}

} // namespace

std::vector<BranchOutcome>
BranchHistory::inOrder() const
{
    std::vector<BranchOutcome> out;
    out.reserve(recs_.size());
    if (recs_.size() < cap_) {
        out = recs_;
    } else {
        for (std::size_t i = 0; i < recs_.size(); ++i)
            out.push_back(recs_[(head_ + i) % cap_]);
    }
    return out;
}

std::vector<MemAccess>
MemHistory::inOrder() const
{
    std::vector<MemAccess> out;
    out.reserve(recs_.size());
    if (recs_.size() < cap_) {
        out = recs_;
    } else {
        for (std::size_t i = 0; i < recs_.size(); ++i)
            out.push_back(recs_[(head_ + i) % cap_]);
    }
    return out;
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
    for (const BranchOutcome &b : ckpt.branchHist) {
        w.u64(b.pc);
        w.u64(b.next);
        w.u8(b.taken ? 1 : 0);
    }
    w.endSection();

    w.beginSection("MEMH");
    w.u64(ckpt.memHist.size());
    // One word per record: the store bit rides in bit 0 under the
    // left-shifted address (warming is line-granular, so the top
    // address bit carries no information worth a second field).
    for (const MemAccess &a : ckpt.memHist)
        w.u64((a.addr << 1) | (a.isStore ? 1 : 0));
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
            if (n > r.remaining() / 17) // 8 + 8 + 1 bytes per record
                throw SerializeError(
                    "branch-history count exceeds section size");
            ckpt.branchHist.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                BranchOutcome b;
                b.pc = r.u64();
                b.next = r.u64();
                b.taken = r.u8() != 0;
                ckpt.branchHist.push_back(b);
            }
            bhst = true;
        } else if (tag == "MEMH") {
            const std::uint64_t n = r.u64();
            if (n > r.remaining() / 8)
                throw SerializeError(
                    "memory-history count exceeds section size");
            ckpt.memHist.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                const std::uint64_t word = r.u64();
                MemAccess a;
                a.addr = word >> 1;
                a.isStore = (word & 1) != 0;
                ckpt.memHist.push_back(a);
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
