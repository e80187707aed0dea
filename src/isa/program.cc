#include "isa/program.hh"

#include "common/log.hh"
#include "sim/memory.hh"

namespace mssr::isa
{

Program::Program()
    : codeBase_(DefaultCodeBase),
      entry_(DefaultCodeBase),
      dataBase_(DefaultDataBase),
      dataTop_(DefaultDataBase),
      stackTop_(DefaultStackTop)
{
}

const Inst &
Program::instAt(Addr pc) const
{
    mssr_assert(hasInst(pc), "instAt(0x", std::hex, pc, ") out of range");
    return insts_[(pc - codeBase_) / InstBytes];
}

Addr
Program::append(const Inst &inst)
{
    const Addr pc = codeEnd();
    insts_.push_back(inst);
    changed();
    return pc;
}

void
Program::defineLabel(const std::string &name, Addr addr)
{
    if (labels_.count(name))
        fatal("duplicate label '", name, "'");
    labels_[name] = addr;
}

bool
Program::hasLabel(const std::string &name) const
{
    return labels_.count(name) != 0;
}

Addr
Program::label(const std::string &name) const
{
    auto it = labels_.find(name);
    if (it == labels_.end())
        fatal("undefined label '", name, "'");
    return it->second;
}

Addr
Program::allocData(const std::string &name, std::size_t bytes,
                   std::size_t align)
{
    mssr_assert(align != 0 && (align & (align - 1)) == 0);
    dataTop_ = (dataTop_ + align - 1) & ~static_cast<Addr>(align - 1);
    const Addr addr = dataTop_;
    dataTop_ += bytes;
    if (!name.empty())
        defineLabel(name, addr);
    return addr;
}

void
Program::writeData(Addr addr, const std::uint8_t *bytes, std::size_t n)
{
    auto &chunk = dataChunks_[addr];
    if (chunk.size() < n)
        chunk.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        chunk[i] = bytes[i];
    changed();
}

void
Program::initData64(Addr addr, const std::vector<std::int64_t> &values)
{
    std::vector<std::uint8_t> bytes(values.size() * 8);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto v = static_cast<std::uint64_t>(values[i]);
        for (int b = 0; b < 8; ++b)
            bytes[i * 8 + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    writeData(addr, bytes.data(), bytes.size());
}

void
Program::initBytes(Addr addr, const std::vector<std::uint8_t> &bytes)
{
    writeData(addr, bytes.data(), bytes.size());
}

void
Program::loadInto(Memory &mem) const
{
    for (const auto &[addr, bytes] : dataChunks_)
        mem.writeBlock(addr, bytes.data(), bytes.size());
}

namespace
{

inline void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
}

} // namespace

std::uint64_t
Program::hash() const
{
    if (const std::uint64_t memo = hash_.value.load(std::memory_order_relaxed))
        return memo;
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a offset basis
    fnv1a(h, codeBase_);
    fnv1a(h, entry_);
    fnv1a(h, dataBase_);
    fnv1a(h, stackTop_);
    fnv1a(h, insts_.size());
    for (const Inst &inst : insts_) {
        fnv1a(h, static_cast<std::uint64_t>(inst.op));
        fnv1a(h, (std::uint64_t{inst.rd} << 16) |
                     (std::uint64_t{inst.rs1} << 8) | inst.rs2);
        fnv1a(h, static_cast<std::uint64_t>(inst.imm));
    }
    for (const auto &[addr, bytes] : dataChunks_) {
        fnv1a(h, addr);
        fnv1a(h, bytes.size());
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ull;
        }
    }
    hash_.value.store(h, std::memory_order_relaxed);
    return h;
}

} // namespace mssr::isa
