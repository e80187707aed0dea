/**
 * @file
 * Program container: a code image (vector of decoded instructions at a
 * base address), a symbol table, and an initialised data image that is
 * loaded into simulated memory before execution.
 */

#ifndef MSSR_ISA_PROGRAM_HH
#define MSSR_ISA_PROGRAM_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace mssr
{
class Memory;
} // namespace mssr

namespace mssr::isa
{

/**
 * A complete simulated program. Code lives at codeBase() in 4-byte
 * instruction slots; data allocations grow upward from a separate data
 * base; the stack pointer is initialised to stackTop().
 */
class Program
{
  public:
    static constexpr Addr DefaultCodeBase = 0x1000;
    static constexpr Addr DefaultDataBase = 0x100000;
    static constexpr Addr DefaultStackTop = 0x7ff0000;

    Program();

    /** @name Code image */
    /// @{
    Addr codeBase() const { return codeBase_; }
    Addr entry() const { return entry_; }
    void
    setEntry(Addr pc)
    {
        entry_ = pc;
        changed();
    }

    std::size_t numInsts() const { return insts_.size(); }
    Addr codeEnd() const { return codeBase_ + insts_.size() * InstBytes; }

    /** True when @p pc addresses an instruction of this program. */
    bool
    hasInst(Addr pc) const
    {
        return pc >= codeBase_ && pc < codeEnd() &&
               (pc - codeBase_) % InstBytes == 0;
    }

    /** The instruction at @p pc; pc must satisfy hasInst(). */
    const Inst &instAt(Addr pc) const;

    /**
     * The instruction at @p pc, or nullptr when @p pc does not address
     * one. A single range/alignment check -- the hot-path alternative
     * to a hasInst() + instAt() pair, which pays the check twice.
     */
    const Inst *
    tryInstAt(Addr pc) const
    {
        const Addr off = pc - codeBase_;
        if (pc < codeBase_ || off >= insts_.size() * InstBytes ||
            off % InstBytes != 0)
            return nullptr;
        return &insts_[off / InstBytes];
    }

    /** The whole code image, in PC order from codeBase(). */
    const std::vector<Inst> &insts() const { return insts_; }

    /** Appends an instruction, returning its PC. */
    Addr append(const Inst &inst);
    /// @}

    /** @name Symbols */
    /// @{
    /** Defines a label at an absolute address. Redefinition is fatal. */
    void defineLabel(const std::string &name, Addr addr);
    bool hasLabel(const std::string &name) const;
    Addr label(const std::string &name) const;
    /// @}

    /** @name Data image */
    /// @{
    Addr dataBase() const { return dataBase_; }
    Addr stackTop() const { return stackTop_; }

    /**
     * Reserves @p bytes of zero-initialised data with the given
     * alignment, defines @p name as a label, and returns the address.
     */
    Addr allocData(const std::string &name, std::size_t bytes,
                   std::size_t align = 8);

    /** Writes an array of 64-bit values starting at @p addr. */
    void initData64(Addr addr, const std::vector<std::int64_t> &values);
    /** Writes raw bytes at @p addr. */
    void initBytes(Addr addr, const std::vector<std::uint8_t> &bytes);

    /** Copies the data image into @p mem. */
    void loadInto(Memory &mem) const;
    /// @}

    /**
     * Deterministic content hash (FNV-1a over layout, code and data
     * images). Two programs hash equal iff they load and execute
     * identically, which is what keys the checkpoint cache: a
     * checkpoint taken from one program is only valid for a program
     * with the same hash. Labels are excluded (they are assembler
     * metadata, not machine state). Computed once and remembered
     * until the next change to the program.
     */
    std::uint64_t hash() const;

  private:
    /**
     * hash()'s memo: 0 until computed (a content hash of 0 is just
     * recomputed). Atomic, so concurrent const readers may fill it;
     * a copy carries it.
     */
    struct HashMemo
    {
        mutable std::atomic<std::uint64_t> value{0};

        HashMemo() = default;
        HashMemo(const HashMemo &other)
            : value(other.value.load(std::memory_order_relaxed))
        {
        }
        HashMemo &
        operator=(const HashMemo &other)
        {
            value.store(other.value.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
            return *this;
        }
    };

    /** Forgets hash(): every mutator of hashed content calls it. */
    void changed() { hash_.value.store(0, std::memory_order_relaxed); }

    Addr codeBase_;
    Addr entry_;
    Addr dataBase_;
    Addr dataTop_;
    Addr stackTop_;
    std::vector<Inst> insts_;
    std::map<std::string, Addr> labels_;
    std::map<Addr, std::vector<std::uint8_t>> dataChunks_;
    HashMemo hash_;

    /** Merges @p bytes at @p addr into the data image. */
    void writeData(Addr addr, const std::uint8_t *bytes, std::size_t n);
};

} // namespace mssr::isa

#endif // MSSR_ISA_PROGRAM_HH
