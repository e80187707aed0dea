/**
 * @file
 * The mini RISC ISA used by the simulator: a 64-bit, RV64I-flavoured
 * integer instruction set. Instructions are fixed 4 bytes for PC
 * arithmetic; operands are held symbolically (no binary encoding is
 * needed by the simulator, which is execution-driven).
 */

#ifndef MSSR_ISA_INST_HH
#define MSSR_ISA_INST_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mssr::isa
{

/** Opcodes of the mini ISA. */
enum class Op : std::uint8_t
{
    // ALU register-register.
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    MUL, MULH, DIV, REM,
    // ALU register-immediate.
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU,
    // Wide immediate (pseudo: full 64-bit immediate materialisation).
    LI,
    // Loads (signed unless U-suffixed).
    LB, LBU, LH, LHU, LW, LWU, LD,
    // Stores.
    SB, SH, SW, SD,
    // Conditional branches.
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // Unconditional control flow.
    JAL, JALR,
    // Misc.
    NOP, HALT,
    NumOps
};

/** Functional-unit class an instruction issues to. */
enum class FuClass : std::uint8_t
{
    Alu,    //!< simple integer ops (1 cycle)
    Mul,    //!< multiply (3 cycles, issues on ALU ports)
    Div,    //!< divide (12 cycles, issues on ALU ports)
    Branch, //!< conditional branches and jumps (BRU)
    Load,   //!< loads (LSU)
    Store,  //!< stores (LSU)
    None    //!< NOP/HALT
};

namespace detail
{

/** Static properties of one opcode; see opTraits. */
struct OpTraits
{
    bool isLoad = false;
    bool isStore = false;
    bool isCondBranch = false;
    bool hasRs1 = false;
    bool hasRs2 = false;
    bool writesRd = false;     //!< writes rd unless rd is x0
    bool memSigned = false;
    std::uint8_t memBytes = 0;
    FuClass fuClass = FuClass::Alu;
};

constexpr OpTraits
makeOpTraits(Op op)
{
    OpTraits t;
    switch (op) {
      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::LW: case Op::LWU: case Op::LD:
        t.isLoad = true;
        t.fuClass = FuClass::Load;
        break;
      case Op::SB: case Op::SH: case Op::SW: case Op::SD:
        t.isStore = true;
        t.fuClass = FuClass::Store;
        break;
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
        t.isCondBranch = true;
        t.fuClass = FuClass::Branch;
        break;
      case Op::JAL: case Op::JALR:
        t.fuClass = FuClass::Branch;
        break;
      case Op::MUL: case Op::MULH:
        t.fuClass = FuClass::Mul;
        break;
      case Op::DIV: case Op::REM:
        t.fuClass = FuClass::Div;
        break;
      case Op::NOP: case Op::HALT:
        t.fuClass = FuClass::None;
        break;
      default:
        break;
    }
    switch (op) {
      case Op::LI: case Op::JAL: case Op::NOP: case Op::HALT:
        break;
      default:
        t.hasRs1 = true;
        break;
    }
    switch (op) {
      case Op::ADD: case Op::SUB: case Op::AND: case Op::OR: case Op::XOR:
      case Op::SLL: case Op::SRL: case Op::SRA: case Op::SLT: case Op::SLTU:
      case Op::MUL: case Op::MULH: case Op::DIV: case Op::REM:
        t.hasRs2 = true;
        break;
      default:
        t.hasRs2 = t.isCondBranch || t.isStore;
        break;
    }
    t.writesRd = !t.isStore && !t.isCondBranch && op != Op::NOP &&
                 op != Op::HALT;
    switch (op) {
      case Op::LB: case Op::LBU: case Op::SB:
        t.memBytes = 1;
        break;
      case Op::LH: case Op::LHU: case Op::SH:
        t.memBytes = 2;
        break;
      case Op::LW: case Op::LWU: case Op::SW:
        t.memBytes = 4;
        break;
      case Op::LD: case Op::SD:
        t.memBytes = 8;
        break;
      default:
        break;
    }
    t.memSigned = op == Op::LB || op == Op::LH || op == Op::LW;
    return t;
}

/**
 * One entry per opcode, computed at compile time, so the predicates
 * below are one table load each on the per-instruction paths.
 */
inline constexpr auto opTraits = [] {
    std::array<OpTraits, static_cast<std::size_t>(Op::NumOps)> table{};
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = makeOpTraits(static_cast<Op>(i));
    return table;
}();

} // namespace detail

/**
 * A static (decoded) instruction. The assembler produces a vector of
 * these; dynamic instructions reference them by index.
 */
struct Inst
{
    Op op = Op::NOP;
    ArchReg rd = 0;        //!< destination register (0 = x0 = no effect)
    ArchReg rs1 = 0;
    ArchReg rs2 = 0;
    std::int64_t imm = 0;  //!< immediate / branch byte offset

    bool isLoad() const { return traits().isLoad; }
    bool isStore() const { return traits().isStore; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isCondBranch() const { return traits().isCondBranch; }
    bool isJump() const { return op == Op::JAL || op == Op::JALR; }
    bool isControl() const { return isCondBranch() || isJump(); }
    bool isHalt() const { return op == Op::HALT; }

    /** True when the instruction architecturally reads rs1. */
    bool hasRs1() const { return traits().hasRs1; }
    /** True when the instruction architecturally reads rs2. */
    bool hasRs2() const { return traits().hasRs2; }
    /** True when the instruction architecturally writes rd (rd != x0). */
    bool hasRd() const { return rd != 0 && traits().writesRd; }

    /** Memory access size in bytes (loads/stores only). */
    unsigned memBytes() const { return traits().memBytes; }
    /** True for sign-extending loads. */
    bool memSigned() const { return traits().memSigned; }

    FuClass fuClass() const { return traits().fuClass; }

    /** Execution latency in cycles, given the core's latency config. */
    unsigned
    latency(unsigned alu, unsigned mul, unsigned div, unsigned branch) const
    {
        switch (fuClass()) {
          case FuClass::Mul:
            return mul;
          case FuClass::Div:
            return div;
          case FuClass::Branch:
            return branch;
          default:
            return alu;
        }
    }

    bool operator==(const Inst &other) const = default;

  private:
    const detail::OpTraits &
    traits() const
    {
        return detail::opTraits[static_cast<std::size_t>(op)];
    }
};

/** Mnemonic for an opcode ("add", "beq", ...). */
const char *opName(Op op);

/** ABI register name ("zero", "ra", "sp", "t0", ...). */
const char *regName(ArchReg r);

/** Disassembles @p inst at address @p pc into assembler-like text. */
std::string disasm(const Inst &inst, Addr pc);

/**
 * Evaluates a non-memory, non-control instruction's result value.
 * @param a value of rs1, @param b value of rs2.
 */
RegVal evalAlu(const Inst &inst, RegVal a, RegVal b);

/** Evaluates a conditional branch's direction. */
bool evalCondBranch(const Inst &inst, RegVal a, RegVal b);

/** Computes a memory instruction's effective address. */
Addr evalMemAddr(const Inst &inst, RegVal base);

/**
 * Computes the target of a taken control instruction at @p pc.
 * For JALR the base register value @p a is used.
 */
Addr evalTarget(const Inst &inst, Addr pc, RegVal a);

} // namespace mssr::isa

#endif // MSSR_ISA_INST_HH
