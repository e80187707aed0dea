#include "isa/inst.hh"

#include <sstream>

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr::isa
{

namespace
{

const char *const opNames[] = {
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "mul", "mulh", "div", "rem",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
    "li",
    "lb", "lbu", "lh", "lhu", "lw", "lwu", "ld",
    "sb", "sh", "sw", "sd",
    "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "jal", "jalr",
    "nop", "halt",
};
static_assert(sizeof(opNames) / sizeof(opNames[0]) ==
                  static_cast<std::size_t>(Op::NumOps),
              "opNames table out of sync with Op enum");

const char *const regNames[NumArchRegs] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

} // namespace

const char *
opName(Op op)
{
    return opNames[static_cast<std::size_t>(op)];
}

const char *
regName(ArchReg r)
{
    mssr_assert(r < NumArchRegs);
    return regNames[r];
}

std::string
disasm(const Inst &inst, Addr pc)
{
    std::ostringstream os;
    os << opName(inst.op);
    switch (inst.op) {
      case Op::NOP:
      case Op::HALT:
        break;
      case Op::LI:
        os << " " << regName(inst.rd) << ", " << inst.imm;
        break;
      case Op::JAL:
        os << " " << regName(inst.rd) << ", 0x" << std::hex
           << (pc + static_cast<std::uint64_t>(inst.imm));
        break;
      case Op::JALR:
        os << " " << regName(inst.rd) << ", " << inst.imm << "("
           << regName(inst.rs1) << ")";
        break;
      default:
        if (inst.isCondBranch()) {
            os << " " << regName(inst.rs1) << ", " << regName(inst.rs2)
               << ", 0x" << std::hex
               << (pc + static_cast<std::uint64_t>(inst.imm));
        } else if (inst.isLoad()) {
            os << " " << regName(inst.rd) << ", " << inst.imm << "("
               << regName(inst.rs1) << ")";
        } else if (inst.isStore()) {
            os << " " << regName(inst.rs2) << ", " << inst.imm << "("
               << regName(inst.rs1) << ")";
        } else if (inst.hasRs2()) {
            os << " " << regName(inst.rd) << ", " << regName(inst.rs1)
               << ", " << regName(inst.rs2);
        } else {
            os << " " << regName(inst.rd) << ", " << regName(inst.rs1)
               << ", " << inst.imm;
        }
        break;
    }
    return os.str();
}

RegVal
evalAlu(const Inst &inst, RegVal a, RegVal b)
{
    const auto sa = static_cast<std::int64_t>(a);
    const std::int64_t imm = inst.imm;
    switch (inst.op) {
      case Op::ADD:
        return a + b;
      case Op::SUB:
        return a - b;
      case Op::AND:
        return a & b;
      case Op::OR:
        return a | b;
      case Op::XOR:
        return a ^ b;
      case Op::SLL:
        return a << (b & 63);
      case Op::SRL:
        return a >> (b & 63);
      case Op::SRA:
        return static_cast<RegVal>(sa >> (b & 63));
      case Op::SLT:
        return sa < static_cast<std::int64_t>(b) ? 1 : 0;
      case Op::SLTU:
        return a < b ? 1 : 0;
      case Op::MUL:
        return a * b;
      case Op::MULH:
        return static_cast<RegVal>(
            (static_cast<__int128>(sa) *
             static_cast<__int128>(static_cast<std::int64_t>(b))) >> 64);
      case Op::DIV:
        if (b == 0)
            return ~RegVal(0);
        if (sa == INT64_MIN && static_cast<std::int64_t>(b) == -1)
            return a;
        return static_cast<RegVal>(sa / static_cast<std::int64_t>(b));
      case Op::REM:
        if (b == 0)
            return a;
        if (sa == INT64_MIN && static_cast<std::int64_t>(b) == -1)
            return 0;
        return static_cast<RegVal>(sa % static_cast<std::int64_t>(b));
      case Op::ADDI:
        return a + static_cast<RegVal>(imm);
      case Op::ANDI:
        return a & static_cast<RegVal>(imm);
      case Op::ORI:
        return a | static_cast<RegVal>(imm);
      case Op::XORI:
        return a ^ static_cast<RegVal>(imm);
      case Op::SLLI:
        return a << (imm & 63);
      case Op::SRLI:
        return a >> (imm & 63);
      case Op::SRAI:
        return static_cast<RegVal>(sa >> (imm & 63));
      case Op::SLTI:
        return sa < imm ? 1 : 0;
      case Op::SLTIU:
        return a < static_cast<RegVal>(imm) ? 1 : 0;
      case Op::LI:
        return static_cast<RegVal>(imm);
      default:
        panic("evalAlu on non-ALU op ", opName(inst.op));
    }
}

bool
evalCondBranch(const Inst &inst, RegVal a, RegVal b)
{
    switch (inst.op) {
      case Op::BEQ:
        return a == b;
      case Op::BNE:
        return a != b;
      case Op::BLT:
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      case Op::BGE:
        return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
      case Op::BLTU:
        return a < b;
      case Op::BGEU:
        return a >= b;
      default:
        panic("evalCondBranch on non-branch op ", opName(inst.op));
    }
}

Addr
evalMemAddr(const Inst &inst, RegVal base)
{
    return base + static_cast<Addr>(inst.imm);
}

Addr
evalTarget(const Inst &inst, Addr pc, RegVal a)
{
    switch (inst.op) {
      case Op::JAL:
        return pc + static_cast<Addr>(inst.imm);
      case Op::JALR:
        return (a + static_cast<Addr>(inst.imm)) & ~Addr(1);
      default:
        mssr_assert(inst.isCondBranch());
        return pc + static_cast<Addr>(inst.imm);
    }
}

} // namespace mssr::isa
