/**
 * @file
 * A miniature DPU instruction set with assembler and interpreter.
 *
 * Purpose: *validate the cost model bottom-up*. The rest of the
 * simulator charges instruction counts at the level of emulated
 * operations ("this fixed-point interpolated LUT query retires ~40
 * native instructions"). This module lets a kernel be written
 * instruction by instruction in a RISC-style assembly resembling the
 * DPU ISA (32-bit integer ALU, WRAM loads/stores, MRAM DMA, an
 * emulated multiply); executing it on the same DpuCore retires exactly
 * one charge per instruction, so the test suite can compare the
 * hand-written kernel's instruction count and *outputs* against the
 * high-level model (tests/isa_test.cc).
 *
 * The ISA is deliberately small: enough to express the fixed-point
 * L-LUT and fixed-point CORDIC kernels (pure integer code, like real
 * TransPimLib DPU kernels in their hot loops).
 *
 * What each opcode does is written once, here: aluResult() and
 * branchTaken() are the pure register semantics, and step() runs one
 * instruction against a machine that supplies charges and memory.
 * The interpreter (execute), the interleaving explorer and constant
 * propagation (pimsim/analysis/) all evaluate instructions through
 * them, so what the static passes prove holds for what the
 * interpreter runs.
 *
 * Registers: r0..r23 general purpose (r0 is NOT hardwired to zero),
 * plus the tasklet id readable via TID.
 *
 * Assembly syntax, one instruction per line ('#' comments):
 *   label:
 *   addi  r1, r2, 42       # r1 = r2 + 42
 *   add   r1, r2, r3
 *   sub/and/or/xor/sll/srl/sra  (register and 'i' immediate forms)
 *   mul   r1, r2, r3       # 32x32->32 low product (runtime expansion)
 *   mulh  r1, r2, r3       # high 32 bits of the signed 64-bit product
 *   movi  r1, 0x12345678   # load 32-bit immediate
 *   tid   r1               # r1 = tasklet id
 *   ntask r1               # r1 = number of tasklets
 *   ldw   r1, r2, 4        # r1 = WRAM[r2 + 4]
 *   stw   r1, r2, 4        # WRAM[r2 + 4] = r1
 *   ldma  r1, r2, r3       # DMA MRAM[r2 .. r2+r3) -> WRAM[r1 ..)
 *   sdma  r1, r2, r3       # DMA WRAM[r1 ..) -> MRAM[r2 .. r2+r3)
 *   beq/bne/blt/bge  r1, r2, label   (signed compares)
 *   bltu/bgeu        r1, r2, label   (unsigned compares)
 *   jmp   label
 *   barrier                # all tasklets rendezvous
 *   halt
 *
 * `barrier` models UPMEM's barrier_wait(): all tasklets of the launch
 * rendezvous. Tasklets execute sequentially in simulation, so the
 * instruction only charges its issue slot functionally — but it is the
 * synchronization the pimcheck race detector honors, and the static
 * verifier's barrier-balance pass proves every tasklet reaches the
 * same barrier count regardless of branching (a mismatch deadlocks
 * real hardware).
 */

#ifndef TPL_PIMSIM_ISA_H
#define TPL_PIMSIM_ISA_H

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pimsim/dpu.h"

namespace tpl {
namespace sim {

/** Opcodes of the miniature ISA. The ALU opcodes Add … Movi come
 * first (isAlu() is a range test). */
enum class Opcode
{
    Add, Addi, Sub, Subi, And, Andi, Or, Ori, Xor, Xori,
    Sll, Slli, Srl, Srli, Sra, Srai,
    Mul, Mulh,
    Movi, Tid, Ntask,
    Ldw, Stw, Ldma, Sdma,
    Beq, Bne, Blt, Bge, Bltu, Bgeu, Jmp,
    Barrier,
    Halt,
};

/** Number of Opcode enumerators (table sizing / enumeration). */
inline constexpr uint32_t kNumOpcodes =
    static_cast<uint32_t>(Opcode::Halt) + 1;

/**
 * Static properties of one opcode — the single source of truth shared
 * by the assembler (mnemonic + operand pattern), the CFG builder
 * (control-flow roles) and the verifier's register read/write masks
 * (operand roles). A new instruction is added *here once*; a missing
 * or inconsistent entry is caught by the enumeration cross-check in
 * tests/analysis_test.cc, so it cannot silently ship with an empty
 * read/write mask or an unsplit basic block.
 */
struct OpTraits
{
    Opcode op;              ///< must equal the table index
    const char* mnemonic;   ///< assembly name
    /** Operand pattern: 'd'=dest reg, 'a'/'b'=source regs,
     * 'i'=immediate, 'l'=label (encoded into imm). */
    const char* operands;
    bool condBranch;        ///< two-successor terminator
    bool jump;              ///< unconditional jmp
    bool halts;             ///< terminates the tasklet
    /// @name Operand roles (register read/write masks derive from
    /// these: DMA reads rd as its WRAM address, stw reads rd as the
    /// stored value).
    /// @{
    bool readsRa;
    bool readsRb;
    bool readsRd;
    bool writesRd;
    /// @}

    /** True when the opcode ends a basic block. */
    bool endsBlock() const { return condBranch || jump || halts; }
};

/** Traits of @p op (O(1) table lookup). */
const OpTraits& opTraits(Opcode op);

/** One decoded instruction. */
struct Instruction
{
    Opcode op;
    uint8_t rd = 0;  ///< destination (or DMA wram-addr register)
    uint8_t ra = 0;  ///< first source
    uint8_t rb = 0;  ///< second source
    int32_t imm = 0; ///< immediate / branch target (instruction index)
};

/** An assembled program. */
struct Program
{
    std::vector<Instruction> code;
    /** Source line for each instruction (diagnostics). */
    std::vector<uint32_t> lines;

    /** Source line of instruction @p i. Hand-built programs may omit
     * the line table; the fallback is then the index + 1. */
    uint32_t lineOf(uint32_t i) const
    {
        return i < lines.size() ? lines[i] : i + 1;
    }
};

/** A tasklet's general-purpose registers r0..r23. */
using Registers = std::array<int32_t, 24>;

/**
 * True for the register-writing ALU opcodes (Add … Srai, Mul, Mulh,
 * Movi), whose rd value aluResult() computes from the instruction and
 * its source registers alone. They lead the Opcode enumeration.
 */
constexpr bool
isAlu(Opcode op)
{
    return op <= Opcode::Movi;
}

/**
 * The value ALU instruction @p ins writes to rd, given @p a = r[ra]
 * and @p b = r[rb] (ignored where the opcode does not read them).
 * Arithmetic wraps at 32 bits, shifts use the low five bits of their
 * amount, Sra/Srai shift arithmetically, and Mul/Mulh are the low and
 * high words of the signed 64-bit product.
 *
 * @throws std::invalid_argument unless isAlu(ins.op).
 */
inline int32_t
aluResult(const Instruction& ins, int32_t a, int32_t b)
{
    const uint32_t ua = static_cast<uint32_t>(a);
    const uint32_t ub = static_cast<uint32_t>(b);
    const uint32_t ui = static_cast<uint32_t>(ins.imm);
    const int64_t product = static_cast<int64_t>(a) * b;
    switch (ins.op) {
      case Opcode::Add: return static_cast<int32_t>(ua + ub);
      case Opcode::Addi: return static_cast<int32_t>(ua + ui);
      case Opcode::Sub: return static_cast<int32_t>(ua - ub);
      case Opcode::Subi: return static_cast<int32_t>(ua - ui);
      case Opcode::And: return static_cast<int32_t>(ua & ub);
      case Opcode::Andi: return static_cast<int32_t>(ua & ui);
      case Opcode::Or: return static_cast<int32_t>(ua | ub);
      case Opcode::Ori: return static_cast<int32_t>(ua | ui);
      case Opcode::Xor: return static_cast<int32_t>(ua ^ ub);
      case Opcode::Xori: return static_cast<int32_t>(ua ^ ui);
      case Opcode::Sll: return static_cast<int32_t>(ua << (ub & 31));
      case Opcode::Slli: return static_cast<int32_t>(ua << (ui & 31));
      case Opcode::Srl: return static_cast<int32_t>(ua >> (ub & 31));
      case Opcode::Srli: return static_cast<int32_t>(ua >> (ui & 31));
      case Opcode::Sra: return a >> (ub & 31);
      case Opcode::Srai: return a >> (ui & 31);
      case Opcode::Mul: return static_cast<int32_t>(product);
      case Opcode::Mulh: return static_cast<int32_t>(product >> 32);
      case Opcode::Movi: return ins.imm;
      default:
        throw std::invalid_argument("aluResult: not an ALU opcode");
    }
}

/**
 * Whether conditional branch @p op is taken on @p a = r[ra] and
 * @p b = r[rb]: beq/bne/blt/bge compare signed, bltu/bgeu unsigned.
 * False for every other opcode.
 */
constexpr bool
branchTaken(Opcode op, int32_t a, int32_t b)
{
    const uint32_t ua = static_cast<uint32_t>(a);
    const uint32_t ub = static_cast<uint32_t>(b);
    switch (op) {
      case Opcode::Beq: return a == b;
      case Opcode::Bne: return a != b;
      case Opcode::Blt: return a < b;
      case Opcode::Bge: return a >= b;
      case Opcode::Bltu: return ua < ub;
      case Opcode::Bgeu: return ua >= ub;
      default: return false;
    }
}

/** How step() left a tasklet. */
enum class StepEnd
{
    Next,    ///< continue at the updated pc
    Barrier, ///< reached a barrier (pc is past it)
    Halt,    ///< executed halt
    Fault,   ///< a machine memory hook refused the access
};

/**
 * Execute the instruction at @p pc against machine @p m: the one
 * definition of what each opcode does, shared by execute() and the
 * interleaving explorer (analysis/interleave.cc). Advances @p pc (to
 * the branch target when one is taken) and writes rd in @p r.
 *
 * The machine supplies everything that is not a register effect:
 *
 *   void charge();              one issue slot, charged by every
 *                               opcode but mul/mulh, ldma/sdma and
 *                               barrier, before its memory access
 *   void mul(int32_t a, int32_t b);     the runtime multiply's charge
 *   uint32_t tid(); uint32_t ntask();
 *   bool ldw(uint32_t addr, int32_t& value, uint32_t line);
 *   bool stw(uint32_t addr, int32_t value, uint32_t line);
 *   bool ldma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
 *             uint32_t line);
 *   bool sdma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
 *             uint32_t line);
 *   void barrier(uint32_t line);
 *
 * `line` is the executing instruction's Program::lineOf. A memory
 * hook returns false to stop the tasklet with StepEnd::Fault (or
 * throws). Halt charges its slot and returns StepEnd::Halt.
 *
 * @pre pc < program.code.size().
 */
template <class Machine>
StepEnd
step(const Program& program, uint32_t& pc, Registers& r, Machine& m)
{
    const uint32_t at = pc++;
    const Instruction& ins = program.code[at];
    const int32_t a = r[ins.ra];
    const int32_t b = r[ins.rb];
    const uint32_t ua = static_cast<uint32_t>(a);
    const uint32_t wramAddr = static_cast<uint32_t>(r[ins.rd]);
    switch (ins.op) {
      case Opcode::Mul:
      case Opcode::Mulh:
        m.mul(a, b);
        r[ins.rd] = aluResult(ins, a, b);
        break;
      case Opcode::Tid:
        m.charge();
        r[ins.rd] = static_cast<int32_t>(m.tid());
        break;
      case Opcode::Ntask:
        m.charge();
        r[ins.rd] = static_cast<int32_t>(m.ntask());
        break;
      case Opcode::Ldw: {
        m.charge();
        int32_t value;
        if (!m.ldw(ua + static_cast<uint32_t>(ins.imm), value,
                   program.lineOf(at)))
            return StepEnd::Fault;
        r[ins.rd] = value;
        break;
      }
      case Opcode::Stw:
        m.charge();
        if (!m.stw(ua + static_cast<uint32_t>(ins.imm), r[ins.rd],
                   program.lineOf(at)))
            return StepEnd::Fault;
        break;
      case Opcode::Ldma:
        if (!m.ldma(wramAddr, ua, static_cast<uint32_t>(b),
                    program.lineOf(at)))
            return StepEnd::Fault;
        break;
      case Opcode::Sdma:
        if (!m.sdma(wramAddr, ua, static_cast<uint32_t>(b),
                    program.lineOf(at)))
            return StepEnd::Fault;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
        m.charge();
        if (branchTaken(ins.op, a, b))
            pc = static_cast<uint32_t>(ins.imm);
        break;
      case Opcode::Jmp:
        m.charge();
        pc = static_cast<uint32_t>(ins.imm);
        break;
      case Opcode::Barrier:
        m.barrier(program.lineOf(at));
        return StepEnd::Barrier;
      case Opcode::Halt:
        m.charge();
        return StepEnd::Halt;
      default: // Add … Srai, Movi
        m.charge();
        r[ins.rd] = aluResult(ins, a, b);
        break;
    }
    return StepEnd::Next;
}

/** Thrown on assembly errors, with a line number in the message. */
class AsmError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Assemble source text into a program. @throws AsmError. */
Program assemble(const std::string& source);

/** Result of one tasklet's execution. */
struct ExecResult
{
    uint64_t instructionsExecuted = 0;
    Registers registers{};
};

/**
 * Execute @p program on a tasklet through step(). Each retired
 * instruction charges one native instruction (the Mul/Mulh
 * pseudo-instructions charge their runtime-expansion cost; DMA
 * instructions go through the DMA model instead). WRAM accesses
 * address the core's scratchpad directly.
 *
 * @param maxInstructions runaway guard.
 * @throws std::runtime_error on invalid memory access or fuel
 *         exhaustion.
 */
ExecResult execute(const Program& program, TaskletContext& ctx,
                   uint64_t maxInstructions = 10'000'000);

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_ISA_H
