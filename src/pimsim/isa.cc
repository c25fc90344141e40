/**
 * @file
 * Assembler and interpreter for the miniature DPU ISA.
 */

#include "pimsim/isa.h"

#include <cctype>
#include <cstring>
#include <map>
#include <sstream>

#include "common/emu_int.h"
#include "pimsim/analysis/sanitizer.h"
#include "pimsim/fault/fault.h"

namespace tpl {
namespace sim {

namespace {

/**
 * The opcode property table, indexed by Opcode value. Row shape:
 *   { op, mnemonic, operands, condBranch, jump, halts,
 *     readsRa, readsRb, readsRd, writesRd }
 * Everything else (assembler table, CFG block splitting, register
 * read/write masks) derives from these rows.
 */
constexpr OpTraits kOpTraits[kNumOpcodes] = {
    // op              mnem       opnds  cb     jmp    halt   rRa    rRb    rRd    wRd
    {Opcode::Add,     "add",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Addi,    "addi",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Sub,     "sub",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Subi,    "subi",    "dai", false, false, false, true,  false, false, true},
    {Opcode::And,     "and",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Andi,    "andi",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Or,      "or",      "dab", false, false, false, true,  true,  false, true},
    {Opcode::Ori,     "ori",     "dai", false, false, false, true,  false, false, true},
    {Opcode::Xor,     "xor",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Xori,    "xori",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Sll,     "sll",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Slli,    "slli",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Srl,     "srl",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Srli,    "srli",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Sra,     "sra",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Srai,    "srai",    "dai", false, false, false, true,  false, false, true},
    {Opcode::Mul,     "mul",     "dab", false, false, false, true,  true,  false, true},
    {Opcode::Mulh,    "mulh",    "dab", false, false, false, true,  true,  false, true},
    {Opcode::Movi,    "movi",    "di",  false, false, false, false, false, false, true},
    {Opcode::Tid,     "tid",     "d",   false, false, false, false, false, false, true},
    {Opcode::Ntask,   "ntask",   "d",   false, false, false, false, false, false, true},
    {Opcode::Ldw,     "ldw",     "dai", false, false, false, true,  false, false, true},
    // Stores read both the address base and the stored value.
    {Opcode::Stw,     "stw",     "dai", false, false, false, true,  false, true,  false},
    // DMA: WRAM address (rd), MRAM address (ra) and size (rb) are all
    // inputs; the transfer touches memory, not registers.
    {Opcode::Ldma,    "ldma",    "dab", false, false, false, true,  true,  true,  false},
    {Opcode::Sdma,    "sdma",    "dab", false, false, false, true,  true,  true,  false},
    {Opcode::Beq,     "beq",     "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Bne,     "bne",     "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Blt,     "blt",     "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Bge,     "bge",     "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Bltu,    "bltu",    "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Bgeu,    "bgeu",    "abl", true,  false, false, true,  true,  false, false},
    {Opcode::Jmp,     "jmp",     "l",   false, true,  false, false, false, false, false},
    {Opcode::Barrier, "barrier", "",    false, false, false, false, false, false, false},
    {Opcode::Halt,    "halt",    "",    false, false, true,  false, false, false, false},
};

/** Mnemonic -> traits row, built once from kOpTraits. */
const std::map<std::string, const OpTraits*>&
opTable()
{
    static const std::map<std::string, const OpTraits*> table = [] {
        std::map<std::string, const OpTraits*> t;
        for (const OpTraits& row : kOpTraits)
            t.emplace(row.mnemonic, &row);
        return t;
    }();
    return table;
}

[[noreturn]] void
fail(uint32_t line, const std::string& msg)
{
    throw AsmError("asm line " + std::to_string(line) + ": " + msg);
}

uint8_t
parseReg(const std::string& tok, uint32_t line)
{
    if (tok.size() < 2 || tok[0] != 'r')
        fail(line, "expected register, got '" + tok + "'");
    int n = 0;
    for (size_t i = 1; i < tok.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            fail(line, "bad register '" + tok + "'");
        n = n * 10 + (tok[i] - '0');
    }
    if (n < 0 || n >= 24)
        fail(line, "register out of range '" + tok + "'");
    return static_cast<uint8_t>(n);
}

int32_t
parseImm(const std::string& tok, uint32_t line)
{
    try {
        size_t pos = 0;
        long long v = std::stoll(tok, &pos, 0);
        if (pos != tok.size())
            fail(line, "bad immediate '" + tok + "'");
        return static_cast<int32_t>(v);
    } catch (const AsmError&) {
        throw;
    } catch (...) {
        fail(line, "bad immediate '" + tok + "'");
    }
}

std::vector<std::string>
tokenize(const std::string& text)
{
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : text) {
        if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

} // namespace

const OpTraits&
opTraits(Opcode op)
{
    uint32_t idx = static_cast<uint32_t>(op);
    if (idx >= kNumOpcodes)
        throw std::out_of_range("opTraits: invalid opcode");
    return kOpTraits[idx];
}

Program
assemble(const std::string& source)
{
    // Pass 1: strip comments, record labels, collect raw statements.
    struct Raw
    {
        std::vector<std::string> tokens;
        uint32_t line;
    };
    std::vector<Raw> raws;
    std::map<std::string, int32_t> labels;

    std::istringstream in(source);
    std::string lineText;
    uint32_t lineNo = 0;
    while (std::getline(in, lineText)) {
        ++lineNo;
        size_t hash = lineText.find('#');
        if (hash != std::string::npos)
            lineText.resize(hash);
        auto tokens = tokenize(lineText);
        while (!tokens.empty() && tokens.front().back() == ':') {
            std::string label = tokens.front();
            label.pop_back();
            if (label.empty())
                fail(lineNo, "empty label");
            if (labels.count(label))
                fail(lineNo, "duplicate label '" + label + "'");
            labels[label] = static_cast<int32_t>(raws.size());
            tokens.erase(tokens.begin());
        }
        if (tokens.empty())
            continue;
        raws.push_back({std::move(tokens), lineNo});
    }

    // Pass 2: encode.
    Program prog;
    for (const Raw& raw : raws) {
        auto it = opTable().find(raw.tokens[0]);
        if (it == opTable().end())
            fail(raw.line, "unknown mnemonic '" + raw.tokens[0] + "'");
        const OpTraits& info = *it->second;
        size_t expected = std::strlen(info.operands);
        if (raw.tokens.size() != expected + 1) {
            fail(raw.line, "expected " + std::to_string(expected) +
                               " operands for '" + raw.tokens[0] + "'");
        }
        Instruction ins;
        ins.op = info.op;
        for (size_t i = 0; i < expected; ++i) {
            const std::string& tok = raw.tokens[i + 1];
            switch (info.operands[i]) {
              case 'd':
                ins.rd = parseReg(tok, raw.line);
                break;
              case 'a':
                ins.ra = parseReg(tok, raw.line);
                break;
              case 'b':
                ins.rb = parseReg(tok, raw.line);
                break;
              case 'i':
                ins.imm = parseImm(tok, raw.line);
                break;
              case 'l': {
                auto lit = labels.find(tok);
                if (lit == labels.end())
                    fail(raw.line, "unknown label '" + tok + "'");
                ins.imm = lit->second;
                break;
              }
            }
        }
        prog.code.push_back(ins);
        prog.lines.push_back(raw.line);
    }
    return prog;
}

namespace {

/**
 * step()'s machine for execute(): a tasklet of a DpuCore. Charges go
 * to the tasklet, the multiply through the emulated-multiplier model
 * of the high-level tier, WRAM accesses through the sanitizer and
 * stuck-at fault hooks, DMA through the DMA model. A bad access
 * throws.
 */
class TaskletMachine
{
  public:
    explicit TaskletMachine(TaskletContext& ctx)
        : ctx_(ctx), core_(ctx.core()), wram_(core_.wramData()),
          wramBytes_(core_.model().wramBytes), san_(core_.sanitizer())
    {
    }

    void charge() { ctx_.charge(1); }
    void mul(int32_t a, int32_t b) { emuMulS32(a, b, &ctx_); }
    uint32_t tid() const { return ctx_.taskletId(); }
    uint32_t ntask() const { return ctx_.numTasklets(); }

    bool ldw(uint32_t addr, int32_t& value, uint32_t line)
    {
        if (san_)
            san_->onWramLoad(ctx_.taskletId(), addr, 4, line);
        std::memcpy(&value, wram(addr, 4), 4);
        return true;
    }

    bool stw(uint32_t addr, int32_t value, uint32_t line)
    {
        if (san_)
            san_->onWramStore(ctx_.taskletId(), addr, 4, line);
        std::memcpy(wram(addr, 4), &value, 4);
        // Stuck-at WRAM cells win over every store, including the
        // interpreter's (DMA faults flow in via mramRead/WriteAt).
        if (fault::DpuFaultState* faults = core_.faultState())
            faults->onWramWritten(addr, 4);
        return true;
    }

    bool ldma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
              uint32_t line)
    {
        ctx_.mramReadAt(mramAddr, wram(wramAddr, size), size, line);
        return true;
    }

    bool sdma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
              uint32_t line)
    {
        ctx_.mramWriteAt(mramAddr, wram(wramAddr, size), size, line);
        return true;
    }

    // charge(1) + sanitizer epoch advance happen inside.
    void barrier(uint32_t) { ctx_.barrier(); }

  private:
    /** The scratchpad at @p addr; throws unless [addr, addr + size)
     * lies inside it. */
    uint8_t* wram(uint32_t addr, uint32_t size)
    {
        if (static_cast<uint64_t>(addr) + size > wramBytes_) {
            throw std::runtime_error(
                "isa: WRAM access out of range at address " +
                std::to_string(addr));
        }
        return wram_ + addr;
    }

    TaskletContext& ctx_;
    DpuCore& core_;
    uint8_t* wram_; ///< taken once: wramData() privatizes all regions
    uint32_t wramBytes_;
    check::Sanitizer* san_;
};

} // namespace

ExecResult
execute(const Program& program, TaskletContext& ctx,
        uint64_t maxInstructions)
{
    ExecResult res;
    TaskletMachine machine(ctx);
    uint32_t pc = 0;
    while (pc < program.code.size()) {
        if (res.instructionsExecuted >= maxInstructions)
            throw std::runtime_error("isa: instruction budget exceeded");
        ++res.instructionsExecuted;
        if (step(program, pc, res.registers, machine) == StepEnd::Halt)
            break;
    }
    return res;
}

} // namespace sim
} // namespace tpl
