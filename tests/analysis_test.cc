/**
 * @file
 * pimcheck tests: CFG construction, every static-verifier diagnostic
 * kind (one minimal trigger and one near-miss that must stay clean
 * per pass), the runtime sanitizer (shadow WRAM, bounds, DMA
 * legality, tasklet races), sanitizer determinism (modeled statistics
 * must be bit-identical with and without it), and cleanliness of the
 * shipped hand-written L-LUT / CORDIC kernels under both layers.
 */

#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "pimsim/analysis/cfg.h"
#include "pimsim/analysis/constprop.h"
#include "pimsim/analysis/loops.h"
#include "pimsim/analysis/sanitizer.h"
#include "pimsim/analysis/verify.h"
#include "pimsim/isa.h"
#include "transpim/cordic.h"
#include "transpim/fuzzy_lut.h"

#include "isa_kernels.h"

namespace tpl {
namespace sim {
namespace {

using check::CheckConfig;
using check::CheckKind;
using check::countOf;
using check::Diagnostic;
using check::hasErrors;
using check::Sanitizer;
using check::Severity;
using testkernels::kCordicKernel;
using testkernels::kLLutKernel;
using testkernels::substConst;

std::vector<Diagnostic>
verifySource(const std::string& source)
{
    return check::verify(assemble(source));
}

// ---------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------

TEST(Cfg, BlocksAndEdgesOfALoop)
{
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 5
    loop:
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
    )");
    check::Cfg cfg = check::buildCfg(p);
    ASSERT_EQ(3u, cfg.blocks.size());
    // Entry block falls into the loop body.
    EXPECT_EQ((std::vector<uint32_t>{1}), cfg.blocks[0].succs);
    // Loop body branches to itself or falls into the halt block.
    EXPECT_EQ(2u, cfg.blocks[1].succs.size());
    EXPECT_NE(cfg.blocks[1].succs.end(),
              std::find(cfg.blocks[1].succs.begin(),
                        cfg.blocks[1].succs.end(), 1u));
    // Halt exits.
    EXPECT_EQ((std::vector<uint32_t>{check::Cfg::kExit}),
              cfg.blocks[2].succs);
    EXPECT_TRUE(check::reachableBlocks(cfg)[2]);
    EXPECT_EQ(0u, check::reversePostOrder(cfg).front());
}

TEST(Cfg, RegUseOfStoresAndDma)
{
    Program p = assemble(R"(
        stw  r1, r2, 0
        ldma r3, r4, r5
        halt
    )");
    check::RegUse stw = check::regUse(p.code[0]);
    EXPECT_EQ((1u << 1) | (1u << 2), stw.reads); // value AND address
    EXPECT_EQ(0u, stw.writes);
    check::RegUse dma = check::regUse(p.code[1]);
    EXPECT_EQ((1u << 3) | (1u << 4) | (1u << 5), dma.reads);
    EXPECT_EQ(0u, dma.writes);
}

// ---------------------------------------------------------------------
// Static pass: uninitialized registers
// ---------------------------------------------------------------------

TEST(VerifyUninitRegister, FlagsReadBeforeWrite)
{
    auto diags = verifySource("add r1, r2, r3\nhalt\n");
    EXPECT_EQ(2u, countOf(diags, CheckKind::UninitRegister));
    EXPECT_TRUE(hasErrors(diags));
    EXPECT_EQ(1u, diags.front().line);
}

TEST(VerifyUninitRegister, FlagsPathDependentInit)
{
    // r3 is only written on the fall-through path.
    auto diags = verifySource(R"(
        tid  r1
        movi r2, 0
        beq  r1, r2, skip
        movi r3, 7
    skip:
        add  r4, r3, r2
        halt
    )");
    EXPECT_EQ(1u, countOf(diags, CheckKind::UninitRegister));
}

TEST(VerifyUninitRegister, CleanWhenBothPathsInit)
{
    auto diags = verifySource(R"(
        tid  r1
        movi r2, 0
        beq  r1, r2, other
        movi r3, 7
        jmp  join
    other:
        movi r3, 9
    join:
        add  r4, r3, r2
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------
// Static pass: branch targets + unreachable code
// ---------------------------------------------------------------------

TEST(VerifyBranches, FlagsWildTargetInHandBuiltProgram)
{
    Program p;
    p.code.push_back({Opcode::Jmp, 0, 0, 0, 99});
    auto diags = check::verify(p);
    EXPECT_EQ(1u, countOf(diags, CheckKind::InvalidBranchTarget));
    EXPECT_TRUE(hasErrors(diags));
}

TEST(VerifyBranches, TrailingExitLabelIsClean)
{
    // "end" is the label *after* the last instruction — a legal exit
    // the assembler produces; must not be flagged.
    auto diags = verifySource("movi r1, 0\njmp end\nend:\n");
    EXPECT_TRUE(diags.empty());
}

TEST(VerifyUnreachable, FlagsSkippedCode)
{
    auto diags = verifySource(R"(
        jmp end
        movi r1, 1
    end:
        halt
    )");
    ASSERT_EQ(1u, countOf(diags, CheckKind::UnreachableCode));
    EXPECT_FALSE(hasErrors(diags)); // warning, not error
}

TEST(VerifyUnreachable, CleanWhenAllBlocksReachable)
{
    auto diags = verifySource(R"(
        tid  r1
        movi r2, 0
        beq  r1, r2, a
        movi r3, 1
        jmp  end
    a:
        movi r3, 2
    end:
        halt
    )");
    EXPECT_EQ(0u, countOf(diags, CheckKind::UnreachableCode));
}

// ---------------------------------------------------------------------
// Static pass: WRAM/MRAM bounds for statically-known addresses
// ---------------------------------------------------------------------

TEST(VerifyBounds, FlagsStaticWramOverflow)
{
    // The exact bug the runtime guard test exercises, caught statically.
    auto diags = verifySource(R"(
        movi r1, 0x7fffffff
        ldw  r2, r1, 0
        halt
    )");
    EXPECT_EQ(1u, countOf(diags, CheckKind::WramOutOfBounds));
}

TEST(VerifyBounds, LastWordOfWramIsClean)
{
    auto diags = verifySource(R"(
        movi r1, 65532
        movi r2, 7
        stw  r2, r1, 0
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

TEST(VerifyBounds, FlagsStaticMramOverflow)
{
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 67108864
        movi r3, 16
        ldma r1, r2, r3
        halt
    )");
    EXPECT_EQ(1u, countOf(diags, CheckKind::MramOutOfBounds));
}

TEST(VerifyBounds, LastMramBytesAreClean)
{
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 67108848
        movi r3, 16
        ldma r1, r2, r3
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------
// Static pass: DMA legality
// ---------------------------------------------------------------------

TEST(VerifyDma, FlagsMisalignedAddresses)
{
    auto diags = verifySource(R"(
        movi r1, 4
        movi r2, 1028
        movi r3, 16
        ldma r1, r2, r3
        halt
    )");
    // Both the WRAM and the MRAM side are off 8-byte alignment.
    EXPECT_EQ(2u, countOf(diags, CheckKind::DmaBadAlignment));
}

TEST(VerifyDma, FlagsBadSizes)
{
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 1024
        movi r3, 12
        sdma r1, r2, r3
        movi r3, 4096
        sdma r1, r2, r3
        halt
    )");
    EXPECT_EQ(2u, countOf(diags, CheckKind::DmaBadSize));
}

TEST(VerifyDma, LegalTransferIsClean)
{
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 1024
        movi r3, 16
        ldma r1, r2, r3
        sdma r1, r2, r3
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

TEST(VerifyDma, MaxTransferSizeIsTheExactBoundary)
{
    // Exactly maxDmaBytes (2048) is legal...
    auto clean = verifySource(R"(
        movi r1, 0
        movi r2, 1024
        movi r3, 2048
        ldma r1, r2, r3
        halt
    )");
    EXPECT_TRUE(clean.empty());
    // ...one granule (8 bytes) more is not.
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 1024
        movi r3, 2056
        ldma r1, r2, r3
        halt
    )");
    EXPECT_EQ(1u, countOf(diags, CheckKind::DmaBadSize));
}

// ---------------------------------------------------------------------
// Static pass: barrier balance
// ---------------------------------------------------------------------

TEST(VerifyBarrier, FlagsTaskletDependentBarrier)
{
    auto diags = verifySource(R"(
        tid  r1
        movi r2, 0
        beq  r1, r2, skip
        barrier
    skip:
        halt
    )");
    EXPECT_GE(countOf(diags, CheckKind::BarrierImbalance), 1u);
    EXPECT_TRUE(hasErrors(diags));
}

TEST(VerifyBarrier, FlagsBarrierInsideDataDependentLoop)
{
    auto diags = verifySource(R"(
        movi r1, 0
        ntask r2
    loop:
        barrier
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
    )");
    EXPECT_GE(countOf(diags, CheckKind::BarrierImbalance), 1u);
}

TEST(VerifyBarrier, BalancedPathsAreClean)
{
    auto diags = verifySource(R"(
        tid  r1
        movi r2, 0
        beq  r1, r2, other
        movi r3, 1
        barrier
        jmp  join
    other:
        movi r3, 2
        barrier
    join:
        barrier
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

TEST(VerifyBarrier, BarrierInsideConstantTripLoopIsClean)
{
    // Loop collapsing proves every tasklet executes the barrier the
    // same (known) number of times; this used to be flagged when the
    // balance check was purely path-based.
    auto diags = verifySource(R"(
        movi r1, 0
        movi r2, 8
    loop:
        bge  r1, r2, done
        barrier
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    EXPECT_TRUE(diags.empty());
}

TEST(VerifyBarrier, TripAnnotationMakesDataDependentLoopCheckable)
{
    const std::string src = R"(
        movi r1, 0
        ntask r2
    loop:
        bge  r1, r2, done   # @trip(4)
        barrier
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )";
    // Without the annotation the loop is uncheckable and flagged.
    std::string bare = src;
    size_t at = bare.find("# @trip(4)");
    ASSERT_NE(std::string::npos, at);
    bare.erase(at, 10);
    EXPECT_GE(countOf(verifySource(bare), CheckKind::BarrierImbalance),
              1u);
    // With it the barrier count is a constant per tasklet: clean.
    check::VerifyOptions opt;
    opt.tripAnnotations = check::parseTripAnnotations(src);
    EXPECT_TRUE(check::verify(assemble(src), opt).empty());
}

TEST(VerifyBarrier, FlagsBarrierInsideBreakLoopEvenWhenAnnotated)
{
    // Counted header (trip would infer as 8) but a tid-dependent
    // break: tasklets leave at different iterations with differing
    // barrier counts, so the loop summary must be refused — the
    // inferred count and even a @trip annotation are only upper
    // bounds here, never an exact per-tasklet trip.
    const std::string src = R"(
        movi r1, 0
        movi r2, 8
        tid  r6
        movi r7, 1
    loop:
        bge  r1, r2, done   # @trip(8)
        beq  r6, r7, done
        barrier
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )";
    EXPECT_GE(countOf(verifySource(src), CheckKind::BarrierImbalance),
              1u);
    check::VerifyOptions opt;
    opt.tripAnnotations = check::parseTripAnnotations(src);
    EXPECT_GE(countOf(check::verify(assemble(src), opt),
                      CheckKind::BarrierImbalance),
              1u);
}

// ---------------------------------------------------------------------
// Opcode table: single source of truth, cross-checked two ways
// ---------------------------------------------------------------------

TEST(OpcodeTable, AssemblerRoundTripsEveryMnemonic)
{
    // Rebuild an assembly line for every opcode purely from its
    // OpTraits entry and check the assembler decodes it back to the
    // same opcode with operands in the documented fields. A table row
    // whose mnemonic or operand pattern drifts from the assembler
    // cannot pass.
    for (uint32_t c = 0; c < kNumOpcodes; ++c) {
        Opcode op = static_cast<Opcode>(c);
        const OpTraits& tr = opTraits(op);
        ASSERT_EQ(op, tr.op) << "table row " << c << " misindexed";
        std::string ops = tr.operands;
        std::string mn = tr.mnemonic;
        std::string src;
        if (ops == "dab")
            src = mn + " r3, r1, r2\n";
        else if (ops == "dai")
            src = mn + " r3, r1, 5\n";
        else if (ops == "di")
            src = mn + " r3, 77\n";
        else if (ops == "d")
            src = mn + " r3\n";
        else if (ops == "abl")
            src = mn + " r1, r2, end\nhalt\nend: halt\n";
        else if (ops == "l")
            src = mn + " end\nhalt\nend: halt\n";
        else if (ops.empty())
            src = mn + "\n";
        else
            FAIL() << mn << ": unknown operand pattern " << ops;
        Program p = assemble(src);
        ASSERT_FALSE(p.code.empty()) << mn;
        const Instruction& ins = p.code[0];
        EXPECT_EQ(op, ins.op) << mn;
        if (ops.find('d') != std::string::npos) {
            EXPECT_EQ(3, static_cast<int>(ins.rd)) << mn;
        }
        if (ops.find('a') != std::string::npos) {
            EXPECT_EQ(1, static_cast<int>(ins.ra)) << mn;
        }
        if (ops == "dab" || ops == "abl") {
            EXPECT_EQ(2, static_cast<int>(ins.rb)) << mn;
        }
        if (ops == "dai") {
            EXPECT_EQ(5, ins.imm) << mn;
        }
        if (ops == "di") {
            EXPECT_EQ(77, ins.imm) << mn;
        }
        if (ops == "abl" || ops == "l") {
            EXPECT_EQ(2, ins.imm) << mn; // the "end" label
        }
    }
}

namespace probe {

/** Everything a mini-ISA instruction can observably affect. */
struct Observed
{
    std::array<int32_t, 24> regs{};
    std::vector<uint8_t> wram; ///< first 256 bytes
    std::vector<uint8_t> mram; ///< bytes 1024..1151
    bool trapped = false;
};

/** Per-opcode probe operands: base values and their perturbations. */
struct Values
{
    int32_t va, vb, vd, imm;
    int32_t pva, pvb, pvd;
};

Values
valuesFor(Opcode op)
{
    const OpTraits& tr = opTraits(op);
    Values v{0x12345678, 13, 0x5A5A5A5A, 0,
             0x0BADF00D, 7, 0x3C3C3C3C};
    std::string ops = tr.operands;
    if (ops == "dai")
        v.imm = 5;
    if (op == Opcode::Movi)
        v.imm = 77;
    if (tr.condBranch || tr.jump)
        v.imm = 5; // the halt past the marker
    if (tr.condBranch) {
        // 5 vs 5 baseline; the perturbations flip the outcome of
        // every one of the six compare conditions.
        v.va = 5;
        v.vb = 5;
        v.pva = 4;
        v.pvb = 6;
    }
    if (op == Opcode::Mulh) {
        // Large operands so the high word is non-zero and moves
        // under both perturbations.
        v.va = 0x40000000;
        v.vb = 16;
        v.pva = 0x50000000;
        v.pvb = 32;
    }
    if (op == Opcode::Ldw || op == Opcode::Stw) {
        v.va = 64; // WRAM address base (distinct data staged at 72)
        v.pva = 72;
    }
    if (op == Opcode::Ldma || op == Opcode::Sdma) {
        v.vd = 0;    // WRAM address
        v.va = 1024; // MRAM address
        v.vb = 16;   // size
        v.pvd = 8;
        v.pva = 1056;
        v.pvb = 24;
    }
    return v;
}

Observed
run(Opcode op, int32_t va, int32_t vb, int32_t vd, int32_t imm)
{
    // r1=va, r2=vb, r3=vd (sentinel / operand), probe at index 3
    // with rd=3 ra=1 rb=2, then a marker branches can skip, then
    // halt (index 5, the branch target).
    Program p;
    p.code = {
        {Opcode::Movi, 1, 0, 0, va},
        {Opcode::Movi, 2, 0, 0, vb},
        {Opcode::Movi, 3, 0, 0, vd},
        {op, 3, 1, 2, imm},
        {Opcode::Movi, 20, 0, 0, 1},
        {Opcode::Halt, 0, 0, 0, 0},
    };
    p.lines = {1, 2, 3, 4, 5, 6};

    DpuCore dpu;
    // Distinct load targets for ldw at 64 vs 72.
    const uint8_t at64[4] = {1, 2, 3, 4};
    const uint8_t at72[4] = {9, 8, 7, 6};
    dpu.hostWriteWram(64, at64, 4);
    dpu.hostWriteWram(72, at72, 4);
    // DMA source/comparison patterns, distinct between WRAM and MRAM
    // and non-repeating across the probed windows.
    uint8_t wpat[32], mpat[128];
    for (uint32_t i = 0; i < 32; ++i)
        wpat[i] = static_cast<uint8_t>(i * 3 + 1);
    for (uint32_t i = 0; i < 128; ++i)
        mpat[i] = static_cast<uint8_t>(i * 5 + 11);
    dpu.hostWriteWram(0, wpat, 32);
    dpu.hostWriteMram(1024, mpat, 128);

    Observed obs;
    dpu.launch(1, [&](TaskletContext& ctx) {
        try {
            obs.regs = execute(p, ctx).registers;
        } catch (const std::exception&) {
            obs.trapped = true;
        }
    });
    obs.wram.resize(256);
    dpu.hostReadWram(0, obs.wram.data(), 256);
    obs.mram.resize(128);
    dpu.hostReadMram(1024, obs.mram.data(), 128);
    return obs;
}

/** True when the two observations differ anywhere outside the
 * perturbed register itself. */
bool
differsExcept(const Observed& a, const Observed& b, int skipReg)
{
    if (a.trapped != b.trapped || a.wram != b.wram ||
        a.mram != b.mram)
        return true;
    for (int i = 0; i < 24; ++i)
        if (i != skipReg && a.regs[i] != b.regs[i])
            return true;
    return false;
}

} // namespace probe

TEST(OpcodeTable, TraitsMatchInterpreterBehavior)
{
    // For every opcode: run the probe, then perturb each of ra/rb/rd
    // in turn. The observable machine state (registers, WRAM, MRAM)
    // may change under the perturbation *iff* the trait says the
    // operand is read; the destination register changes from its
    // sentinel *iff* the trait says it is written. This pins the
    // OpTraits masks to what the execute() switch actually does, so
    // the verifier's regUse() (derived from the same table) cannot
    // drift from the interpreter.
    for (uint32_t c = 0; c < kNumOpcodes; ++c) {
        Opcode op = static_cast<Opcode>(c);
        const OpTraits& tr = opTraits(op);
        probe::Values v = probe::valuesFor(op);
        probe::Observed base = probe::run(op, v.va, v.vb, v.vd, v.imm);
        ASSERT_FALSE(base.trapped) << tr.mnemonic;
        EXPECT_EQ(tr.writesRd, base.regs[3] != v.vd) << tr.mnemonic;
        EXPECT_EQ(tr.readsRa,
                  probe::differsExcept(
                      base, probe::run(op, v.pva, v.vb, v.vd, v.imm),
                      1))
            << tr.mnemonic << ": ra role disagrees with execute()";
        EXPECT_EQ(tr.readsRb,
                  probe::differsExcept(
                      base, probe::run(op, v.va, v.pvb, v.vd, v.imm),
                      2))
            << tr.mnemonic << ": rb role disagrees with execute()";
        EXPECT_EQ(tr.readsRd,
                  probe::differsExcept(
                      base, probe::run(op, v.va, v.vb, v.pvd, v.imm),
                      3))
            << tr.mnemonic << ": rd role disagrees with execute()";
    }
}

TEST(OpcodeTable, FoldsAndBranchesMatchInterpreter)
{
    // Constant propagation (foldValue) and trip-count inference
    // (branchTaken) reason about a program without running it; what
    // they conclude must be what execute() does. On the probe values,
    // their perturbations and seeded random operands (every fourth
    // pair equal, so the compares see ties): each folded constant
    // equals the register execute() wrote, and each conditional
    // branch is taken by execute() exactly when branchTaken says so.
    std::mt19937 rng(0x15a5eed);
    uint32_t foldedOps = 0;
    for (uint32_t c = 0; c < kNumOpcodes; ++c) {
        Opcode op = static_cast<Opcode>(c);
        const OpTraits& tr = opTraits(op);
        probe::Values v = probe::valuesFor(op);
        std::vector<std::array<int32_t, 3>> operands = {
            {v.va, v.vb, v.imm},
            {v.pva, v.vb, v.imm},
            {v.va, v.pvb, v.imm},
        };
        for (int k = 0; k < 64; ++k) {
            int32_t a = static_cast<int32_t>(rng());
            int32_t b = k % 4 == 0 ? a : static_cast<int32_t>(rng());
            operands.push_back({a, b, static_cast<int32_t>(rng())});
        }
        bool folds = false;
        for (auto [a, b, imm] : operands) {
            if (tr.condBranch || tr.jump)
                imm = v.imm; // the halt past the marker
            check::ConstState st;
            st[1] = a;
            st[2] = b;
            st[3] = v.vd;
            check::ConstVal folded =
                check::foldValue({op, 3, 1, 2, imm}, st);
            if (!folded && !tr.condBranch)
                continue;
            probe::Observed obs = probe::run(op, a, b, v.vd, imm);
            ASSERT_FALSE(obs.trapped) << tr.mnemonic;
            if (folded) {
                folds = true;
                EXPECT_EQ(*folded, obs.regs[3])
                    << tr.mnemonic << " a=" << a << " b=" << b
                    << " imm=" << imm;
            }
            if (tr.condBranch) {
                EXPECT_EQ(branchTaken(op, a, b), obs.regs[20] == 0)
                    << tr.mnemonic << " a=" << a << " b=" << b;
            }
        }
        foldedOps += folds;
    }
    // Add … Srai, Mul, Mulh and Movi fold; nothing else does.
    EXPECT_EQ(19u, foldedOps);
}

// ---------------------------------------------------------------------
// Shipped kernels must pass the static verifier
// ---------------------------------------------------------------------

std::string
substitutedLLut()
{
    // Constants as FixedLLutKernelMatchesHighLevel binds them.
    std::string src = kLLutKernel;
    src = substConst(src, "@N", 256);
    src = substConst(src, "@PRAW", 0);
    src = substConst(src, "@MASK", (1 << 17) - 1);
    src = substConst(src, "@SHIFTC", 32 - 17);
    src = substConst(src, "@SHIFT", 17);
    src = substConst(src, "@INP", 8196);
    src = substConst(src, "@TBLN", 4);
    src = substConst(src, "@TBL", 0);
    src = substConst(src, "@OUT", 8196 + 256 * 4);
    return src;
}

TEST(VerifyShippedKernels, LLutAndCordicAreClean)
{
    EXPECT_TRUE(verifySource(substitutedLLut()).empty());

    std::string cordic = kCordicKernel;
    cordic = substConst(cordic, "@Z0", 0x1000000);
    cordic = substConst(cordic, "@INVGAIN", 0x26dd3b6a);
    cordic = substConst(cordic, "@NITER", 24);
    cordic = substConst(cordic, "@ATBL", 0);
    EXPECT_TRUE(verifySource(cordic).empty());
}

TEST(VerifyShippedKernels, IsaTestProgramsAreClean)
{
    const char* sources[] = {
        "movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nhalt\n",
        "loop: jmp loop\n",
        R"(
            movi r1, 0
            movi r2, 10
            movi r3, 0
        loop:
            bge  r1, r2, done
            slli r4, r1, 2
            ldw  r5, r4, 0
            add  r3, r3, r5
            addi r1, r1, 1
            jmp  loop
        done:
            movi r6, 0
            stw  r3, r6, 40
            halt
        )",
    };
    for (const char* src : sources)
        EXPECT_TRUE(verifySource(src).empty()) << src;
}

// ---------------------------------------------------------------------
// Runtime sanitizer
// ---------------------------------------------------------------------

TEST(SanitizerRuntime, OffByDefault)
{
    DpuCore dpu;
    EXPECT_EQ(nullptr, dpu.sanitizer());
}

ExecResult
runSanitized(const std::string& source, DpuCore& dpu, Sanitizer& san,
             uint32_t tasklets = 1)
{
    Program p = assemble(source);
    dpu.setSanitizer(&san);
    ExecResult last;
    dpu.launch(tasklets, [&](TaskletContext& ctx) {
        last = execute(p, ctx);
    });
    return last;
}

TEST(SanitizerRuntime, FlagsUninitializedWramLoad)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    runSanitized(R"(
        movi r1, 128
        ldw  r2, r1, 0
        halt
    )",
                 dpu, san);
    EXPECT_EQ(1u, countOf(san.diagnostics(),
                          CheckKind::UninitWramLoad));
}

TEST(SanitizerRuntime, HostStagedWramIsClean)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    dpu.setSanitizer(&san);
    int32_t v = 42;
    dpu.hostWriteWram(128, &v, 4);
    runSanitized(R"(
        movi r1, 128
        ldw  r2, r1, 0
        halt
    )",
                 dpu, san);
    EXPECT_TRUE(san.clean());
}

TEST(SanitizerRuntime, StoreThenLoadIsClean)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    runSanitized(R"(
        movi r1, 64
        movi r2, 7
        stw  r2, r1, 0
        ldw  r3, r1, 0
        halt
    )",
                 dpu, san);
    EXPECT_TRUE(san.clean());
}

TEST(SanitizerRuntime, FlagsCrossTaskletRace)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    runSanitized(R"(
        movi r1, 0
        tid  r2
        stw  r2, r1, 0
        halt
    )",
                 dpu, san, 2);
    EXPECT_GE(countOf(san.diagnostics(), CheckKind::TaskletRace), 1u);
}

TEST(SanitizerRuntime, BarrierSynchronizesPublication)
{
    // Tasklet 0 publishes a value, everyone reads it after a barrier:
    // the canonical legal pattern — must be race-free.
    const char* src = R"(
        tid  r1
        movi r2, 0
        bne  r1, r2, wait
        movi r3, 123
        stw  r3, r2, 0
    wait:
        barrier
        ldw  r4, r2, 0
        halt
    )";
    DpuCore dpu;
    Sanitizer san(dpu);
    ExecResult last = runSanitized(src, dpu, san, 4);
    EXPECT_TRUE(san.clean()) << check::format(san.diagnostics().front());
    EXPECT_EQ(123, last.registers[4]);

    // ...and the same program *without* the barrier races.
    std::string racy = src;
    size_t pos = racy.find("barrier");
    racy.replace(pos, 7, "movi r5, 0"); // keep instruction count
    DpuCore dpu2;
    Sanitizer san2(dpu2);
    runSanitized(racy, dpu2, san2, 4);
    EXPECT_GE(countOf(san2.diagnostics(), CheckKind::TaskletRace), 1u);
}

TEST(SanitizerRuntime, DisjointTidIndexedWritesAreClean)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    runSanitized(R"(
        tid  r1
        slli r2, r1, 2
        stw  r1, r2, 0
        ldw  r3, r2, 0
        halt
    )",
                 dpu, san, 8);
    EXPECT_TRUE(san.clean());
}

TEST(SanitizerRuntime, RecordsWramBoundsBeforeTrap)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    EXPECT_THROW(runSanitized(R"(
        movi r1, 0x7fffffff
        ldw  r2, r1, 0
        halt
    )",
                              dpu, san),
                 std::runtime_error);
    EXPECT_EQ(1u, countOf(san.diagnostics(),
                          CheckKind::WramOutOfBounds));
}

TEST(SanitizerRuntime, FlagsIllegalDmaShapes)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    runSanitized(R"(
        movi r1, 0
        movi r2, 1028
        movi r3, 12
        ldma r1, r2, r3
        halt
    )",
                 dpu, san);
    EXPECT_EQ(1u, countOf(san.diagnostics(), CheckKind::DmaBadSize));
    EXPECT_EQ(1u, countOf(san.diagnostics(),
                          CheckKind::DmaBadAlignment));
}

TEST(SanitizerRuntime, RecordsMramBoundsBeforeTrap)
{
    DpuCore dpu;
    Sanitizer san(dpu);
    EXPECT_THROW(runSanitized(R"(
        movi r1, 0
        movi r2, 67108864
        movi r3, 16
        ldma r1, r2, r3
        halt
    )",
                              dpu, san),
                 std::out_of_range);
    EXPECT_EQ(1u, countOf(san.diagnostics(),
                          CheckKind::MramOutOfBounds));
}

// ---------------------------------------------------------------------
// Determinism: the sanitizer must not change modeled statistics
// ---------------------------------------------------------------------

void
expectSameStats(const LaunchStats& a, const LaunchStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.maxTaskletWork, b.maxTaskletWork);
    EXPECT_EQ(a.dmaEngineCycles, b.dmaEngineCycles);
    EXPECT_EQ(a.dmaBytes, b.dmaBytes);
    EXPECT_EQ(a.tasklets, b.tasklets);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
}

TEST(SanitizerDeterminism, StatsIdenticalWithAndWithoutChecks)
{
    // A program covering ALU, WRAM traffic, DMA and a barrier.
    const char* src = R"(
        movi r1, 0       # wram addr
        movi r2, 1024    # mram addr
        movi r3, 16      # bytes
        ldma r1, r2, r3
        barrier
        ldw  r4, r1, 8
        addi r4, r4, 1
        stw  r4, r1, 8
        movi r5, 2048
        sdma r1, r5, r3
        halt
    )";
    Program p = assemble(src);
    std::vector<int32_t> data{11, 22, 33, 44};

    auto run = [&](bool sanitize) {
        DpuCore dpu;
        Sanitizer san(dpu);
        if (sanitize)
            dpu.setSanitizer(&san);
        dpu.hostWriteMram(1024, data.data(), 16);
        dpu.launch(4, [&](TaskletContext& ctx) { execute(p, ctx); });
        return dpu.lastLaunch();
    };
    expectSameStats(run(false), run(true));
}

TEST(SanitizerDeterminism, StatsIdenticalEvenWhenDiagnosticsFire)
{
    const char* racy = R"(
        movi r1, 0
        tid  r2
        stw  r2, r1, 0
        ldw  r3, r1, 4
        halt
    )";
    Program p = assemble(racy);
    auto run = [&](bool sanitize) {
        DpuCore dpu;
        Sanitizer san(dpu);
        if (sanitize)
            dpu.setSanitizer(&san);
        dpu.launch(3, [&](TaskletContext& ctx) { execute(p, ctx); });
        if (sanitize) {
            EXPECT_FALSE(san.clean());
        }
        return dpu.lastLaunch();
    };
    expectSameStats(run(false), run(true));
}

// ---------------------------------------------------------------------
// Shipped kernels run sanitizer-clean end to end
// ---------------------------------------------------------------------

TEST(SanitizedKernels, FixedLLutRunsClean)
{
    using transpim::LLutFixed;
    using transpim::Placement;
    constexpr double kTwoPi = 6.283185307179586;
    constexpr uint32_t n = 256;

    LLutFixed lut([](double x) { return std::sin(x); }, 0.0, kTwoPi,
                  2048, true, Placement::Host);
    int shift = Fixed::fracBits - lut.densityLog2();

    DpuCore dpu;
    Sanitizer san(dpu);
    dpu.setSanitizer(&san);

    const auto& entries = lut.hostEntries();
    uint32_t tblBytes = static_cast<uint32_t>(entries.size()) * 4;
    dpu.hostWriteWram(0, entries.data(), tblBytes);
    uint32_t inp = tblBytes;
    uint32_t out = inp + n * 4;

    std::vector<int32_t> inputs(n);
    for (uint32_t i = 0; i < n; ++i) {
        double x = kTwoPi * (i + 0.37) / n;
        inputs[i] = Fixed::fromDouble(x).raw();
    }
    dpu.hostWriteWram(inp, inputs.data(), n * 4);

    std::string src = kLLutKernel;
    src = substConst(src, "@N", n);
    src = substConst(src, "@PRAW", 0);
    src = substConst(src, "@MASK", (1 << shift) - 1);
    src = substConst(src, "@SHIFTC", 32 - shift);
    src = substConst(src, "@SHIFT", shift);
    src = substConst(src, "@INP", inp);
    src = substConst(src, "@TBLN", 4);
    src = substConst(src, "@TBL", 0);
    src = substConst(src, "@OUT", out);
    Program prog = assemble(src);

    EXPECT_TRUE(check::verify(prog).empty());
    dpu.launch(1, [&](TaskletContext& ctx) { execute(prog, ctx); });
    EXPECT_TRUE(san.clean())
        << check::format(san.diagnostics().front());
}

TEST(SanitizedKernels, FixedCordicRunsClean)
{
    using transpim::CordicFixedEngine;
    using transpim::CordicMode;
    using transpim::Placement;
    constexpr uint32_t iters = 24;

    CordicFixedEngine eng(CordicMode::Circular, iters, Placement::Host);

    DpuCore dpu;
    Sanitizer san(dpu);
    dpu.setSanitizer(&san);

    std::vector<int32_t> angles(iters);
    for (uint32_t k = 0; k < iters; ++k) {
        angles[k] = Fixed::fromDouble(
                        std::atan(std::ldexp(1.0, -(int)k)))
                        .raw();
    }
    dpu.hostWriteWram(0, angles.data(), iters * 4);

    std::string src = kCordicKernel;
    src = substConst(src, "@Z0", Fixed::fromDouble(0.5).raw());
    src = substConst(src, "@INVGAIN", eng.invGain().raw());
    src = substConst(src, "@NITER", iters);
    src = substConst(src, "@ATBL", 0);
    Program prog = assemble(src);

    EXPECT_TRUE(check::verify(prog).empty());
    dpu.launch(1, [&](TaskletContext& ctx) { execute(prog, ctx); });
    EXPECT_TRUE(san.clean())
        << check::format(san.diagnostics().front());
}

// ---------------------------------------------------------------------
// Diagnostic plumbing
// ---------------------------------------------------------------------

TEST(Diagnostics, FormatIsStable)
{
    Diagnostic d{CheckKind::UninitRegister, Severity::Error, 12,
                 "register r5 may be read before initialization"};
    EXPECT_EQ("line 12: error: register r5 may be read before "
              "initialization [uninit-register]",
              check::format(d));
}

TEST(Diagnostics, BarrierChargesOneInstructionSlot)
{
    DpuCore dpu;
    Program p = assemble("barrier\nhalt\n");
    ExecResult res;
    dpu.launch(1,
               [&](TaskletContext& ctx) { res = execute(p, ctx); });
    EXPECT_EQ(2u, res.instructionsExecuted);
    EXPECT_EQ(2u, dpu.lastLaunch().totalInstructions);
}

} // namespace
} // namespace sim
} // namespace tpl
