/**
 * @file
 * Static cycle-bound tests: natural-loop discovery and trip-count
 * inference (loops.h), soundness of the [BCET, WCET] interval against
 * the interpreter's modeled LaunchStats for every shipped mini-ISA
 * kernel at several tasklet counts (bound.h), the unbounded cases the
 * pass must refuse to bound, `@trip` annotation fallback, and
 * round-tripping of the serialized certificate (certificate.h).
 */

#include <gtest/gtest.h>

#include "pimsim/analysis/bound.h"
#include "pimsim/analysis/certificate.h"
#include "pimsim/analysis/cfg.h"
#include "pimsim/analysis/loops.h"
#include "pimsim/dpu.h"
#include "pimsim/isa.h"

#include "isa_kernels.h"

namespace tpl {
namespace sim {
namespace {

using check::BoundOptions;
using check::computeBound;
using check::CycleBound;
using check::findLoops;
using check::KernelCertificate;
using check::LoopForest;
using check::LoopInfo;
using check::parseCertificate;
using check::parseTripAnnotations;
using check::serializeCertificate;
using testkernels::kCordicKernel;
using testkernels::kLLutKernel;
using testkernels::kLLutParKernel;
using testkernels::substConst;

// ---------------------------------------------------------------------
// Natural loops + trip counts
// ---------------------------------------------------------------------

TEST(Loops, CountedLoopIsFoundWithExactTrip)
{
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 17
    loop:
        bge  r1, r2, done
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    check::Cfg cfg = check::buildCfg(p);
    LoopForest forest = findLoops(p, cfg);
    EXPECT_FALSE(forest.irreducible);
    ASSERT_EQ(1u, forest.loops.size());
    const LoopInfo& loop = forest.loops[0];
    EXPECT_TRUE(loop.headerOnlyExit);
    EXPECT_TRUE(loop.tripKnown);
    EXPECT_EQ(17u, loop.tripCount);
    EXPECT_FALSE(loop.annotated);
    EXPECT_EQ(1u, loop.depth);
}

TEST(Loops, BreakLoopTripIsOnlyAnUpperBound)
{
    // Counted header (would exit after 8 trips) plus a data-dependent
    // break in the body: an early-breaking run completes fewer
    // iterations, so the header count must surface as an upper bound,
    // never as an exact trip.
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 8
        movi r3, 0
        ldw  r6, r3, 0
        movi r7, 1
    loop:
        bge  r1, r2, done
        beq  r6, r7, done
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    LoopForest forest = findLoops(p, check::buildCfg(p));
    ASSERT_EQ(1u, forest.loops.size());
    const LoopInfo& loop = forest.loops[0];
    EXPECT_FALSE(loop.headerOnlyExit);
    EXPECT_FALSE(loop.tripKnown);
    EXPECT_TRUE(loop.tripUpperKnown);
    EXPECT_EQ(8u, loop.tripUpper);
}

TEST(Loops, StrideAndDownCountingLoops)
{
    // i = 20; while (i != 0) i -= 4;  -> 5 trips (bne exit).
    Program down = assemble(R"(
        movi r1, 20
        movi r2, 0
    loop:
        beq  r1, r2, done
        subi r1, r1, 4
        jmp  loop
    done:
        halt
    )");
    LoopForest f1 = findLoops(down, check::buildCfg(down));
    ASSERT_EQ(1u, f1.loops.size());
    EXPECT_TRUE(f1.loops[0].tripKnown);
    EXPECT_EQ(5u, f1.loops[0].tripCount);

    // Unsigned compare: i = 0; while (i <u 6) i += 4; -> 2 trips.
    Program stride = assemble(R"(
        movi r1, 0
        movi r2, 6
    loop:
        bgeu r1, r2, done
        addi r1, r1, 4
        jmp  loop
    done:
        halt
    )");
    LoopForest f2 = findLoops(stride, check::buildCfg(stride));
    ASSERT_EQ(1u, f2.loops.size());
    EXPECT_TRUE(f2.loops[0].tripKnown);
    EXPECT_EQ(2u, f2.loops[0].tripCount);
}

TEST(Loops, NestedLoopsFormAForest)
{
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 3
    outer:
        bge  r1, r2, done
        movi r3, 0
        movi r4, 5
    inner:
        bge  r3, r4, next
        addi r3, r3, 1
        jmp  inner
    next:
        addi r1, r1, 1
        jmp  outer
    done:
        halt
    )");
    LoopForest forest = findLoops(p, check::buildCfg(p));
    ASSERT_EQ(2u, forest.loops.size());
    // Innermost-first ordering.
    const LoopInfo& inner = forest.loops[0];
    const LoopInfo& outer = forest.loops[1];
    EXPECT_EQ(2u, inner.depth);
    EXPECT_EQ(1u, outer.depth);
    EXPECT_EQ(1u, outer.children.size());
    EXPECT_TRUE(inner.tripKnown);
    EXPECT_EQ(5u, inner.tripCount);
    EXPECT_TRUE(outer.tripKnown);
    EXPECT_EQ(3u, outer.tripCount);
}

TEST(Loops, DataDependentTripStaysUnknown)
{
    Program p = assemble(R"(
        movi r1, 0
        ntask r2
    loop:
        bge  r1, r2, done
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    LoopForest forest = findLoops(p, check::buildCfg(p));
    ASSERT_EQ(1u, forest.loops.size());
    EXPECT_FALSE(forest.loops[0].tripKnown);
}

TEST(Loops, AnnotationSuppliesUnknownTrip)
{
    const std::string src = R"(
        movi r1, 0
        ntask r2
    loop:
        bge  r1, r2, done   # @trip(12)
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )";
    auto notes = parseTripAnnotations(src);
    ASSERT_EQ(1u, notes.size());
    Program p = assemble(src);
    LoopForest forest = findLoops(p, check::buildCfg(p), notes);
    ASSERT_EQ(1u, forest.loops.size());
    EXPECT_TRUE(forest.loops[0].tripKnown);
    EXPECT_TRUE(forest.loops[0].annotated);
    EXPECT_EQ(12u, forest.loops[0].tripCount);
}

// ---------------------------------------------------------------------
// Cycle bounds: exactness on single-path programs
// ---------------------------------------------------------------------

uint64_t
runCycles(const Program& p, uint32_t tasklets,
          DpuCore* core = nullptr)
{
    DpuCore local;
    DpuCore& dpu = core ? *core : local;
    dpu.launch(tasklets, [&](TaskletContext& ctx) { execute(p, ctx); });
    return dpu.lastLaunch().cycles;
}

TEST(Bound, StraightLineProgramIsExact)
{
    // ALU + WRAM traffic + DMA + barrier: single path, so the static
    // interval must collapse to the exact modeled cycle count.
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 1024
        movi r3, 16
        ldma r1, r2, r3
        barrier
        ldw  r4, r1, 8
        addi r4, r4, 1
        stw  r4, r1, 8
        movi r5, 2048
        sdma r1, r5, r3
        halt
    )");
    for (uint32_t tasklets : {1u, 4u, 12u}) {
        BoundOptions opt;
        opt.tasklets = tasklets;
        CycleBound b = computeBound(p, opt);
        ASSERT_TRUE(b.bounded) << b.reason;
        EXPECT_EQ(b.bcet, b.wcet);
        EXPECT_EQ(runCycles(p, tasklets), b.bcet);
        EXPECT_EQ(32u, b.bytesMin);
        EXPECT_EQ(32u, b.bytesMax);
    }
}

TEST(Bound, CountedLoopIsExactForConstantWork)
{
    // 10-trip loop of pure constant-cost ALU work: still exact.
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 10
        movi r3, 0
    loop:
        bge  r1, r2, done
        addi r3, r3, 7
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    CycleBound b = computeBound(p);
    ASSERT_TRUE(b.bounded) << b.reason;
    EXPECT_EQ(b.bcet, b.wcet);
    EXPECT_EQ(runCycles(p, 1), b.bcet);
}

// ---------------------------------------------------------------------
// Cycle bounds: soundness on every shipped kernel
// ---------------------------------------------------------------------

std::string
llutSource(const char* kernel, uint32_t n, uint32_t inp, uint32_t out)
{
    std::string src = kernel;
    src = substConst(src, "@NPER", n); // parallel variant only
    src = substConst(src, "@N", n);
    src = substConst(src, "@PRAW", 0);
    src = substConst(src, "@MASK", (1 << 17) - 1);
    src = substConst(src, "@SHIFTC", 32 - 17);
    src = substConst(src, "@SHIFT", 17);
    src = substConst(src, "@INP", inp);
    src = substConst(src, "@TBLN", 4);
    src = substConst(src, "@TBL", 0);
    src = substConst(src, "@OUT", out);
    return src;
}

std::string
cordicSource()
{
    std::string src = kCordicKernel;
    src = substConst(src, "@Z0", 0x1000000);
    src = substConst(src, "@INVGAIN", 0x26dd3b6a);
    src = substConst(src, "@NITER", 24);
    src = substConst(src, "@ATBL", 0);
    return src;
}

void
expectContained(const Program& p, uint32_t tasklets,
                DpuCore& dpu, const char* what)
{
    BoundOptions opt;
    opt.tasklets = tasklets;
    CycleBound b = computeBound(p, opt);
    ASSERT_TRUE(b.bounded) << what << ": " << b.reason;
    dpu.launch(tasklets,
               [&](TaskletContext& ctx) { execute(p, ctx); });
    const LaunchStats& stats = dpu.lastLaunch();
    EXPECT_LE(b.bcet, stats.cycles)
        << what << " tasklets=" << tasklets;
    EXPECT_GE(b.wcet, stats.cycles)
        << what << " tasklets=" << tasklets;
    // The worst-case class partition bounds the observed partition.
    for (int c = 0; c < numInstrClasses; ++c) {
        EXPECT_GE(b.classWorst[c], stats.classInstructions[c])
            << what << " class " << c;
    }
}

TEST(BoundSoundness, ShippedKernelsFallInsideTheirBounds)
{
    for (uint32_t tasklets : {1u, 4u, 12u}) {
        {
            Program p =
                assemble(llutSource(kLLutKernel, 256, 8196, 9224));
            DpuCore dpu;
            std::vector<int32_t> inputs(256);
            for (uint32_t i = 0; i < 256; ++i)
                inputs[i] = static_cast<int32_t>(i * 0x00123457);
            dpu.hostWriteWram(8196, inputs.data(), 256 * 4);
            expectContained(p, tasklets, dpu, "llut");
        }
        {
            Program p =
                assemble(llutSource(kLLutParKernel, 16, 1024, 2048));
            DpuCore dpu;
            std::vector<int32_t> inputs(16 * 24);
            for (uint32_t i = 0; i < inputs.size(); ++i)
                inputs[i] = static_cast<int32_t>(i * 0x00765431);
            dpu.hostWriteWram(
                1024, inputs.data(),
                static_cast<uint32_t>(inputs.size()) * 4);
            expectContained(p, tasklets, dpu, "llut_par");
        }
        {
            Program p = assemble(cordicSource());
            DpuCore dpu;
            std::vector<int32_t> angles(24);
            for (uint32_t k = 0; k < 24; ++k)
                angles[k] = 0x1921FB5 >> k;
            dpu.hostWriteWram(0, angles.data(), 24 * 4);
            expectContained(p, tasklets, dpu, "cordic");
        }
    }
}

TEST(BoundSoundness, BranchyKernelHasStrictIntervalWhenDataVaries)
{
    // CORDIC's sign-dependent branch makes per-iteration work vary by
    // one instruction between the two arms; with mul absent the
    // interval is narrow but must still contain every run.
    Program p = assemble(cordicSource());
    CycleBound b = computeBound(p);
    ASSERT_TRUE(b.bounded) << b.reason;
    EXPECT_LT(b.instrMin, b.instrMax);
    EXPECT_LE(b.bcet, b.wcet);
}

TEST(BoundSoundness, BreakLoopBoundContainsEarlyAndFullRuns)
{
    // The break flag comes from WRAM, so the static pass cannot know
    // which iteration (if any) leaves early: the loop scales by
    // [0, 8] iterations and both the early-breaking and the
    // run-to-the-header-exit executions must land inside the bound.
    Program p = assemble(R"(
        movi r1, 0
        movi r2, 8
        movi r3, 0
        movi r4, 0
        ldw  r6, r3, 0
        movi r7, 1
    loop:
        bge  r1, r2, done
        beq  r6, r7, done
        addi r4, r4, 3
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    CycleBound b = computeBound(p);
    ASSERT_TRUE(b.bounded) << b.reason;
    EXPECT_TRUE(b.usedTripUpper);
    EXPECT_LT(b.bcet, b.wcet);
    for (int32_t flag : {0, 1}) {
        DpuCore dpu;
        dpu.hostWriteWram(0, &flag, 4);
        dpu.launch(1,
                   [&](TaskletContext& ctx) { execute(p, ctx); });
        EXPECT_LE(b.bcet, dpu.lastLaunch().cycles)
            << "flag=" << flag;
        EXPECT_GE(b.wcet, dpu.lastLaunch().cycles)
            << "flag=" << flag;
    }
}

// ---------------------------------------------------------------------
// Unbounded cases: refuse, never guess
// ---------------------------------------------------------------------

TEST(Bound, DataDependentLoopIsUnbounded)
{
    Program p = assemble(R"(
        movi r1, 0
        ntask r2
    loop:
        bge  r1, r2, done
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )");
    CycleBound b = computeBound(p);
    EXPECT_FALSE(b.bounded);
    EXPECT_NE(std::string::npos, b.reason.find("trip count"));
}

TEST(Bound, AnnotationMakesItBoundedAndIsRecorded)
{
    const std::string src = R"(
        movi r1, 0
        ntask r2
    loop:
        bge  r1, r2, done   # @trip(4)
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )";
    BoundOptions opt;
    opt.tripAnnotations = parseTripAnnotations(src);
    CycleBound b = computeBound(assemble(src), opt);
    ASSERT_TRUE(b.bounded) << b.reason;
    EXPECT_TRUE(b.usedAnnotation);
    // The annotated trip matches the actual run (ntask == 4).
    Program p = assemble(src);
    DpuCore dpu;
    dpu.launch(4, [&](TaskletContext& ctx) { execute(p, ctx); });
    EXPECT_LE(b.bcet, dpu.lastLaunch().cycles);
    EXPECT_GE(b.wcet, dpu.lastLaunch().cycles);
}

TEST(Bound, AnnotationOnBreakLoopIsOnlyAnUpperBound)
{
    // Even a @trip annotation cannot make a break-loop's trip exact:
    // the break still leaves earlier on some runs, so the annotation
    // supplies the upper bound only, and the certificate records the
    // widening.
    const std::string src = R"(
        movi r1, 0
        ntask r2
        movi r3, 0
        ldw  r6, r3, 0
        movi r7, 1
    loop:
        bge  r1, r2, done   # @trip(4)
        beq  r6, r7, done
        addi r1, r1, 1
        jmp  loop
    done:
        halt
    )";
    BoundOptions opt;
    opt.tripAnnotations = parseTripAnnotations(src);
    Program p = assemble(src);
    LoopForest forest =
        findLoops(p, check::buildCfg(p), opt.tripAnnotations);
    ASSERT_EQ(1u, forest.loops.size());
    EXPECT_FALSE(forest.loops[0].tripKnown);
    EXPECT_TRUE(forest.loops[0].tripUpperKnown);
    EXPECT_EQ(4u, forest.loops[0].tripUpper);
    EXPECT_TRUE(forest.loops[0].annotated);
    CycleBound b = computeBound(p, opt);
    ASSERT_TRUE(b.bounded) << b.reason;
    EXPECT_TRUE(b.usedAnnotation);
    EXPECT_TRUE(b.usedTripUpper);
}

TEST(Bound, NonConstantDmaSizeIsUnbounded)
{
    Program p = assemble(R"(
        ntask r3
        movi r1, 0
        movi r2, 1024
        ldma r1, r2, r3
        halt
    )");
    CycleBound b = computeBound(p);
    EXPECT_FALSE(b.bounded);
    EXPECT_NE(std::string::npos, b.reason.find("size register"));
}

TEST(Bound, InfiniteLoopIsUnbounded)
{
    Program p = assemble("loop: jmp loop\n");
    CycleBound b = computeBound(p);
    EXPECT_FALSE(b.bounded);
}

// ---------------------------------------------------------------------
// Certificate serialization
// ---------------------------------------------------------------------

TEST(Certificate, RoundTripsThroughJson)
{
    Program p = assemble(llutSource(kLLutKernel, 256, 8196, 9224));
    BoundOptions opt;
    opt.tasklets = 4;
    KernelCertificate cert;
    cert.kernel = "llut";
    cert.bound = computeBound(p, opt);
    cert.interleaveChecked = true;
    cert.interleaveTasklets = 3;
    cert.interleave = check::InterleaveVerdict::RaceFree;
    cert.interleavePhases = 1;
    ASSERT_TRUE(cert.bound.bounded);

    std::string json = serializeCertificate(cert);
    KernelCertificate back;
    ASSERT_TRUE(parseCertificate(json, back));
    EXPECT_EQ(cert.kernel, back.kernel);
    EXPECT_EQ(cert.bound.bounded, back.bound.bounded);
    EXPECT_EQ(cert.bound.tasklets, back.bound.tasklets);
    EXPECT_EQ(cert.bound.bcet, back.bound.bcet);
    EXPECT_EQ(cert.bound.wcet, back.bound.wcet);
    EXPECT_EQ(cert.bound.instrMin, back.bound.instrMin);
    EXPECT_EQ(cert.bound.instrMax, back.bound.instrMax);
    EXPECT_EQ(cert.bound.stallMin, back.bound.stallMin);
    EXPECT_EQ(cert.bound.stallMax, back.bound.stallMax);
    EXPECT_EQ(cert.bound.engineMin, back.bound.engineMin);
    EXPECT_EQ(cert.bound.engineMax, back.bound.engineMax);
    EXPECT_EQ(cert.bound.bytesMin, back.bound.bytesMin);
    EXPECT_EQ(cert.bound.bytesMax, back.bound.bytesMax);
    EXPECT_EQ(cert.bound.classMin, back.bound.classMin);
    EXPECT_EQ(cert.bound.classMax, back.bound.classMax);
    EXPECT_EQ(cert.bound.classWorst, back.bound.classWorst);
    EXPECT_EQ(cert.bound.usedAnnotation, back.bound.usedAnnotation);
    EXPECT_EQ(cert.bound.usedTripUpper, back.bound.usedTripUpper);
    EXPECT_EQ(cert.interleaveChecked, back.interleaveChecked);
    EXPECT_EQ(cert.interleaveTasklets, back.interleaveTasklets);
    EXPECT_EQ(cert.interleave, back.interleave);
    EXPECT_EQ(cert.interleavePhases, back.interleavePhases);
}

TEST(Certificate, UnboundedReasonSurvivesEscaping)
{
    KernelCertificate cert;
    cert.kernel = "weird \"name\"\n";
    cert.bound.bounded = false;
    cert.bound.reason = "line 3: \"why\"\tunbounded";
    std::string json = serializeCertificate(cert);
    KernelCertificate back;
    ASSERT_TRUE(parseCertificate(json, back));
    EXPECT_EQ(cert.kernel, back.kernel);
    EXPECT_EQ(cert.bound.reason, back.bound.reason);
    EXPECT_FALSE(parseCertificate("{not a certificate}", back));
}

TEST(Certificate, EveryEscapedByteRoundTrips)
{
    // Every byte jsonEscape rewrites: the control bytes 0x01-0x1f
    // (\n, \t, \r and the \u00XX forms), the quote and the backslash.
    std::string text;
    for (char c = 1; c < 0x20; ++c)
        text += c;
    text += "\"\\";
    KernelCertificate cert;
    cert.kernel = "k" + text;
    cert.bound.bounded = false;
    cert.bound.reason = text + "r";
    KernelCertificate back;
    ASSERT_TRUE(parseCertificate(serializeCertificate(cert), back));
    EXPECT_EQ(cert.kernel, back.kernel);
    EXPECT_EQ(cert.bound.reason, back.bound.reason);
}

TEST(Certificate, KeyLikeTextInsideStringValuesDoesNotMisparse)
{
    // The reason ends with an escaped `"bcet`: in the raw JSON that
    // spells the byte sequence `"bcet"` (escaped quote + closing
    // quote), which a substring-based key scan would mistake for the
    // bcet key and misread the next numeric field into it. The
    // parser must lex whole string literals instead.
    KernelCertificate cert;
    cert.kernel = "evil";
    cert.bound.bounded = false;
    cert.bound.reason = "oops \"bcet";
    cert.bound.tasklets = 3;
    cert.bound.bcet = 7;
    cert.bound.wcet = 9;
    cert.bound.usedTripUpper = true;
    std::string json = serializeCertificate(cert);
    KernelCertificate back;
    ASSERT_TRUE(parseCertificate(json, back));
    EXPECT_EQ(cert.bound.reason, back.bound.reason);
    EXPECT_EQ(3u, back.bound.tasklets);
    EXPECT_EQ(7u, back.bound.bcet);
    EXPECT_EQ(9u, back.bound.wcet);
    EXPECT_TRUE(back.bound.usedTripUpper);
}

} // namespace
} // namespace sim
} // namespace tpl
