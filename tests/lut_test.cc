/**
 * @file
 * Fuzzy and direct lookup-table method tests: address generation,
 * accuracy scaling with table size, interpolation benefits, cost
 * properties (the multiplication counts that define the paper's
 * Figure 5 ordering), fixed-point variants, and D-LUT spacing.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "transpim/direct_lut.h"
#include "transpim/fuzzy_lut.h"

namespace tpl {
namespace transpim {
namespace {

double
maxError(const std::function<float(float)>& approx,
         const std::function<double(double)>& ref, double lo, double hi,
         int samples = 4000)
{
    double worst = 0.0;
    for (int i = 0; i <= samples; ++i) {
        double x = lo + (hi - lo) * i / samples;
        worst = std::max(worst, std::abs(approx((float)x) - ref(x)));
    }
    return worst;
}

TableFn sinFn = [](double x) { return std::sin(x); };
TableFn tanhFn = [](double x) { return std::tanh(x); };
TableFn expFn = [](double x) { return std::exp(x); };

constexpr double kTwoPi = 6.283185307179586;

TEST(MLut, PaperExampleAddressing)
{
    // Section 3.2.1's example: 12 entries over [0, 5] gives density
    // k = 11/5 = 2.2 in our grid formulation; an input maps to the
    // nearest grid point.
    MLut lut([](double x) { return x; }, 0.0, 5.0, 12, false,
             Placement::Host);
    EXPECT_NEAR(12.0 / 5.0, lut.density(), 0.3);
    // Identity table: output is the nearest grid value.
    float y = lut.eval(3.0f, nullptr);
    EXPECT_NEAR(3.0, y, 0.5 / lut.density());
}

TEST(MLut, ErrorShrinksLinearlyWithEntries)
{
    double prev = 1.0;
    for (uint32_t n : {64u, 256u, 1024u, 4096u}) {
        MLut lut(sinFn, 0.0, kTwoPi, n, false, Placement::Host);
        double err = maxError(
            [&](float x) { return lut.eval(x, nullptr); },
            [](double x) { return std::sin(x); }, 0.0, kTwoPi);
        // Non-interpolated error ~ half spacing.
        EXPECT_LT(err, 1.2 * kTwoPi / n) << n;
        EXPECT_LT(err, prev);
        prev = err;
    }
}

TEST(MLut, InterpolationErrorQuadratic)
{
    for (uint32_t n : {64u, 256u, 1024u}) {
        MLut plain(sinFn, 0.0, kTwoPi, n, false, Placement::Host);
        MLut interp(sinFn, 0.0, kTwoPi, n, true, Placement::Host);
        double errP = maxError(
            [&](float x) { return plain.eval(x, nullptr); },
            [](double x) { return std::sin(x); }, 0.0, kTwoPi);
        double errI = maxError(
            [&](float x) { return interp.eval(x, nullptr); },
            [](double x) { return std::sin(x); }, 0.0, kTwoPi);
        EXPECT_LT(errI, errP / 4) << n;
        // Interpolation error ~ spacing^2 / 8 * |f''|.
        double s = kTwoPi / (n - 1);
        EXPECT_LT(errI, s * s) << n;
    }
}

TEST(LLut, DensityIsPowerOfTwo)
{
    LLut lut(sinFn, 0.0, kTwoPi, 1000, false, Placement::Host);
    // 2^7 = 128 per unit: 6.28*128 = 804 entries <= 1000. 2^8 would
    // need 1609.
    EXPECT_EQ(7, lut.densityLog2());
    EXPECT_LE(lut.entries(), 1000u);
    EXPECT_GE(lut.entries(), 500u);
}

TEST(LLut, MatchesMLutAccuracyClass)
{
    for (uint32_t n : {256u, 2048u}) {
        LLut lut(sinFn, 0.0, kTwoPi, n, true, Placement::Host);
        double err = maxError(
            [&](float x) { return lut.eval(x, nullptr); },
            [](double x) { return std::sin(x); }, 0.0, kTwoPi);
        double spacing = std::ldexp(1.0, -lut.densityLog2());
        EXPECT_LT(err, spacing * spacing) << n;
    }
}

TEST(LLut, NoMultiplicationWhenNotInterpolated)
{
    // The defining L-LUT property: the non-interpolated query runs in
    // far fewer instructions than one emulated float multiply (~175).
    LLut lut(sinFn, 0.0, kTwoPi, 1024, false, Placement::Host);
    CountingSink sink;
    lut.eval(3.0f, &sink);
    EXPECT_LT(sink.total(), 120u);
}

TEST(LLut, CostOrderingAgainstMLut)
{
    LLut llutPlain(sinFn, 0.0, kTwoPi, 1024, false, Placement::Host);
    LLut llutInterp(sinFn, 0.0, kTwoPi, 1024, true, Placement::Host);
    MLut mlutPlain(sinFn, 0.0, kTwoPi, 1024, false, Placement::Host);
    MLut mlutInterp(sinFn, 0.0, kTwoPi, 1024, true, Placement::Host);
    CountingSink sLP, sLI, sMP, sMI;
    llutPlain.eval(3.0f, &sLP);
    llutInterp.eval(3.0f, &sLI);
    mlutPlain.eval(3.0f, &sMP);
    mlutInterp.eval(3.0f, &sMI);
    // Figure 5 ordering: L < M within each interpolation class, and
    // interpolated variants cost more than their plain counterparts.
    EXPECT_LT(sLP.total(), sMP.total());
    EXPECT_LT(sLI.total(), sMI.total());
    EXPECT_LT(sLP.total(), sLI.total());
    EXPECT_LT(sMP.total(), sMI.total());
    // Non-interpolated L-LUT saves the full multiply vs M-LUT.
    EXPECT_LT(sLP.total(), 0.5 * sMP.total());
}

TEST(LLutFixed, MatchesFloatAccuracyClass)
{
    LLutFixed lut(sinFn, 0.0, kTwoPi, 4096, true, Placement::Host);
    double err = maxError(
        [&](float x) { return lut.eval(x, nullptr); },
        [](double x) { return std::sin(x); }, 0.0, kTwoPi);
    double spacing = std::ldexp(1.0, -lut.densityLog2());
    EXPECT_LT(err, spacing * spacing + 1e-7);
}

TEST(LLutFixed, FixedPipelineAvoidsFloatOps)
{
    LLutFixed lut(sinFn, 0.0, kTwoPi, 1024, true, Placement::Host);
    CountingSink viaFloat, viaFixed;
    lut.eval(3.0f, &viaFloat);
    lut.evalFixed(Fixed::fromDouble(3.0), &viaFixed);
    // The all-fixed path skips both conversions.
    EXPECT_LT(viaFixed.total(), viaFloat.total());
    // Interpolated fixed L-LUT uses one emulated int multiply, which
    // is much cheaper than the float multiply of the float variant.
    LLut fl(sinFn, 0.0, kTwoPi, 1024, true, Placement::Host);
    CountingSink floatSink;
    fl.eval(3.0f, &floatSink);
    EXPECT_LT(viaFloat.total(), floatSink.total());
}

TEST(LLutFixed, RoundingAddress)
{
    // Non-interpolated fixed lookup rounds to the nearest entry.
    LLutFixed lut([](double x) { return x; }, 0.0, 4.0, 5, false,
                  Placement::Host);
    // density 2^0 = 1 entry per unit.
    EXPECT_EQ(0, lut.densityLog2());
    EXPECT_NEAR(2.0, lut.eval(2.4f, nullptr), 1e-6);
    EXPECT_NEAR(3.0, lut.eval(2.6f, nullptr), 1e-6);
}

TEST(DLut, DenseNearZero)
{
    // The pseudo-logarithmic spacing puts far more resolution near
    // zero than a uniform table with the same entry count could: a
    // signed D-LUT with 16 exponents x 64 entries (2048 total) has
    // spacing ~1.2e-4 around |x| ~ 0.01, while a uniform 2048-entry
    // table over [-8, 8] has spacing 7.8e-3 everywhere.
    DLutSpec spec;
    spec.minExp = -12;
    spec.maxExp = 3;
    spec.mantBits = 6;
    DLut lut(tanhFn, spec, false, Placement::Host);
    MLut uniform(tanhFn, -8.0, 8.0, 2048, false, Placement::Host);
    double errD = maxError(
        [&](float x) { return lut.eval(x, nullptr); },
        [](double x) { return std::tanh(x); }, 0.01, 0.02);
    double errU = maxError(
        [&](float x) { return uniform.eval(x, nullptr); },
        [](double x) { return std::tanh(x); }, 0.01, 0.02);
    EXPECT_LT(errD, 2e-4);
    EXPECT_LT(errD, errU / 4);
}

TEST(DLut, BlindSpotBelowMinExp)
{
    // The paper's D-LUT limitation: no entries between 0 and the
    // smallest exponent; inputs there clamp to the first entry.
    DLutSpec spec;
    spec.minExp = -4; // smallest covered magnitude 1/16
    spec.maxExp = 3;
    spec.mantBits = 4;
    DLut lut(tanhFn, spec, false, Placement::Host);
    float atZero = lut.eval(0.0f, nullptr);
    float atTiny = lut.eval(1e-8f, nullptr);
    EXPECT_EQ(atZero, atTiny); // both clamp to the same entry
    EXPECT_NEAR(std::tanh(1.0 / 16.0), atZero, 0.01);
}

TEST(DLut, SignedCoverage)
{
    DLutSpec spec;
    spec.minExp = -10;
    spec.maxExp = 3;
    spec.mantBits = 6;
    DLut lut(tanhFn, spec, true, Placement::Host);
    SplitMix64 rng(51);
    for (int i = 0; i < 2000; ++i) {
        float x = rng.nextFloat(-8.0f, 8.0f);
        EXPECT_NEAR(std::tanh(x), lut.eval(x, nullptr), 0.02) << x;
    }
}

TEST(DLut, InterpolationImprovesAccuracy)
{
    DLutSpec spec;
    spec.minExp = -10;
    spec.maxExp = 3;
    spec.mantBits = 6;
    DLut plain(tanhFn, spec, false, Placement::Host);
    DLut interp(tanhFn, spec, true, Placement::Host);
    double errP = maxError(
        [&](float x) { return plain.eval(x, nullptr); },
        [](double x) { return std::tanh(x); }, -8.0, 8.0);
    double errI = maxError(
        [&](float x) { return interp.eval(x, nullptr); },
        [](double x) { return std::tanh(x); }, -8.0, 8.0);
    EXPECT_LT(errI, errP / 3);
}

TEST(DLut, CheapAddressGeneration)
{
    DLutSpec spec;
    DLut lut(tanhFn, spec, false, Placement::Host);
    CountingSink sink;
    lut.eval(1.5f, &sink);
    // Shift + subtract + clamps: no float arithmetic at all.
    EXPECT_LT(sink.total(), 20u);
}

TEST(DlLut, CoversZeroNeighborhood)
{
    DLutSpec spec;
    spec.maxExp = 3;
    spec.mantBits = 6;
    DlLut lut(tanhFn, spec, 1024, true, Placement::Host);
    // Unlike the plain D-LUT, near-zero inputs interpolate on the
    // uniform inner L-LUT.
    EXPECT_NEAR(0.0, lut.eval(0.0f, nullptr), 1e-4);
    EXPECT_NEAR(std::tanh(1e-3), lut.eval(1e-3f, nullptr), 1e-4);
    SplitMix64 rng(52);
    for (int i = 0; i < 2000; ++i) {
        float x = rng.nextFloat(-8.0f, 8.0f);
        EXPECT_NEAR(std::tanh(x), lut.eval(x, nullptr), 5e-3) << x;
    }
}

TEST(DlLut, MemoryIsSumOfHalves)
{
    DLutSpec spec;
    spec.maxExp = 3;
    spec.mantBits = 6;
    DlLut lut(expFn, spec, 512, true, Placement::Host);
    EXPECT_GT(lut.memoryBytes(), 512u * 4u);
}

TEST(LutPlacement, WramOverflowThrows)
{
    // A 2^16-entry float table (256 KB) cannot live in 64-KB WRAM.
    LLut big(sinFn, 0.0, kTwoPi, 1u << 16, false, Placement::Wram);
    sim::DpuCore dpu;
    EXPECT_THROW(big.attach(dpu), std::bad_alloc);
    // The same table fits in MRAM.
    LLut bigM(sinFn, 0.0, kTwoPi, 1u << 16, false, Placement::Mram);
    EXPECT_NO_THROW(bigM.attach(dpu));
}

TEST(LutPlacement, MramReadsChargeDma)
{
    LLut lut(sinFn, 0.0, kTwoPi, 4096, false, Placement::Mram);
    sim::DpuCore dpu;
    lut.attach(dpu);
    sim::LaunchStats stats = dpu.launch(1, [&](sim::TaskletContext& ctx) {
        float y = lut.eval(1.0f, &ctx);
        EXPECT_NEAR(std::sin(1.0), y, 1e-3);
    });
    EXPECT_GT(stats.dmaEngineCycles, 0u);
}

TEST(LutPlacement, WramAndMramAgreeOnValues)
{
    LLut w(sinFn, 0.0, kTwoPi, 2048, true, Placement::Wram);
    LLut m(sinFn, 0.0, kTwoPi, 2048, true, Placement::Mram);
    sim::DpuCore dpu;
    w.attach(dpu);
    m.attach(dpu);
    dpu.launch(1, [&](sim::TaskletContext& ctx) {
        for (float x : {0.1f, 1.0f, 3.0f, 6.0f}) {
            EXPECT_EQ(w.eval(x, &ctx), m.eval(x, &ctx)) << x;
        }
    });
}

TEST(LutPlacement, EmptyTableAttachesWithoutCopying)
{
    // A zero-entry table has no backing storage (data() may be null);
    // attaching it must not hand that pointer to a copy. Guarded by
    // the UBSan build.
    for (Placement p : {Placement::Wram, Placement::Mram}) {
        LutStore<float> empty({}, p);
        sim::DpuCore dpu;
        ASSERT_EQ(empty.bytes(), 0u);
        EXPECT_NO_THROW(empty.attach(dpu)) << placementName(p);
        EXPECT_TRUE(empty.attached());
    }
}

TEST(LutPlacement, WramReadsComeFromTheExecutingCore)
{
    // One store copied into two cores: a kernel reads its own core's
    // copy, and a read without a tasklet falls back to the core
    // attached last.
    LutStore<float> store({1.0f, 2.0f}, Placement::Wram);
    sim::DpuCore a;
    sim::DpuCore b;
    store.attach(a);
    store.attach(b);
    const float mark = 42.0f;
    std::memcpy(a.wramData() + sizeof(float), &mark, sizeof(float));

    EXPECT_EQ(store.read(1, nullptr), 2.0f); // core b, untouched
    a.launch(1, [&](sim::TaskletContext& ctx) {
        EXPECT_EQ(store.read(1, &ctx), mark);
    });
    b.launch(1, [&](sim::TaskletContext& ctx) {
        EXPECT_EQ(store.read(1, &ctx), 2.0f);
    });
}

} // namespace
} // namespace transpim
} // namespace tpl
