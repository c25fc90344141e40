/**
 * @file
 * Targeted tests for paths the broad suites exercise only lightly:
 * range reduction composed with every trig method, the CORDIC
 * exp-identity fallbacks beyond the convergence range, the harness's
 * infeasible-configuration and domain-override handling, and the
 * direct-LUT positive-only functions.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "transpim/harness.h"

namespace tpl {
namespace transpim {
namespace {

TEST(RangeComposition, AllTrigMethodsWithReduction)
{
    // reduceRange must compose with every trigonometric method family.
    SplitMix64 rng(131);
    for (Method m : {Method::Cordic, Method::CordicFixed,
                     Method::CordicLut, Method::MLut, Method::LLut,
                     Method::LLutFixed, Method::Poly}) {
        MethodSpec spec;
        spec.method = m;
        spec.placement = Placement::Host;
        spec.log2Entries = 13;
        spec.iterations = 24;
        spec.polyDegree = 13;
        spec.reduceRange = true;
        for (Function f : {Function::Sin, Function::Cos}) {
            auto eval = FunctionEvaluator::create(f, spec);
            for (int i = 0; i < 300; ++i) {
                float x = rng.nextFloat(-40.0f, 40.0f);
                double ref = referenceValue(f, (double)x);
                EXPECT_NEAR(ref, eval.eval(x), 5e-4)
                    << functionName(f) << "/" << methodName(m) << " "
                    << x;
            }
        }
    }
}

TEST(CordicFallbacks, HyperbolicIdentityPaths)
{
    // |x| > 1 routes sinh/cosh/tanh through the exp identities; cover
    // both sides of the seam for CORDIC and CORDIC+LUT.
    SplitMix64 rng(132);
    for (Method m : {Method::Cordic, Method::CordicLut}) {
        MethodSpec spec;
        spec.method = m;
        spec.iterations = 26;
        spec.placement = Placement::Host;
        for (Function f :
             {Function::Sinh, Function::Cosh, Function::Tanh}) {
            auto eval = FunctionEvaluator::create(f, spec);
            for (float x : {-3.5f, -1.01f, -0.99f, 0.99f, 1.01f, 3.5f}) {
                double ref = referenceValue(f, (double)x);
                double tol = std::max(1.0, std::abs(ref)) * 5e-5;
                EXPECT_NEAR(ref, eval.eval(x), tol)
                    << functionName(f) << "/" << methodName(m) << " "
                    << x;
            }
        }
    }
}

TEST(DirectLut, PositiveOnlyFunctions)
{
    // log/sqrt/rsqrt via D-LUT use unsigned coverage.
    SplitMix64 rng(133);
    MethodSpec spec;
    spec.method = Method::DLut;
    spec.placement = Placement::Host;
    spec.dlutMantBits = 8;
    for (Function f : {Function::Log, Function::Sqrt, Function::Rsqrt,
                       Function::Log2, Function::Log10}) {
        auto eval = FunctionEvaluator::create(f, spec);
        Domain dom = functionDomain(f);
        for (int i = 0; i < 400; ++i) {
            float x = rng.nextFloat(
                std::max(0.02f, (float)dom.lo), (float)dom.hi);
            double ref = referenceValue(f, (double)x);
            double tol = std::max(1.0, std::abs(ref)) * 3e-3;
            EXPECT_NEAR(ref, eval.eval(x), tol)
                << functionName(f) << " " << x;
        }
    }
}

TEST(Harness, InfeasibleConfigurationReported)
{
    // A 2^20-entry WRAM table cannot fit: the harness reports it
    // rather than throwing.
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Wram;
    spec.log2Entries = 20;
    MicrobenchOptions opts;
    opts.elements = 64;
    MicrobenchResult res = runMicrobench(Function::Sin, spec, opts);
    EXPECT_FALSE(res.feasible);
    // The same table in MRAM is feasible.
    spec.placement = Placement::Mram;
    res = runMicrobench(Function::Sin, spec, opts);
    EXPECT_TRUE(res.feasible);
    EXPECT_GT(res.cyclesPerElement, 0.0);
}

TEST(Harness, TaskletCountAffectsCyclesNotValues)
{
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Wram;
    spec.log2Entries = 10;
    MicrobenchOptions a;
    a.elements = 2048;
    a.tasklets = 1;
    MicrobenchOptions b = a;
    b.tasklets = 16;
    MicrobenchResult ra = runMicrobench(Function::Sin, spec, a);
    MicrobenchResult rb = runMicrobench(Function::Sin, spec, b);
    EXPECT_GT(ra.cyclesPerElement, 5.0 * rb.cyclesPerElement);
    EXPECT_EQ(ra.error.rmse, rb.error.rmse);
}

TEST(MethodLabels, AllVariantsRender)
{
    for (Method m : {Method::Cordic, Method::CordicFixed,
                     Method::CordicLut, Method::MLut, Method::LLut,
                     Method::LLutFixed, Method::DLut, Method::DlLut,
                     Method::Poly}) {
        MethodSpec spec;
        spec.method = m;
        EXPECT_FALSE(methodLabel(spec).empty());
        EXPECT_FALSE(methodName(m).empty());
    }
}

TEST(FunctionNames, AllRender)
{
    for (int i = 0; i <= static_cast<int>(Function::Softplus); ++i) {
        Function f = static_cast<Function>(i);
        EXPECT_NE("?", functionName(f));
        Domain d = functionDomain(f);
        EXPECT_LT(d.lo, d.hi);
    }
}

TEST(Evaluator, CosAndTanWithSharedReduction)
{
    // cos via quadrant+1 trick in the poly path; tan via division.
    MethodSpec spec;
    spec.method = Method::Poly;
    spec.polyDegree = 13;
    spec.placement = Placement::Host;
    auto cosE = FunctionEvaluator::create(Function::Cos, spec);
    auto tanE = FunctionEvaluator::create(Function::Tan, spec);
    SplitMix64 rng(134);
    for (int i = 0; i < 500; ++i) {
        float x = rng.nextFloat(0.0f, 6.28f);
        EXPECT_NEAR(std::cos((double)x), cosE.eval(x), 2e-5) << x;
        if (std::abs(std::cos((double)x)) > 0.2) {
            double ref = std::tan((double)x);
            EXPECT_NEAR(ref, tanE.eval(x),
                        std::abs(ref) * 1e-3 + 1e-4)
                << x;
        }
    }
}

} // namespace
} // namespace transpim
} // namespace tpl
