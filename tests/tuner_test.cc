/**
 * @file
 * Auto-tuner tests: recommendations meet the accuracy target, respect
 * memory budgets, and reproduce the paper's Key Takeaways (CORDIC for
 * tight memory, LUT families for streaming kernels, setup dominating
 * for tiny evaluation counts), with a candidate list that is the same
 * at any thread count.
 */

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pimsim/thread_pool.h"
#include "transpim/harness.h"
#include "transpim/tuner.h"

namespace tpl {
namespace transpim {
namespace {

TEST(Tuner, RecommendationMeetsTarget)
{
    for (double target : {1e-3, 1e-5, 1e-7}) {
        auto rec = recommendSpec(Function::Sin, target);
        ASSERT_TRUE(rec.has_value()) << target;
        EXPECT_LE(rec->best.rmse, target);
        // Independently validate with a fresh evaluator and inputs.
        auto eval = FunctionEvaluator::create(Function::Sin,
                                              rec->best.spec);
        auto inputs = uniformFloats(3000, 0.0f, 6.2831853f, 555);
        ErrorStats stats = evaluateAccuracy(eval, inputs);
        EXPECT_LE(stats.rmse, target * 1.5) << methodLabel(rec->best.spec);
    }
}

TEST(Tuner, CandidatesSortedByScore)
{
    auto rec = recommendSpec(Function::Sin, 1e-5);
    ASSERT_TRUE(rec.has_value());
    ASSERT_GE(rec->candidates.size(), 2u);
    for (size_t i = 1; i < rec->candidates.size(); ++i) {
        EXPECT_LE(rec->candidates[i - 1].secondsPerEval,
                  rec->candidates[i].secondsPerEval);
    }
    EXPECT_EQ(rec->best.secondsPerEval,
              rec->candidates.front().secondsPerEval);
}

TEST(Tuner, TightMemoryPrefersCordicFamily)
{
    // Key Takeaway 3: with the bank needed for data, only the flat-
    // memory CORDIC methods reach high accuracy.
    TunerConstraints tight;
    tight.maxTableBytes = 512;
    auto rec = recommendSpec(Function::Sin, 1e-7, tight);
    ASSERT_TRUE(rec.has_value());
    Method m = rec->best.spec.method;
    EXPECT_TRUE(m == Method::Cordic || m == Method::CordicFixed ||
                m == Method::CordicLut)
        << methodLabel(rec->best.spec);
    EXPECT_LE(rec->best.tableBytes, 512u);
}

TEST(Tuner, RoomyMemoryPrefersLutFamily)
{
    // Key Takeaway 1: with table room, an L-LUT variant wins the
    // streaming case.
    TunerConstraints roomy;
    roomy.maxTableBytes = 1u << 20;
    roomy.expectedEvaluations = 100'000'000;
    auto rec = recommendSpec(Function::Sin, 1e-5, roomy);
    ASSERT_TRUE(rec.has_value());
    Method m = rec->best.spec.method;
    EXPECT_TRUE(m == Method::LLut || m == Method::LLutFixed ||
                m == Method::DlLut || m == Method::DLut)
        << methodLabel(rec->best.spec);
}

TEST(Tuner, FixedPointCanBeDisabled)
{
    TunerConstraints c;
    c.allowFixedPoint = false;
    auto rec = recommendSpec(Function::Sin, 1e-5, c);
    ASSERT_TRUE(rec.has_value());
    EXPECT_NE(Method::LLutFixed, rec->best.spec.method);
    for (const auto& cand : rec->candidates)
        EXPECT_NE(Method::LLutFixed, cand.spec.method);
}

TEST(Tuner, MethodFilterRespected)
{
    TunerConstraints c;
    c.methods = {Method::Cordic, Method::Poly};
    auto rec = recommendSpec(Function::Sin, 1e-4, c);
    ASSERT_TRUE(rec.has_value());
    for (const auto& cand : rec->candidates) {
        EXPECT_TRUE(cand.spec.method == Method::Cordic ||
                    cand.spec.method == Method::Poly);
    }
}

TEST(Tuner, SetupAmortizationShiftsScore)
{
    // With very few evaluations the setup share dominates the score,
    // so the chosen candidate's setup must be no worse than what the
    // streaming case picks.
    TunerConstraints fewEvals;
    fewEvals.expectedEvaluations = 10;
    TunerConstraints manyEvals;
    manyEvals.expectedEvaluations = 1'000'000'000;
    auto few = recommendSpec(Function::Sin, 1e-6, fewEvals);
    auto many = recommendSpec(Function::Sin, 1e-6, manyEvals);
    ASSERT_TRUE(few.has_value());
    ASSERT_TRUE(many.has_value());
    EXPECT_LE(few->best.setupSeconds, many->best.setupSeconds * 1.01);
    EXPECT_LE(many->best.instructionsPerEval,
              few->best.instructionsPerEval * 1.01);
}

TEST(Tuner, UnreachableTargetReturnsNothing)
{
    TunerConstraints c;
    c.maxTableBytes = 64; // essentially no tables
    c.methods = {Method::MLut, Method::LLut};
    auto rec = recommendSpec(Function::Sin, 1e-9, c);
    EXPECT_FALSE(rec.has_value());
}

TEST(Tuner, WorksAcrossFunctions)
{
    for (Function f : {Function::Tanh, Function::Exp, Function::Log,
                       Function::Gelu}) {
        auto rec = recommendSpec(f, 1e-4);
        ASSERT_TRUE(rec.has_value()) << functionName(f);
        EXPECT_LE(rec->best.rmse, 1e-4) << functionName(f);
    }
}

TEST(Tuner, EmptyMethodListMeansEveryMethod)
{
    // An empty candidate-method list is "no filter", not "no
    // candidates": the search must behave exactly like the default
    // constraints.
    TunerConstraints empty;
    empty.methods = {};
    auto open = recommendSpec(Function::Sin, 1e-5, empty);
    auto deflt = recommendSpec(Function::Sin, 1e-5);
    ASSERT_TRUE(open.has_value());
    ASSERT_TRUE(deflt.has_value());
    EXPECT_EQ(open->best.spec.method, deflt->best.spec.method);
    EXPECT_EQ(open->candidates.size(), deflt->candidates.size());
    // And it genuinely spans method families, not one survivor.
    bool sawCordicFamily = false;
    bool sawLutFamily = false;
    for (const auto& cand : open->candidates) {
        switch (cand.spec.method) {
        case Method::Cordic:
        case Method::CordicFixed:
        case Method::CordicLut:
            sawCordicFamily = true;
            break;
        default:
            sawLutFamily = true;
            break;
        }
    }
    EXPECT_TRUE(sawCordicFamily);
    EXPECT_TRUE(sawLutFamily);
}

TEST(Tuner, TableBudgetBelowAnyViableTableReturnsNothing)
{
    // LUT-only search with a budget smaller than the smallest table
    // any LUT method can build: there is no feasible candidate at
    // all, so the result must be empty rather than a best-effort
    // over-budget pick.
    TunerConstraints c;
    c.methods = {Method::MLut, Method::LLut, Method::LLutFixed,
                 Method::DLut, Method::DlLut};
    c.maxTableBytes = 8; // two float entries
    auto rec = recommendSpec(Function::Sin, 1e-2, c);
    EXPECT_FALSE(rec.has_value());
}

TEST(Tuner, AutoMetricClassificationCoversEveryFunction)
{
    // ErrorMetric::Auto resolves to Relative exactly for the
    // functions with large output ranges; everything else is
    // Absolute. This is the classification the online AutoTuner
    // scores SLAs against, so lock it for the whole catalog.
    for (Function f :
         {Function::Sin,   Function::Cos,     Function::Tan,
          Function::Sinh,  Function::Cosh,    Function::Tanh,
          Function::Exp,   Function::Log,     Function::Sqrt,
          Function::Gelu,  Function::Sigmoid, Function::Cndf,
          Function::Atan,  Function::Asin,    Function::Acos,
          Function::Atanh, Function::Log2,    Function::Log10,
          Function::Exp2,  Function::Rsqrt,   Function::Erf,
          Function::Silu,  Function::Softplus}) {
        const bool largeRange =
            f == Function::Exp || f == Function::Exp2 ||
            f == Function::Sinh || f == Function::Cosh;
        EXPECT_EQ(resolveMetric(f), largeRange
                                        ? ErrorMetric::Relative
                                        : ErrorMetric::Absolute)
            << functionName(f);
        // Explicit metrics pass through unchanged.
        EXPECT_EQ(resolveMetric(f, ErrorMetric::Absolute),
                  ErrorMetric::Absolute)
            << functionName(f);
        EXPECT_EQ(resolveMetric(f, ErrorMetric::Relative),
                  ErrorMetric::Relative)
            << functionName(f);
    }
}

/** @p a and @p b list the same candidates with the same scores. */
void
expectSameCandidates(const TunerResult& a, const TunerResult& b)
{
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i) {
        const TunedCandidate& x = a.candidates[i];
        const TunedCandidate& y = b.candidates[i];
        EXPECT_EQ(methodLabel(x.spec), methodLabel(y.spec)) << i;
        EXPECT_EQ(x.rmse, y.rmse) << i;
        EXPECT_EQ(x.instructionsPerEval, y.instructionsPerEval) << i;
        EXPECT_EQ(x.tableBytes, y.tableBytes) << i;
        EXPECT_EQ(x.setupSeconds, y.setupSeconds) << i;
        EXPECT_EQ(x.secondsPerEval, y.secondsPerEval) << i;
    }
    EXPECT_EQ(methodLabel(a.best.spec), methodLabel(b.best.spec));
}

TEST(Tuner, CandidateListIndependentOfThreadCount)
{
    // The score is modeled only, so neither the search's thread count
    // nor its host timing can reorder the list. Threaded: the methods
    // search concurrently on the global pool (one lane per host CPU).
    // Serial: the same calls from a pool worker, where nested
    // parallel loops run inline.
    struct Query
    {
        Function f;
        double target;
        uint64_t evals;
    };
    const std::vector<Query> queries = {{Function::Sin, 1e-5, 1'000'000},
                                        {Function::Exp, 1e-4, 100},
                                        {Function::Tanh, 1e-3, 10}};
    auto runAll = [&] {
        std::vector<std::optional<TunerResult>> out;
        for (const Query& q : queries) {
            TunerConstraints c;
            c.expectedEvaluations = q.evals;
            out.push_back(recommendSpec(q.f, q.target, c));
        }
        return out;
    };
    const auto threaded = runAll();

    std::vector<std::optional<TunerResult>> serial;
    sim::ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> done{false};
    pool.parallelFor(2, [&](uint64_t) {
        if (std::this_thread::get_id() == caller) {
            // Leave the search to the worker thread.
            while (!done.load())
                std::this_thread::yield();
            return;
        }
        serial = runAll();
        done = true;
    });

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE(std::string(functionName(queries[i].f)));
        ASSERT_TRUE(serial[i] && threaded[i]);
        expectSameCandidates(*serial[i], *threaded[i]);
        // Host generation time is still reported, outside the score.
        for (const TunedCandidate& c : threaded[i]->candidates)
            EXPECT_GE(c.hostSetupSeconds, 0.0);
    }
}

} // namespace
} // namespace transpim
} // namespace tpl
