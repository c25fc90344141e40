/**
 * @file
 * Method auto-tuner: pick the cheapest configuration that meets an
 * accuracy target under deployment constraints.
 *
 * The paper's evaluation (Figures 5-7, Key Takeaways 1-3) is a manual
 * exploration of the method/accuracy/memory/setup tradeoff space; this
 * API automates it. Given a function, a target RMSE, and constraints
 * (table placement, memory budget, how many evaluations the kernel
 * will amortize setup over), the tuner searches each supported
 * method's knob for the smallest configuration meeting the target,
 * measures its per-evaluation instruction cost and modeled setup
 * (table transfer) time, and returns the cheapest option:
 *
 *  - few evaluations -> CORDIC-family (flat, tiny setup; KT2),
 *  - many evaluations -> interpolated L-LUT (best cycles/accuracy;
 *    KT1), or fixed-point L-LUT when ranges allow,
 *  - tight memory at high accuracy -> CORDIC-family again (KT3).
 */

#ifndef TPL_TRANSPIM_TUNER_H
#define TPL_TRANSPIM_TUNER_H

#include <optional>
#include <vector>

#include "transpim/evaluator.h"

namespace tpl {
namespace transpim {

/** How the tuner interprets the accuracy target. */
enum class ErrorMetric
{
    /** Relative for functions with large output ranges (exp, sinh,
     * cosh, exp2), absolute otherwise. */
    Auto,
    Absolute, ///< RMSE of |approx - ref|
    Relative, ///< RMSE of |approx - ref| / max(1, |ref|)
};

/** Deployment constraints the recommendation must respect. */
struct TunerConstraints
{
    /** Accuracy-metric interpretation of the target RMSE. */
    ErrorMetric metric = ErrorMetric::Auto;

    /** Where tables will live. */
    Placement placement = Placement::Wram;

    /** Table budget in bytes (WRAM default: leave room for buffers). */
    uint32_t maxTableBytes = 48 * 1024;

    /** Evaluations the kernel performs (amortizes setup time). */
    uint64_t expectedEvaluations = 1'000'000;

    /** Allow Q3.28 fixed-point variants where ranges permit. */
    bool allowFixedPoint = true;

    /** Candidate methods; empty = every supported method. */
    std::vector<Method> methods;

    /** Sample size used to validate accuracy during the search. */
    uint32_t sampleSize = 2000;
};

/** One scored candidate configuration. */
struct TunedCandidate
{
    MethodSpec spec;
    double rmse = 0.0;
    double instructionsPerEval = 0.0;
    double setupSeconds = 0.0;  ///< modeled table transfer
    /** Host wall time the table generation took (reported only: it
     * varies from run to run, so it never enters the score). */
    double hostSetupSeconds = 0.0;
    uint32_t tableBytes = 0;
    /** Amortized modeled seconds per evaluation (the ranking score):
     * issue-bound kernel time plus setupSeconds spread over the
     * expected evaluations. */
    double secondsPerEval = 0.0;
};

/** Full tuner output: the winner plus every feasible candidate. */
struct TunerResult
{
    TunedCandidate best;
    std::vector<TunedCandidate> candidates; ///< sorted by score
};

/**
 * Recommend the cheapest configuration of any supported method that
 * achieves @p targetRmse for @p f under @p constraints. The methods
 * are searched concurrently on the simulation pool; the result is the
 * same at any thread count.
 * @return nullopt when no method reaches the target within budget.
 */
std::optional<TunerResult> recommendSpec(
    Function f, double targetRmse,
    const TunerConstraints& constraints = {});

/**
 * Resolve ErrorMetric::Auto for @p f: Relative for the functions with
 * large output ranges (Exp, Exp2, Sinh, Cosh), Absolute otherwise.
 * Explicit metrics pass through unchanged. This is the classification
 * recommendSpec and the online AutoTuner both score against.
 */
ErrorMetric resolveMetric(Function f,
                          ErrorMetric metric = ErrorMetric::Auto);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_TUNER_H
