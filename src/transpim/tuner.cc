/**
 * @file
 * Auto-tuner implementation.
 */

#include "transpim/tuner.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "pimsim/cost_model.h"
#include "pimsim/thread_pool.h"
#include "transpim/error_model.h"
#include "transpim/harness.h"

namespace tpl {
namespace transpim {

namespace {

/** Ascending accuracy knob per method family. */
std::vector<uint32_t>
knobLadder(Method m)
{
    switch (m) {
      case Method::Cordic:
      case Method::CordicFixed:
      case Method::CordicLut:
        return {8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28};
      case Method::Poly:
        return {3, 5, 7, 9, 11, 13, 15};
      default: // LUT families: log2 of the entry budget
        return {6, 8, 10, 12, 14, 16, 18, 20};
    }
}

MethodSpec
specWithKnob(Method m, uint32_t knob, const TunerConstraints& c)
{
    MethodSpec spec;
    spec.method = m;
    spec.interpolated = true;
    spec.placement = c.placement;
    switch (m) {
      case Method::Cordic:
      case Method::CordicFixed:
      case Method::CordicLut:
        spec.iterations = knob;
        break;
      case Method::Poly:
        spec.polyDegree = knob;
        break;
      default:
        spec.log2Entries = knob;
        break;
    }
    return spec;
}

const std::vector<Method> kAllMethods{
    Method::Cordic,  Method::CordicFixed, Method::CordicLut,
    Method::MLut,    Method::LLut,        Method::LLutFixed,
    Method::DLut,    Method::DlLut,       Method::Poly,
};

/** Resolve the Auto metric: relative for large-output functions. */
bool
useRelative(Function f, ErrorMetric metric)
{
    if (metric != ErrorMetric::Auto)
        return metric == ErrorMetric::Relative;
    switch (f) {
      case Function::Exp:
      case Function::Exp2:
      case Function::Sinh:
      case Function::Cosh:
        return true;
      default:
        return false;
    }
}

/** RMSE under the chosen metric over sample inputs. */
double
measureRmse(const FunctionEvaluator& eval,
            const std::vector<float>& inputs, bool relative)
{
    double sumSq = 0.0;
    size_t n = 0;
    for (float x : inputs) {
        double ref =
            referenceValue(eval.function(), static_cast<double>(x));
        double err = std::abs(eval.eval(x, nullptr) - ref);
        if (relative)
            err /= std::max(1.0, std::abs(ref));
        sumSq += err * err;
        ++n;
    }
    return n ? std::sqrt(sumSq / static_cast<double>(n)) : 0.0;
}

/**
 * The smallest knob of method @p m meeting @p targetRmse, scored:
 * nullopt when @p m does not support @p f, is excluded, or reaches the
 * target within no table budget. Reads only its arguments, so several
 * methods search concurrently.
 */
std::optional<TunedCandidate>
searchMethod(Function f, Method m, double targetRmse,
             const TunerConstraints& constraints,
             const std::vector<float>& inputs)
{
    MethodSpec probe;
    probe.method = m;
    if (!FunctionEvaluator::supports(f, probe))
        return std::nullopt;
    if (m == Method::LLutFixed && !constraints.allowFixedPoint)
        return std::nullopt;

    const sim::CostModel model;
    for (uint32_t knob : knobLadder(m)) {
        MethodSpec spec = specWithKnob(m, knob, constraints);
        // Accuracy search runs host-side; placement only affects
        // the memory budget check here.
        spec.placement = Placement::Host;
        // Fast pre-filter: skip knobs the analytic error model
        // predicts to miss the target by a wide margin, avoiding
        // table construction for hopeless configurations.
        if (predictRmse(f, spec) > 30.0 * targetRmse)
            continue;
        FunctionEvaluator eval = FunctionEvaluator::create(f, spec);
        if (eval.memoryBytes() > constraints.maxTableBytes) {
            // Table growth is monotone in the knob: no larger
            // configuration of this method fits either.
            return std::nullopt;
        }
        bool relative = useRelative(f, constraints.metric);
        double rmse = measureRmse(eval, inputs, relative);
        if (rmse > targetRmse)
            continue; // not accurate enough yet; raise the knob

        // Accuracy target met: measure the per-eval cost.
        CountingSink cost;
        uint32_t probes = std::min<uint32_t>(256, constraints.sampleSize);
        for (uint32_t i = 0; i < probes; ++i)
            eval.eval(inputs[i], &cost);

        TunedCandidate cand;
        cand.spec = specWithKnob(m, knob, constraints);
        cand.rmse = rmse;
        cand.instructionsPerEval =
            static_cast<double>(cost.total()) / probes;
        cand.tableBytes = eval.memoryBytes();
        cand.setupSeconds =
            model.serialTransferSeconds(eval.memoryBytes());
        cand.hostSetupSeconds = eval.setupSeconds();
        // Score: issue-bound kernel time per evaluation plus the
        // amortized modeled setup share. Host time stays out, so the
        // ranking is the same on every run and machine.
        double evals = static_cast<double>(
            std::max<uint64_t>(1, constraints.expectedEvaluations));
        cand.secondsPerEval =
            cand.instructionsPerEval / model.frequencyHz +
            cand.setupSeconds / evals;
        return cand; // smallest knob meeting the target: done with m
    }
    return std::nullopt;
}

} // namespace

std::optional<TunerResult>
recommendSpec(Function f, double targetRmse,
              const TunerConstraints& constraints)
{
    Domain dom = functionDomain(f);
    auto inputs =
        uniformFloats(constraints.sampleSize, static_cast<float>(dom.lo),
                      static_cast<float>(dom.hi), 0x7a11e5);

    const std::vector<Method>& methods =
        constraints.methods.empty() ? kAllMethods : constraints.methods;

    // One search per method on the simulation pool, each into its own
    // slot; concatenating the slots in method order keeps the
    // candidate list independent of the thread count.
    std::vector<std::optional<TunedCandidate>> found(methods.size());
    sim::parallelFor(methods.size(), [&](uint64_t i) {
        found[i] = searchMethod(f, methods[i], targetRmse, constraints,
                                inputs);
    });
    std::vector<TunedCandidate> candidates;
    for (std::optional<TunedCandidate>& c : found)
        if (c)
            candidates.push_back(std::move(*c));

    if (candidates.empty())
        return std::nullopt;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const TunedCandidate& a, const TunedCandidate& b) {
                         return a.secondsPerEval < b.secondsPerEval;
                     });
    TunerResult result;
    result.best = candidates.front();
    result.candidates = std::move(candidates);
    return result;
}

ErrorMetric
resolveMetric(Function f, ErrorMetric metric)
{
    if (metric != ErrorMetric::Auto)
        return metric;
    return useRelative(f, metric) ? ErrorMetric::Relative
                                  : ErrorMetric::Absolute;
}

} // namespace transpim
} // namespace tpl
