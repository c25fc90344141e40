/**
 * @file
 * End-to-end tuning workflow: from accuracy requirement to a deployed
 * multi-function PIM kernel.
 *
 * A realistic deployment has several constraints at once: a target
 * accuracy, a WRAM budget shared between tables and operand buffers,
 * and an expected evaluation count that decides whether table setup
 * amortizes. This example walks the full path:
 *
 *   1. ask the auto-tuner for the cheapest method per function,
 *   2. bundle the winners into a PimProgram (budget-checked),
 *   3. deploy to a simulated PIM system and run a mixed kernel.
 *
 * Build & run:
 *   cmake --build build && ./build/examples/tuning_workflow
 */

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "softfloat/softfloat.h"
#include "transpim/transpimlib.h"

int
main()
{
    using namespace tpl;
    using namespace tpl::transpim;

    // --- 1. Tune each function the kernel needs. ----------------------
    const double targetRmse = 1e-5;
    TunerConstraints constraints;
    constraints.maxTableBytes = 16 * 1024; // per function
    constraints.expectedEvaluations = 10'000'000;

    std::printf("tuning for RMSE <= %.0e, <=16 KB tables/function, "
                "10M evaluations:\n\n",
                targetRmse);
    std::printf("%-10s %-26s %12s %12s %10s %8s\n", "function",
                "choice", "rmse", "instr/eval", "bytes", "gen ms");

    PimProgram program(48 * 1024);
    for (Function f : {Function::Exp, Function::Tanh, Function::Sqrt}) {
        auto rec = recommendSpec(f, targetRmse, constraints);
        if (!rec) {
            std::printf("%-10s (no feasible method)\n",
                        std::string(functionName(f)).c_str());
            return 1;
        }
        // gen ms: host wall time of the table generation (varies
        // from run to run; the ranking never reads it).
        std::printf("%-10s %-26s %12.2e %12.1f %10u %8.3f\n",
                    std::string(functionName(f)).c_str(),
                    methodLabel(rec->best.spec).c_str(), rec->best.rmse,
                    rec->best.instructionsPerEval, rec->best.tableBytes,
                    rec->best.hostSetupSeconds * 1e3);
        MethodSpec spec = rec->best.spec;
        spec.placement = Placement::Wram;
        program.add(std::string(functionName(f)), f, spec);
    }

    std::printf("\nprogram: %u table bytes in WRAM, %.3f ms host "
                "setup\n",
                program.wramTableBytes(),
                program.totalSetupSeconds() * 1e3);

    // --- 2. Deploy to a 4-core PIM system. ----------------------------
    sim::PimSystem sys(4);
    double transfer = program.attachAll(sys);
    std::printf("table broadcast: %.3e s (modeled)\n\n", transfer);

    // --- 3. A mixed kernel: y = tanh(sqrt(x)) * exp(-x). ---------------
    constexpr uint32_t elems = 2048;
    auto inputs = uniformFloats(elems, 0.1f, 9.0f, 31);
    std::vector<uint32_t> inAddr(sys.numDpus());
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        inAddr[d] = sys.dpu(d).mramAlloc(elems * 4);
        sys.dpu(d).hostWriteMram(inAddr[d], inputs.data(), elems * 4);
    }

    double secs = sys.launchAll(16, [&](sim::TaskletContext& ctx) {
        float buf[256];
        for (uint32_t c = ctx.taskletId(); c < elems / 256;
             c += ctx.numTasklets()) {
            ctx.mramRead(inAddr[0] + c * 1024, buf, 1024);
            for (uint32_t i = 0; i < 256; ++i) {
                float s = program["sqrt"].eval(buf[i], &ctx);
                float t = program["tanh"].eval(s, &ctx);
                float e = program["exp"].eval(
                    sf::neg(buf[i], &ctx), &ctx);
                buf[i] = sf::mul(t, e, &ctx);
            }
        }
    });

    double ref = std::tanh(std::sqrt((double)inputs[0])) *
                 std::exp(-(double)inputs[0]);
    sim::DpuCore probe;
    program.attach(probe);
    float got = 0.0f;
    probe.launch(1, [&](sim::TaskletContext& ctx) {
        float s = program["sqrt"].eval(inputs[0], &ctx);
        float t = program["tanh"].eval(s, &ctx);
        float e = program["exp"].eval(sf::neg(inputs[0], &ctx), &ctx);
        got = sf::mul(t, e, &ctx);
    });
    std::printf("kernel: %.3e s for %u elements/DPU; spot check "
                "f(%.3f) = %.6f (ref %.6f)\n",
                secs, elems, inputs[0], got, ref);
    return 0;
}
