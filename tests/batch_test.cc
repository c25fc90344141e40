/**
 * @file
 * Batch-vs-scalar identity tier.
 *
 * The batch execution path (FunctionEvaluator::evalBatch, the batched
 * softfloat entry points) must be *observationally identical* to the
 * scalar path: bit-identical outputs and bit-identical accounting —
 * LaunchStats cycles, the per-class instruction partition, operation
 * counts, DMA totals and energy — for every (function, method,
 * placement) combination the support matrix admits, on well-behaved
 * inputs, degenerate sizes (empty, single element, non-multiple of
 * any SIMD lane width) and NaN/Inf-laden inputs, with and without an
 * armed fault plan, at any simulation thread count.
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pimsim/fault/fault.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/system.h"
#include "softfloat/simd_lanes.h"
#include "softfloat/softfloat.h"
#include "softfloat/softfloat_batch.h"
#include "softfloat/softfloat_lanes.h"
#include "transpim/batch.h"
#include "transpim/cordic.h"
#include "transpim/evaluator.h"
#include "transpim/poly.h"
#include "transpim/serve_glue.h"
#include "transpim/trace.h"

namespace tpl {
namespace transpim {
namespace {

using sim::DpuCore;
using sim::LaunchStats;
using sim::PimSystem;
using sim::TaskletContext;

constexpr Function kFunctions[] = {
    Function::Sin,   Function::Cos,    Function::Tan,
    Function::Sinh,  Function::Cosh,   Function::Tanh,
    Function::Exp,   Function::Log,    Function::Sqrt,
    Function::Gelu,  Function::Sigmoid, Function::Cndf,
    Function::Atan,  Function::Asin,   Function::Acos,
    Function::Atanh, Function::Log2,   Function::Log10,
    Function::Exp2,  Function::Rsqrt,  Function::Erf,
    Function::Silu,  Function::Softplus,
};

constexpr Method kMethods[] = {
    Method::Cordic, Method::CordicFixed, Method::CordicLut,
    Method::MLut,   Method::LLut,        Method::LLutFixed,
    Method::DLut,   Method::DlLut,       Method::Poly,
};

/** Small-but-representative spec: quick tables, all paths exercised. */
MethodSpec
smallSpec(Method m, Placement p)
{
    MethodSpec spec;
    spec.method = m;
    spec.placement = p;
    spec.interpolated = true;
    spec.log2Entries = 8;
    spec.iterations = 16;
    spec.gridBits = 6;
    spec.polyDegree = 7;
    return spec;
}

std::string
comboLabel(Function f, const MethodSpec& spec)
{
    return std::string(functionName(f)) + " / " + methodLabel(spec);
}

struct RunResult
{
    std::vector<float> outputs;
    LaunchStats stats;
    uint32_t memoryBytes = 0;
};

/**
 * The Fig-5 streaming kernel on one core, scalar or batched, with
 * @p plan's faults armed on it. A fresh evaluator is created per run
 * (table generation is deterministic).
 */
RunResult
runStreaming(Function f, const MethodSpec& spec,
             const std::vector<float>& inputs, uint32_t tasklets,
             bool batch, const sim::fault::FaultPlan& plan = {})
{
    FunctionEvaluator ev = FunctionEvaluator::create(f, spec);
    PimSystem sys(1);
    if (!plan.empty())
        sys.armFaults(plan);
    DpuCore& dpu = sys.dpu(0);
    ev.attach(dpu);

    const uint32_t n = static_cast<uint32_t>(inputs.size());
    const uint32_t bytes = n * sizeof(float);
    uint32_t inAddr = dpu.mramAlloc(bytes ? bytes : 8);
    uint32_t outAddr = dpu.mramAlloc(bytes ? bytes : 8);
    if (bytes)
        dpu.hostWriteMram(inAddr, inputs.data(), bytes);

    RunResult r;
    r.memoryBytes = ev.memoryBytes();
    r.stats = dpu.launch(tasklets, [&](TaskletContext& ctx) {
        constexpr uint32_t chunkElems = 64;
        float buf[chunkElems];
        uint32_t chunks = (n + chunkElems - 1) / chunkElems;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunkElems;
            uint32_t cnt = std::min(chunkElems, n - beg);
            ctx.mramRead(inAddr + beg * sizeof(float), buf,
                         cnt * sizeof(float));
            if (batch) {
                ctx.chargeClassN(InstrClass::IntAlu, 4, cnt);
                std::span<float> s(buf, cnt);
                ev.evalBatch(s, s, &ctx);
            } else {
                for (uint32_t i = 0; i < cnt; ++i) {
                    ctx.charge(4);
                    buf[i] = ev.eval(buf[i], &ctx);
                }
            }
            ctx.mramWrite(outAddr + beg * sizeof(float), buf,
                          cnt * sizeof(float));
        }
    });
    r.outputs.assign(n, 0.0f);
    if (bytes)
        dpu.hostReadMram(outAddr, r.outputs.data(), bytes);
    return r;
}

/** Full LaunchStats equality, including the per-tasklet breakdown. */
void
expectStatsIdentical(const LaunchStats& a, const LaunchStats& b,
                     const std::string& label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalInstructions, b.totalInstructions) << label;
    EXPECT_EQ(a.maxTaskletWork, b.maxTaskletWork) << label;
    EXPECT_EQ(a.dmaEngineCycles, b.dmaEngineCycles) << label;
    EXPECT_EQ(a.dmaBytes, b.dmaBytes) << label;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << label;
    EXPECT_EQ(a.tasklets, b.tasklets) << label;
    EXPECT_EQ(a.energyJoules, b.energyJoules) << label;
    EXPECT_EQ(a.failed, b.failed) << label;
    EXPECT_EQ(a.faultEvents, b.faultEvents) << label;
    for (int c = 0; c < numInstrClasses; ++c)
        EXPECT_EQ(a.classInstructions[c], b.classInstructions[c])
            << label << " class "
            << instrClassName(static_cast<InstrClass>(c));
    for (int o = 0; o < numOpClasses; ++o)
        EXPECT_EQ(a.opCounts[o], b.opCounts[o])
            << label << " op " << opClassSlug(static_cast<OpClass>(o));
    ASSERT_EQ(a.perTasklet.size(), b.perTasklet.size()) << label;
    for (size_t t = 0; t < a.perTasklet.size(); ++t) {
        EXPECT_EQ(a.perTasklet[t].instructions,
                  b.perTasklet[t].instructions)
            << label << " tasklet " << t;
        EXPECT_EQ(a.perTasklet[t].dmaStallCycles,
                  b.perTasklet[t].dmaStallCycles)
            << label << " tasklet " << t;
    }
}

void
expectOutputsBitIdentical(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    if (!a.empty()) {
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(float)))
            << label;
    }
}

/** The batch run of expectBatchMatchesScalar. */
RunResult
expectBatchMatchesScalar(Function f, const MethodSpec& spec,
                         const std::vector<float>& inputs,
                         uint32_t tasklets)
{
    std::string label = comboLabel(f, spec);
    RunResult scalar = runStreaming(f, spec, inputs, tasklets, false);
    RunResult batch = runStreaming(f, spec, inputs, tasklets, true);
    expectOutputsBitIdentical(scalar.outputs, batch.outputs, label);
    expectStatsIdentical(scalar.stats, batch.stats, label);
    return batch;
}

/** FNV-1a over @p n raw bytes at @p data, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const void* data, size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

/**
 * One hash of everything a run shows: the output bits, the
 * evaluator's memoryBytes() and every LaunchStats field (per-class
 * and per-op counts, stalls, DMA engine cycles, energy, the
 * per-tasklet breakdown). Fields are hashed one by one, so struct
 * padding never enters.
 */
uint64_t
resultHash(const RunResult& r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
    h = fnv1a(h, r.outputs.data(), r.outputs.size() * sizeof(float));
    mix(r.memoryBytes);
    const LaunchStats& s = r.stats;
    mix(s.cycles);
    mix(s.totalInstructions);
    mix(s.maxTaskletWork);
    mix(s.dmaEngineCycles);
    mix(s.dmaBytes);
    mix(s.tasklets);
    mix(s.energyJoules);
    mix(s.failed);
    mix(s.faultEvents);
    mix(s.classInstructions);
    mix(s.stallCycles);
    mix(s.opCounts);
    for (const sim::TaskletStats& t : s.perTasklet) {
        mix(t.instructions);
        mix(t.dmaStallCycles);
        mix(t.classInstructions);
    }
    return h;
}

/** A recorded resultHash of one (method, function, placement). */
struct RecordedHash
{
    const char* combo; ///< "METHOD / FUNCTION / PLACEMENT"
    uint64_t hash;
};

/**
 * The whole-catalog hashes, recorded from a known-good build. They
 * lock evaluator values and charges across commits, which the
 * batch-vs-scalar comparisons (two paths of one build) cannot. Table
 * generation reads the host libm (reference.cc), so the hashes belong
 * to this toolchain's libm as well as to the code: a change that
 * moves values or charges on purpose re-records the table (a mismatch
 * prints the line to paste) and says so in CHANGES.md.
 */
constexpr RecordedHash kRecordedHashes[] = {
#include "batch_hashes.inc"
};

// ---------------------------------------------------------------------
// Full support matrix: every (function, method, placement).
// ---------------------------------------------------------------------

class BatchIdentity : public ::testing::TestWithParam<Method>
{};

TEST_P(BatchIdentity, WholeCatalogBitIdenticalToScalar)
{
    const Method m = GetParam();
    const std::string methodPrefix = std::string(methodName(m)) + " / ";
    size_t recorded = 0;
    for (const RecordedHash& r : kRecordedHashes)
        recorded += std::string_view(r.combo).starts_with(methodPrefix);
    size_t checked = 0;
    for (Function f : kFunctions) {
        for (Placement p : {Placement::Wram, Placement::Mram}) {
            MethodSpec spec = smallSpec(m, p);
            if (!FunctionEvaluator::supports(f, spec))
                continue;
            Domain dom = functionDomain(f);
            // 193 elements: a ragged final chunk and a count that is
            // not a multiple of any SIMD lane width.
            std::vector<float> inputs = uniformFloats(
                193, static_cast<float>(dom.lo),
                static_cast<float>(dom.hi), 1234 + spec.log2Entries);
            RunResult batch = expectBatchMatchesScalar(f, spec, inputs, 3);
            const std::string combo = methodPrefix +
                                      std::string(functionName(f)) +
                                      " / " +
                                      std::string(placementName(p));
            const uint64_t hash = resultHash(batch);
            const RecordedHash* want = std::find_if(
                std::begin(kRecordedHashes), std::end(kRecordedHashes),
                [&](const RecordedHash& r) { return r.combo == combo; });
            char line[128];
            std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                          combo.c_str(),
                          static_cast<unsigned long long>(hash));
            if (want == std::end(kRecordedHashes)) {
                ADD_FAILURE() << combo << ": no recorded hash\n" << line;
            } else {
                EXPECT_EQ(want->hash, hash)
                    << combo << ": values or charges moved\n" << line;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, recorded)
        << "recorded hashes for combinations the catalog no longer has";
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BatchIdentity, ::testing::ValuesIn(kMethods),
    [](const ::testing::TestParamInfo<Method>& info) {
        std::string name(methodName(info.param));
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Degenerate sizes and adversarial values on representative combos.
// ---------------------------------------------------------------------

struct Combo
{
    Function f;
    Method m;
    Placement p;
};

constexpr Combo kRepresentatives[] = {
    {Function::Sin, Method::LLut, Placement::Mram},
    {Function::Sin, Method::MLut, Placement::Wram},
    {Function::Exp, Method::Cordic, Placement::Wram},
    {Function::Tanh, Method::LLutFixed, Placement::Wram},
    {Function::Log, Method::DLut, Placement::Mram},
    {Function::Sqrt, Method::DlLut, Placement::Mram},
    {Function::Sigmoid, Method::CordicLut, Placement::Wram},
    {Function::Erf, Method::Poly, Placement::Wram},
    {Function::Sin, Method::CordicFixed, Placement::Wram},
    // Block-lane shapes: a vectoring CORDIC body, a circular CORDIC+LUT
    // body, and a CORDIC-fixed body with tan's divide.
    {Function::Log, Method::Cordic, Placement::Wram},
    {Function::Tan, Method::CordicLut, Placement::Wram},
    {Function::Tan, Method::CordicFixed, Placement::Wram},
};

TEST(BatchEdgeCases, DegenerateSizesBitIdentical)
{
    for (const Combo& combo : kRepresentatives) {
        MethodSpec spec = smallSpec(combo.m, combo.p);
        ASSERT_TRUE(FunctionEvaluator::supports(combo.f, spec));
        Domain dom = functionDomain(combo.f);
        for (uint32_t n : {0u, 1u, 5u, 37u}) {
            std::vector<float> inputs = uniformFloats(
                n, static_cast<float>(dom.lo),
                static_cast<float>(dom.hi), 7 * n + 1);
            expectBatchMatchesScalar(combo.f, spec, inputs, 4);
        }
    }
}

TEST(BatchEdgeCases, NanAndInfLadenInputsBitIdentical)
{
    const float specials[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        0.0f,
        -0.0f,
        1e-42f, // subnormal
        -1e-42f,
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(),
        std::numeric_limits<float>::min(),
        1.5f,
        -2.25f,
        3.0e20f,
        -7.0e-20f,
    };
    std::vector<float> inputs;
    for (int rep = 0; rep < 5; ++rep)
        for (float s : specials)
            inputs.push_back(s);
    inputs.resize(67); // ragged, non-lane-multiple tail

    for (const Combo& combo : kRepresentatives) {
        MethodSpec spec = smallSpec(combo.m, combo.p);
        expectBatchMatchesScalar(combo.f, spec, inputs, 4);
    }
}

TEST(BatchEdgeCases, MramCordicKeepsPerElementDmaOrder)
{
    // An MRAM angle table has no view, so its batches stay in the
    // per-element lane: one DMA per step, in the scalar path's order.
    // Under DMA-data faults any other order would corrupt and stall
    // different reads.
    sim::fault::FaultPlan plan;
    plan.seed = 5;
    sim::fault::FaultSpec corrupt;
    corrupt.kind = sim::fault::FaultKind::DmaCorrupt;
    corrupt.probability = 0.02;
    plan.faults.push_back(corrupt);
    sim::fault::FaultSpec timeout;
    timeout.kind = sim::fault::FaultKind::DmaTimeout;
    timeout.probability = 0.02;
    timeout.extraStallCycles = 700;
    plan.faults.push_back(timeout);
    for (Function f : {Function::Sin, Function::Log}) {
        MethodSpec spec = smallSpec(Method::Cordic, Placement::Mram);
        Domain dom = functionDomain(f);
        std::vector<float> inputs = uniformFloats(
            193, static_cast<float>(dom.lo), static_cast<float>(dom.hi),
            31);
        std::string label = comboLabel(f, spec) + " under DMA faults";
        RunResult scalar = runStreaming(f, spec, inputs, 3, false, plan);
        RunResult batch = runStreaming(f, spec, inputs, 3, true, plan);
        EXPECT_GT(scalar.stats.faultEvents, 0u) << label;
        expectOutputsBitIdentical(scalar.outputs, batch.outputs, label);
        EXPECT_EQ(scalar.stats.dmaEngineCycles,
                  batch.stats.dmaEngineCycles) << label;
        EXPECT_EQ(scalar.stats.stallCycles, batch.stats.stallCycles)
            << label;
        EXPECT_EQ(scalar.stats.faultEvents, batch.stats.faultEvents)
            << label;
        expectStatsIdentical(scalar.stats, batch.stats, label);
    }
}

// ---------------------------------------------------------------------
// Fault-armed equivalence across simulation thread counts.
// ---------------------------------------------------------------------

struct FaultedRun
{
    std::vector<float> outputs;
    std::vector<LaunchStats> perDpu;
    sim::serve::ServeReport report;
};

/** A provider realizing every key as sin / L-LUT (MRAM) with one
 * evaluator copied into every core, whose kernel streams 32-element
 * chunks through the scalar (@p batch false) or batch body. */
sim::serve::TableProvider
faultedProvider(bool batch)
{
    return [batch](const sim::serve::TableKey&, PimSystem& sys) {
        auto ev = std::make_shared<FunctionEvaluator>(
            FunctionEvaluator::create(
                Function::Sin, smallSpec(Method::LLut, Placement::Mram)));
        for (uint32_t d = 0; d < sys.numDpus(); ++d)
            ev->attach(sys.dpu(d));
        sim::serve::TableBinding binding;
        binding.valid = true;
        binding.tableBytes = ev->memoryBytes();
        binding.state = ev;
        const FunctionEvaluator* evp = ev.get();
        binding.makeKernel =
            [evp, batch](const sim::ShardTask& t) -> sim::Kernel {
            return [evp, t, batch](TaskletContext& ctx) {
                constexpr uint32_t chunkElems = 32;
                float buf[chunkElems];
                uint32_t chunks =
                    (t.elements + chunkElems - 1) / chunkElems;
                for (uint32_t c = ctx.taskletId(); c < chunks;
                     c += ctx.numTasklets()) {
                    uint32_t beg = c * chunkElems;
                    uint32_t cnt =
                        std::min(chunkElems, t.elements - beg);
                    ctx.mramRead(t.inAddr + beg * sizeof(float), buf,
                                 cnt * sizeof(float));
                    if (batch) {
                        ctx.chargeClassN(InstrClass::IntAlu, 4, cnt);
                        std::span<float> s(buf, cnt);
                        evp->evalBatch(s, s, &ctx);
                    } else {
                        for (uint32_t i = 0; i < cnt; ++i) {
                            ctx.charge(4);
                            buf[i] = evp->eval(buf[i], &ctx);
                        }
                    }
                    ctx.mramWrite(t.outAddr + beg * sizeof(float),
                                  buf, cnt * sizeof(float));
                }
            };
        };
        return binding;
    };
}

FaultedRun
runFaultedServe(bool batch, uint32_t threads)
{
    constexpr uint32_t kDpus = 8;
    constexpr uint32_t kPerDpu = 512;
    constexpr uint64_t kTotal = kDpus * kPerDpu;

    Domain dom = functionDomain(Function::Sin);
    std::vector<float> inputs = uniformFloats(
        kTotal, static_cast<float>(dom.lo),
        static_cast<float>(dom.hi), 4242);

    PimSystem sys(kDpus);
    sys.setSimThreads(threads);

    sim::fault::FaultPlan plan;
    plan.seed = 99;
    sim::fault::FaultSpec flip;
    flip.kind = sim::fault::FaultKind::MramBitFlip;
    flip.dpu = 1;
    flip.addr = 512;
    flip.bit = 3;
    flip.triggerAfter = 0;
    plan.faults.push_back(flip);
    sim::fault::FaultSpec straggler;
    straggler.kind = sim::fault::FaultKind::DpuStraggler;
    straggler.dpu = -1;
    straggler.probability = 0.5;
    straggler.slowdown = 3.0;
    plan.faults.push_back(straggler);
    sim::fault::FaultSpec timeout;
    timeout.kind = sim::fault::FaultKind::DmaTimeout;
    timeout.dpu = -1;
    timeout.probability = 0.1;
    timeout.extraStallCycles = 2000;
    plan.faults.push_back(timeout);
    sys.armFaults(plan);

    FaultedRun r;
    r.outputs.assign(kTotal, 0.0f);
    sim::serve::BatchQueue queue;
    sim::serve::Request req;
    req.table.hash = 1;
    req.table.label = "sin";
    req.input = inputs.data();
    req.output = r.outputs.data();
    req.elements = kTotal;
    queue.push(req);
    queue.close();

    sim::serve::PipelineOptions popts;
    popts.numTasklets = 4;
    popts.perDpuElements = kPerDpu;
    sim::serve::ServePipeline pipeline(sys, faultedProvider(batch),
                                       popts);
    r.report = pipeline.run(queue);
    for (uint32_t d = 0; d < kDpus; ++d)
        r.perDpu.push_back(sys.dpu(d).lastLaunch());
    return r;
}

/** Same outputs, per-DPU stats and modeled report, bit for bit. */
void
expectFaultedRunsIdentical(const FaultedRun& a, const FaultedRun& b,
                           const std::string& label)
{
    expectOutputsBitIdentical(a.outputs, b.outputs, label);
    ASSERT_EQ(a.perDpu.size(), b.perDpu.size()) << label;
    for (size_t d = 0; d < a.perDpu.size(); ++d)
        expectStatsIdentical(a.perDpu[d], b.perDpu[d],
                             label + " dpu " + std::to_string(d));
    EXPECT_EQ(a.report.complete, b.report.complete) << label;
    EXPECT_EQ(a.report.waves, b.report.waves) << label;
    EXPECT_EQ(a.report.modeledSeconds, b.report.modeledSeconds)
        << label;
    EXPECT_EQ(a.report.syncSeconds, b.report.syncSeconds) << label;
    EXPECT_EQ(a.report.computeCycles, b.report.computeCycles) << label;
    EXPECT_EQ(a.report.failedDpus, b.report.failedDpus) << label;
    EXPECT_EQ(a.report.reshardedElements, b.report.reshardedElements)
        << label;
}

TEST(BatchFaultEquivalence, ArmedPlanAtAnyThreadCount)
{
    FaultedRun scalarRef = runFaultedServe(false, 1);
    ASSERT_TRUE(scalarRef.report.complete);
    for (uint32_t threads : {1u, 4u, 16u}) {
        std::string label =
            "threads=" + std::to_string(threads);
        FaultedRun scalar = runFaultedServe(false, threads);
        FaultedRun batch = runFaultedServe(true, threads);

        // Batch vs scalar at this thread count.
        expectFaultedRunsIdentical(scalar, batch, label);

        // Thread-count determinism of both paths.
        expectFaultedRunsIdentical(scalarRef, scalar,
                                   label + " vs single-thread");
        expectFaultedRunsIdentical(scalarRef, batch,
                                   label + " batch vs single-thread");
    }
}

// ---------------------------------------------------------------------
// Batched softfloat entry points: value + charge differentials.
// ---------------------------------------------------------------------

/** Class- and op-partitioned counting sink. */
class ClassSink : public InstrSink
{
  public:
    void charge(uint32_t n) override
    {
        chargeClass(InstrClass::IntAlu, n);
    }

    void chargeClass(InstrClass cls, uint32_t n) override
    {
        cls_[static_cast<int>(cls)] += n;
    }

    void note(OpClass op) override { ++ops_[static_cast<int>(op)]; }

    void chargeClassN(InstrClass cls, uint32_t perElem,
                      uint64_t n) override
    {
        cls_[static_cast<int>(cls)] +=
            static_cast<uint64_t>(perElem) * n;
    }

    void noteN(OpClass op, uint64_t n) override
    {
        ops_[static_cast<int>(op)] += n;
    }

    std::array<uint64_t, numInstrClasses> cls_{};
    std::array<uint64_t, numOpClasses> ops_{};
};

void
expectSinksEqual(const ClassSink& a, const ClassSink& b,
                 const std::string& label)
{
    for (int c = 0; c < numInstrClasses; ++c)
        EXPECT_EQ(a.cls_[c], b.cls_[c])
            << label << " class "
            << instrClassName(static_cast<InstrClass>(c));
    for (int o = 0; o < numOpClasses; ++o)
        EXPECT_EQ(a.ops_[o], b.ops_[o])
            << label << " op " << opClassSlug(static_cast<OpClass>(o));
}

/** Deterministic 32-bit pattern stream (xorshift), specials mixed in. */
std::vector<uint32_t>
bitPatterns32(size_t n, uint32_t seed)
{
    std::vector<uint32_t> v(n);
    uint32_t x = seed | 1u;
    for (size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        v[i] = x;
    }
    const uint32_t specials[] = {
        0x7fc00000u, 0x7f800000u, 0xff800000u, 0x00000000u,
        0x80000000u, 0x00000001u, 0x7f7fffffu, 0x00800000u,
    };
    for (size_t i = 0; i < std::min(v.size(), sizeof(specials) / 4);
         ++i)
        v[i] = specials[i];
    return v;
}

TEST(SoftfloatBatch, Binary32OpsMatchScalarBitwiseAndInCharges)
{
    // 1031: prime, so never a multiple of any SIMD lane width.
    const size_t n = 1031;
    std::vector<uint32_t> pa = bitPatterns32(n, 17);
    std::vector<uint32_t> pb = bitPatterns32(n, 29);
    std::vector<float> a(n), b(n);
    std::memcpy(a.data(), pa.data(), n * 4);
    std::memcpy(b.data(), pb.data(), n * 4);

    struct Op
    {
        const char* name;
        float (*scalar)(float, float, InstrSink*);
        void (*batchFn)(std::span<const float>,
                        std::span<const float>, std::span<float>,
                        InstrSink*);
    };
    const Op ops[] = {
        {"add", &sf::add, &sf::addN},
        {"mul", &sf::mul, &sf::mulN},
    };
    for (const Op& op : ops) {
        ClassSink ss, bs;
        std::vector<float> want(n), got(n);
        for (size_t i = 0; i < n; ++i)
            want[i] = op.scalar(a[i], b[i], &ss);
        op.batchFn(a, b, got, &bs);
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * 4))
            << op.name;
        expectSinksEqual(ss, bs, op.name);
    }

    // Aliasing: out == a must behave like the scalar in-place update.
    {
        std::vector<float> inPlace = a;
        std::vector<float> want(n);
        for (size_t i = 0; i < n; ++i)
            want[i] = sf::add(a[i], b[i], nullptr);
        sf::addN(inPlace, b, inPlace, nullptr);
        EXPECT_EQ(0, std::memcmp(want.data(), inPlace.data(), n * 4));
    }
}

// ---------------------------------------------------------------------
// BatchStats plumbing.
// ---------------------------------------------------------------------

TEST(BatchStatsApi, AccumulatesElementsAndMirrorsSinkTotals)
{
    MethodSpec spec = smallSpec(Method::LLut, Placement::Wram);
    FunctionEvaluator ev =
        FunctionEvaluator::create(Function::Sin, spec);

    std::vector<float> in = uniformFloats(100, 0.0f, 6.28f, 5);
    std::vector<float> out(100);

    ClassSink sink;
    BatchStats stats;
    ev.evalBatch(std::span<const float>(in),
                 std::span<float>(out), &sink, &stats);
    const uint64_t onePassInstructions = stats.totalInstructions();
    ev.evalBatch(std::span<const float>(in).subspan(0, 28),
                 std::span<float>(out).subspan(0, 28), &sink, &stats);

    EXPECT_EQ(128u, stats.elements);
    uint64_t sinkTotal = 0;
    for (int c = 0; c < numInstrClasses; ++c) {
        EXPECT_EQ(stats.classInstructions[c], sink.cls_[c])
            << instrClassName(static_cast<InstrClass>(c));
        sinkTotal += sink.cls_[c];
    }
    EXPECT_EQ(sinkTotal, stats.totalInstructions());
    for (int o = 0; o < numOpClasses; ++o)
        EXPECT_EQ(stats.opCounts[o], sink.ops_[o])
            << opClassSlug(static_cast<OpClass>(o));

    // The stats-only overload charges exactly like the sink overload.
    BatchStats again;
    ev.evalBatch(std::span<const float>(in), std::span<float>(out),
                 again);
    EXPECT_EQ(100u, again.elements);
    EXPECT_EQ(onePassInstructions, again.totalInstructions());
}

// ---------------------------------------------------------------------
// Engine fast-value lanes: the CORDIC loops under BatchSink against the
// emulated SinkRef lane, call by call.
// ---------------------------------------------------------------------

/** One lane's results: output bits and the sink totals after each call. */
struct LaneRun
{
    std::vector<uint32_t> bits;
    std::vector<std::array<uint64_t, numInstrClasses>> classes;
    std::vector<std::array<uint64_t, numOpClasses>> ops;
    std::vector<uint64_t> stalls;
    LaunchStats stats;
};

/**
 * Run @p call(i, sink, bits) for i in [0, n) inside a one-tasklet
 * launch on @p core: through SinkRef (the emulated lane) or through a
 * BatchSink flushed after every call (the fast-value lane).
 */
template <class Call>
LaneRun
runLane(DpuCore& core, size_t n, bool fast, const Call& call)
{
    LaneRun r;
    r.stats = core.launch(1, [&](TaskletContext& ctx) {
        for (size_t i = 0; i < n; ++i) {
            if (fast) {
                BatchSink bs(&ctx);
                call(i, bs, r.bits);
                bs.flush();
            } else {
                SinkRef ref(&ctx);
                call(i, ref, r.bits);
            }
            r.classes.push_back(ctx.classInstructions());
            r.ops.push_back(ctx.opCounts());
            r.stalls.push_back(ctx.dmaStallCycles());
        }
    });
    return r;
}

/**
 * Both lanes of @p call must agree bit for bit and charge for charge:
 * inside a launch (TaskletContext: classes, notes, DMA stalls, the
 * whole LaunchStats) and on a plain counting sink (no DMA model).
 */
template <class Call>
void
expectLanesMatch(DpuCore& core, size_t n, const Call& call,
                 const std::string& label)
{
    LaneRun ref = runLane(core, n, false, call);
    LaneRun fast = runLane(core, n, true, call);
    ASSERT_EQ(ref.bits.size(), fast.bits.size()) << label;
    for (size_t i = 0; i < ref.bits.size(); ++i)
        EXPECT_EQ(ref.bits[i], fast.bits[i]) << label << " value " << i;
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref.classes[i], fast.classes[i]) << label << " call " << i;
        EXPECT_EQ(ref.ops[i], fast.ops[i]) << label << " call " << i;
        EXPECT_EQ(ref.stalls[i], fast.stalls[i]) << label << " call " << i;
    }
    expectStatsIdentical(ref.stats, fast.stats, label);

    ClassSink refSink;
    ClassSink fastSink;
    std::vector<uint32_t> refBits;
    std::vector<uint32_t> fastBits;
    for (size_t i = 0; i < n; ++i) {
        SinkRef r(&refSink);
        call(i, r, refBits);
        BatchSink bs(&fastSink);
        call(i, bs, fastBits);
        bs.flush();
    }
    EXPECT_EQ(refBits, fastBits) << label << " (counting sink)";
    expectSinksEqual(refSink, fastSink, label + " (counting sink)");
}

/**
 * Binary32 inputs that drive the loops' shifts through every pimLdexpT
 * branch: signed zeros, subnormals, values that underflow once shifted,
 * infinities and NaNs (canonical, negative and signalling), next to
 * ordinary in-range values.
 */
std::vector<float>
ldexpBranchFloats()
{
    const uint32_t bits[] = {
        0x00000000u, 0x80000000u, // +-0
        0x00000001u, 0x80400000u, // subnormals
        0x00800000u, 0x01000000u, // smallest normals: underflow
        0x7f800000u, 0xff800000u, // +-inf
        0x7fc00000u, 0xffc00001u, // quiet NaNs
        0x7f800001u,              // signalling NaN
    };
    std::vector<float> v;
    for (uint32_t b : bits)
        v.push_back(bitsToFloat(b));
    for (float f : {0.5f, -0.75f, 1.0f, -1.1f, 0.125f, 1e-30f, 3.0f})
        v.push_back(f);
    return v;
}

void
pushBits(std::vector<uint32_t>& out, const CordicVector& v)
{
    out.push_back(floatBits(v.x));
    out.push_back(floatBits(v.y));
    out.push_back(floatBits(v.z));
}

void
pushBits(std::vector<uint32_t>& out, const CordicFixedVector& v)
{
    out.push_back(static_cast<uint32_t>(v.x.raw()));
    out.push_back(static_cast<uint32_t>(v.y.raw()));
    out.push_back(static_cast<uint32_t>(v.z.raw()));
}

std::string
laneLabel(const char* engine, CordicMode mode, uint32_t iterations,
          Placement p)
{
    return std::string(engine) +
           (mode == CordicMode::Circular ? " circular" : " hyperbolic") +
           " n=" + std::to_string(iterations) + " " + placementName(p);
}

constexpr uint32_t kLaneIterations[] = {1, 16, 24, 40};
constexpr Placement kLanePlacements[] = {Placement::Host,
                                         Placement::Wram,
                                         Placement::Mram};
constexpr CordicMode kLaneModes[] = {CordicMode::Circular,
                                     CordicMode::Hyperbolic};

TEST(BatchFastLane, FloatEngineMatchesEmulatedLane)
{
    const std::vector<float> in = ldexpBranchFloats();
    const size_t n = in.size();
    for (CordicMode mode : kLaneModes)
        for (uint32_t iters : kLaneIterations)
            for (Placement p : kLanePlacements) {
                CordicEngine eng(mode, iters, p);
                DpuCore core;
                if (p != Placement::Host)
                    eng.attach(core);
                std::string label = laneLabel("float", mode, iters, p);
                expectLanesMatch(
                    core, n,
                    [&](size_t i, auto& sink, std::vector<uint32_t>& out) {
                        pushBits(out, eng.rotateT(in[i], sink));
                    },
                    label + " rotate");
                // Every (x0, y0) pair: the first steps shift the raw
                // inputs themselves.
                expectLanesMatch(
                    core, n * n,
                    [&](size_t i, auto& sink, std::vector<uint32_t>& out) {
                        pushBits(out, eng.vectorT(in[i / n], in[i % n],
                                                  sink));
                    },
                    label + " vector");
            }
}

/** Q3.28 raws: zero, +-1 ulp, in-range angles and the extremes (which
 * only wrap, identically in every lane). */
std::vector<int32_t>
fixedLaneRaws()
{
    return {
        0, 1, -1, Fixed::fromDouble(0.5).raw(),
        Fixed::fromDouble(-0.7).raw(), Fixed::fromDouble(1.5).raw(),
        Fixed::fromDouble(1.1).raw(), Fixed::fromDouble(-1.1).raw(),
        std::numeric_limits<int32_t>::max(),
        std::numeric_limits<int32_t>::min(),
    };
}

TEST(BatchFastLane, FixedEngineMatchesEmulatedLane)
{
    const std::vector<int32_t> raws = fixedLaneRaws();
    const size_t n = raws.size();
    for (CordicMode mode : kLaneModes)
        for (uint32_t iters : kLaneIterations)
            for (Placement p : kLanePlacements) {
                CordicFixedEngine eng(mode, iters, p);
                DpuCore core;
                if (p != Placement::Host)
                    eng.attach(core);
                std::string label = laneLabel("fixed", mode, iters, p);
                expectLanesMatch(
                    core, n,
                    [&](size_t i, auto& sink, std::vector<uint32_t>& out) {
                        pushBits(out, eng.rotateT(Fixed::fromRaw(raws[i]),
                                                  sink));
                    },
                    label + " rotate");
                expectLanesMatch(
                    core, n * n,
                    [&](size_t i, auto& sink, std::vector<uint32_t>& out) {
                        pushBits(out,
                                 eng.vectorT(Fixed::fromRaw(raws[i / n]),
                                             Fixed::fromRaw(raws[i % n]),
                                             sink));
                    },
                    label + " vector");
            }
}

// ---------------------------------------------------------------------
// Engine block lanes: a block of start vectors stepped through each
// iteration together against the per-element fast-value lane.
// ---------------------------------------------------------------------

/**
 * What the batch path does with a staged body, at engine level: the
 * start vectors of @p in in blocks of four vectors, then of one
 * vector, through the engine's block lane when @p block is set, and
 * the rest per element (rotateT/vectorT).
 */
template <class Engine, class In>
void
runEngineBatch(const Engine& eng, std::span<const In> in, bool block,
               BatchSink& sink, std::vector<uint32_t>& bits)
{
    size_t i = 0;
    auto blocks = [&]<int Vectors>() {
        constexpr size_t n = Vectors * sf::simdLanes;
        for (; in.size() - i >= n; i += n) {
            typename Engine::Result v[n]{};
            for (size_t j = 0; j < n; ++j)
                v[j] = eng.startT(in[i + j], sink);
            eng.template iterateBlockT<In::vectoring, Vectors>(
                eng.angleViewT(sink), v, sink);
            for (const auto& r : v)
                pushBits(bits, r);
        }
    };
    if (block) {
        blocks.template operator()<4>();
        blocks.template operator()<1>();
    }
    for (; i < in.size(); ++i) {
        if constexpr (In::vectoring)
            pushBits(bits, eng.vectorT(in[i].x0, in[i].y0, sink));
        else
            pushBits(bits, eng.rotateT(in[i].z0, sink));
    }
}

/**
 * @p in through runEngineBatch in groups of @p fill elements, each
 * group with its own BatchSink flushed after it, inside a one-tasklet
 * launch on @p core: the block lane must match the per-element lane
 * in every value, in the tasklet's charge and note totals after every
 * group, and in the whole LaunchStats.
 */
template <class Engine, class In>
void
expectBlockLaneMatches(DpuCore& core, const Engine& eng,
                       const std::vector<In>& in, size_t fill,
                       const std::string& label)
{
    auto run = [&](bool block) {
        LaneRun r;
        r.stats = core.launch(1, [&](TaskletContext& ctx) {
            for (size_t g = 0; g < in.size(); g += fill) {
                BatchSink bs(&ctx);
                runEngineBatch(eng,
                               std::span<const In>(in).subspan(
                                   g, std::min(fill, in.size() - g)),
                               block, bs, r.bits);
                bs.flush();
                r.classes.push_back(ctx.classInstructions());
                r.ops.push_back(ctx.opCounts());
            }
        });
        return r;
    };
    LaneRun ref = run(false);
    LaneRun blk = run(true);
    EXPECT_EQ(ref.bits, blk.bits) << label;
    EXPECT_EQ(ref.classes, blk.classes) << label;
    EXPECT_EQ(ref.ops, blk.ops) << label;
    expectStatsIdentical(ref.stats, blk.stats, label);
}

/** kLaneIterations, an empty schedule (the start vector comes back
 * untouched, NaN payloads included) and a hyperbolic schedule that
 * passes shift 255, where `shift << 23` no longer fits the exponent
 * field. */
constexpr uint32_t kBlockIterations[] = {0, 1, 16, 24, 40, 300};

/** Every block fill from 1 to 4W+1 elements: each remainder after
 * blocks of four vectors and of one. */
constexpr size_t kMaxBlockFill = 4 * sf::simdLanes + 1;

TEST(BatchFastLane, FloatBlockLaneMatchesPerElementLane)
{
    const std::vector<float> in = ldexpBranchFloats();
    std::vector<CordicRotation<float>> rot;
    std::vector<CordicVectoring<float>> vec;
    for (float a : in) {
        rot.push_back({a});
        for (float b : in)
            vec.push_back({a, b});
    }
    for (CordicMode mode : kLaneModes)
        for (uint32_t iters : kBlockIterations)
            for (Placement p : {Placement::Host, Placement::Wram}) {
                CordicEngine eng(mode, iters, p);
                DpuCore core;
                if (p != Placement::Host)
                    eng.attach(core);
                std::string label = laneLabel("float", mode, iters, p);
                for (size_t fill = 1; fill <= kMaxBlockFill; ++fill) {
                    std::string at = " fill " + std::to_string(fill);
                    expectBlockLaneMatches(core, eng, rot, fill,
                                           label + " rotate" + at);
                    expectBlockLaneMatches(core, eng, vec, fill,
                                           label + " vector" + at);
                }
            }
}

TEST(BatchFastLane, FixedBlockLaneMatchesPerElementLane)
{
    const std::vector<int32_t> raws = fixedLaneRaws();
    std::vector<CordicRotation<Fixed>> rot;
    std::vector<CordicVectoring<Fixed>> vec;
    for (int32_t a : raws) {
        rot.push_back({Fixed::fromRaw(a)});
        for (int32_t b : raws)
            vec.push_back({Fixed::fromRaw(a), Fixed::fromRaw(b)});
    }
    for (CordicMode mode : kLaneModes)
        for (uint32_t iters : kBlockIterations)
            for (Placement p : {Placement::Host, Placement::Wram}) {
                CordicFixedEngine eng(mode, iters, p);
                DpuCore core;
                if (p != Placement::Host)
                    eng.attach(core);
                std::string label = laneLabel("fixed", mode, iters, p);
                for (size_t fill = 1; fill <= kMaxBlockFill; ++fill) {
                    std::string at = " fill " + std::to_string(fill);
                    expectBlockLaneMatches(core, eng, rot, fill,
                                           label + " rotate" + at);
                    expectBlockLaneMatches(core, eng, vec, fill,
                                           label + " vector" + at);
                }
            }
}

// ---------------------------------------------------------------------
// The polynomial CNDF body's block lane (Cndf, Gelu, Erf) against the
// per-element lane.
// ---------------------------------------------------------------------

/**
 * Inputs that take every exit of the CNDF block lane, after a run of
 * ordinary ones (so the first blocks stay in the lane): +-0,
 * subnormals, +-inf and NaN payloads, whose multiplies take
 * mulIntCharge's unpack path; x so small that x^2 is subnormal, zero
 * or halves through ldexp's underflow path; |x| where exp(-x^2/2)
 * (or, for erf, exp(-x^2)) underflows through ldexp's subnormal path
 * and then to zero, and, just below those, |x| where exp(-x^2/2) is
 * normal but phi or the tail product is subnormal (a multiply
 * operand on the unpack path); |x| whose floor(-x^2/2 * log2 e)
 * leaves the exact conversion range, and whose square overflows.
 * Signs alternate, so negative lanes take the sign fix-up.
 */
std::vector<float>
cndfLaneFloats()
{
    std::vector<float> v;
    SplitMix64 rng(27);
    for (int i = 0; i < 40; ++i) {
        float x = static_cast<float>(
            -8.0 + 16.0 * static_cast<double>(rng.next() >> 11) * 0x1p-53);
        v.push_back(x);
    }
    for (float x : {0.5f, -1.0f, 2.0f, -0.25f})
        v.push_back(x); // all-zero low mantissa bytes
    const uint32_t specials[] = {
        0x00000000u, 0x80000000u, // +-0
        0x00000001u, 0x80400000u, // subnormals
        0x7f800000u, 0xff800000u, // +-inf
        0x7fc00000u, 0xffc00001u, // quiet NaNs
        0x7f800001u,              // signalling NaN
    };
    for (uint32_t b : specials) {
        v.push_back(bitsToFloat(b));
        v.push_back(-0.75f);
    }
    for (float x : {1e-30f, 1e-20f, 1.1e-19f, 9.5f, 10.0f, 10.5f, 13.5f,
                    14.0f, 14.6f, 20.0f, 4e3f, 1e19f, 2e19f, 3e38f}) {
        v.push_back(x);
        v.push_back(-x);
        v.push_back(1.5f);
    }
    // exp(-x^2/2) from 2^-121 down to 2^-126 (for erf, x/sqrt 2).
    for (float lo : {12.95f, 12.95f / 1.41421356f})
        for (int i = 0; i < 24; ++i) {
            v.push_back((i % 2 ? -1.0f : 1.0f) * lo * (1.0f + 0.0009f * i));
            v.push_back(0.3f);
        }
    return v;
}

TEST(BatchFastLane, PolyBlockLaneMatchesPerElementLane)
{
    const std::vector<float> in = cndfLaneFloats();
    for (uint32_t degree : {7u, 11u})
        for (Function f : {Function::Cndf, Function::Gelu, Function::Erf}) {
            MethodSpec spec;
            spec.method = Method::Poly;
            spec.polyDegree = degree;
            FunctionEvaluator ev = FunctionEvaluator::create(f, spec);
            DpuCore core;
            // Groups of fill elements, each one evalBatch call (block
            // lane for a fill of one vector or more) or one call per
            // element (always the per-element lane).
            auto run = [&](size_t fill, bool block) {
                LaneRun r;
                r.stats = core.launch(1, [&](TaskletContext& ctx) {
                    for (size_t g = 0; g < in.size(); g += fill) {
                        const size_t m = std::min(fill, in.size() - g);
                        std::span<const float> group =
                            std::span<const float>(in).subspan(g, m);
                        std::vector<float> out(m);
                        if (block) {
                            ev.evalBatch(group, out, &ctx);
                        } else {
                            for (size_t j = 0; j < m; ++j)
                                ev.evalBatch(group.subspan(j, 1),
                                             std::span(out).subspan(j, 1),
                                             &ctx);
                        }
                        for (float y : out)
                            r.bits.push_back(floatBits(y));
                        r.classes.push_back(ctx.classInstructions());
                        r.ops.push_back(ctx.opCounts());
                    }
                });
                return r;
            };
            for (size_t fill = 1; fill <= kMaxBlockFill; ++fill) {
                std::string label = std::string(functionName(f)) +
                                    " degree " + std::to_string(degree) +
                                    " fill " + std::to_string(fill);
                LaneRun ref = run(fill, false);
                LaneRun blk = run(fill, true);
                EXPECT_EQ(ref.bits, blk.bits) << label;
                EXPECT_EQ(ref.classes, blk.classes) << label;
                EXPECT_EQ(ref.ops, blk.ops) << label;
                expectStatsIdentical(ref.stats, blk.stats, label);
            }
        }
}

TEST(BatchFastLane, PolyBlockLaneTakesOrdinaryBlocksOnly)
{
    // The lock above holds as well when every block falls back; this
    // one shows that a block of ordinary inputs stays in the lane, with
    // the per-element lane's values and tally, and that one special
    // lane sends its block back untouched.
    const PolyCndf cndf{
        PolyExp{std::make_shared<Polynomial>(expTaylor(11))},
        std::make_shared<Polynomial>(cndfTail())};
    constexpr int n = 4 * sf::simdLanes;
    float in[n];
    for (int j = 0; j < n; ++j)
        in[j] = (j % 2 ? -1.0f : 1.0f) * (0.37f + 0.29f * j);
    BatchSink ref(nullptr);
    std::vector<uint32_t> want;
    for (float x : in)
        want.push_back(floatBits(cndf(x, ref)));
    BatchSink lane(nullptr);
    float out[n];
    ASSERT_TRUE(cndf.block<4>(in, out, lane));
    for (int j = 0; j < n; ++j)
        EXPECT_EQ(want[j], floatBits(out[j])) << "element " << j;
    EXPECT_EQ(ref.tally().classInstructions(),
              lane.tally().classInstructions());
    EXPECT_EQ(ref.tally().opCounts(), lane.tally().opCounts());

    for (float special : {0.0f, -0.0f, 1e-30f, 20.0f,
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
        float mixed[n];
        std::copy(in, in + n, mixed);
        mixed[n / 2 + 1] = special;
        BatchSink untouched(nullptr);
        float kept[n] = {};
        EXPECT_FALSE(cndf.block<4>(mixed, kept, untouched)) << special;
        EXPECT_EQ(0u, untouched.tally().totalInstructions()) << special;
        for (float y : kept)
            EXPECT_EQ(0u, floatBits(y)) << special;
    }
}

/** emuMul32T's row count for one binary32 operand, through unpack(). */
uint32_t
unpackedRows(uint32_t bits)
{
    return emu::nonZeroBytes(sf::core::unpack(bits).sig >> 7);
}

TEST(BatchFastLane, MulIntChargeClosedFormMatchesUnpack)
{
    // Every exponent class (zero/subnormal, smallest and ordinary
    // normals, largest normal, inf/NaN) crossed with every zero/
    // non-zero pattern of the mantissa's top bits and low two bytes.
    std::vector<uint32_t> operands;
    for (uint32_t exp : {0u, 1u, 2u, 127u, 254u, 255u})
        for (uint32_t top : {0u, 0x7f0000u})
            for (uint32_t byte1 : {0u, 0x5a00u})
                for (uint32_t byte0 : {0u, 0x01u})
                    for (uint32_t sign : {0u, 0x80000000u})
                        operands.push_back(sign | exp << 23 | top |
                                           byte1 | byte0);
    for (uint32_t a : operands) {
        for (uint32_t b : operands) {
            sf::core::Unpacked ua = sf::core::unpack(a);
            sf::core::Unpacked ub = sf::core::unpack(b);
            uint32_t want = 0;
            if (!(ua.isNan || ub.isNan || ua.isInf || ub.isInf ||
                  ua.isZero || ub.isZero))
                want = emu::mulBaseCost +
                       std::min(unpackedRows(a), unpackedRows(b)) *
                           emu::mulRowCost;
            EXPECT_EQ(want, sf::core::mulIntCharge(a, b))
                << std::hex << a << " * " << b;

            // ... which is what the emulated multiply charges.
            ClassSink emulated;
            SinkRef ref(&emulated);
            sf::mulT(bitsToFloat(a), bitsToFloat(b), ref);
            EXPECT_EQ(want, emulated.cls_[static_cast<int>(
                                InstrClass::IntMulDiv)])
                << std::hex << a << " * " << b;

            // The lane form gives it in every lane with two normal
            // operands and marks every other lane slow.
            sf::VBits va = {};
            sf::VBits vb = {};
            for (int l = 0; l < sf::simdLanes; ++l) {
                va[l] = l % 2 ? a : 0x3f800000u;
                vb[l] = l % 2 ? b : 0x3fa5a5a5u;
            }
            sf::VBits slow = {};
            const sf::VBits lane = sf::mulIntChargeLanes(va, vb, slow);
            const bool normal = (a >> 23 & 0xffu) - 1u < 0xfeu &&
                                (b >> 23 & 0xffu) - 1u < 0xfeu;
            for (int l = 1; l < sf::simdLanes; l += 2) {
                EXPECT_EQ(!normal, slow[l] != 0)
                    << std::hex << a << " * " << b;
                if (normal) {
                    EXPECT_EQ(want, lane[l])
                        << std::hex << a << " * " << b;
                }
            }
            for (int l = 0; l < sf::simdLanes; l += 2) {
                EXPECT_EQ(0u, slow[l]);
                EXPECT_EQ(sf::core::mulIntCharge(va[l], vb[l]), lane[l]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The vector lane's ops one at a time against the emulated scalar
// cores, so each op is locked on its own and not only through the
// bodies built on it.
// ---------------------------------------------------------------------

/** The vector lane the op checks run in. */
using OpLane = sf::VecLane<sf::simdLanes>;

/** @p bits, sf::simdLanes of them, as one lane value of type T. */
template <class T>
T
laneValue(const uint32_t* bits)
{
    static_assert(sizeof(T) == sf::simdLanes * sizeof(uint32_t));
    T v;
    std::memcpy(&v, bits, sizeof v);
    return v;
}

/** The sf::simdLanes lanes of @p v, as bits, into @p out. */
template <class T>
void
laneBits(const T& v, uint32_t* out)
{
    static_assert(sizeof(T) == sf::simdLanes * sizeof(uint32_t));
    std::memcpy(out, &v, sizeof v);
}

/**
 * One vector-lane op and its emulated scalar core, both on operand
 * bits: a float op reads its operands as binary32, the conversion
 * from int32 and ldexp's exponent read theirs as int32.
 */
struct LaneOpCase
{
    const char* name;
    void (*lane)(const uint32_t* a, const uint32_t* b, uint32_t* out,
                 OpLane& t);
    uint32_t (*emulated)(uint32_t a, uint32_t b, SinkRef& sink);
};

float
asFloat(uint32_t bits)
{
    return bitsToFloat(bits);
}

int32_t
asInt(uint32_t bits)
{
    return static_cast<int32_t>(bits);
}

const LaneOpCase kLaneOps[] = {
    {"mul",
     [](const uint32_t* a, const uint32_t* b, uint32_t* out, OpLane& t) {
         laneBits(t.mul(laneValue<OpLane::Float>(a),
                        laneValue<OpLane::Float>(b)),
                  out);
     },
     [](uint32_t a, uint32_t b, SinkRef& s) {
         return floatBits(sf::mulT(asFloat(a), asFloat(b), s));
     }},
    {"add",
     [](const uint32_t* a, const uint32_t* b, uint32_t* out, OpLane& t) {
         laneBits(t.add(laneValue<OpLane::Float>(a),
                        laneValue<OpLane::Float>(b)),
                  out);
     },
     [](uint32_t a, uint32_t b, SinkRef& s) {
         return floatBits(sf::addT(asFloat(a), asFloat(b), s));
     }},
    {"sub",
     [](const uint32_t* a, const uint32_t* b, uint32_t* out, OpLane& t) {
         laneBits(t.sub(laneValue<OpLane::Float>(a),
                        laneValue<OpLane::Float>(b)),
                  out);
     },
     [](uint32_t a, uint32_t b, SinkRef& s) {
         return floatBits(sf::subT(asFloat(a), asFloat(b), s));
     }},
    {"div",
     [](const uint32_t* a, const uint32_t* b, uint32_t* out, OpLane& t) {
         laneBits(t.div(laneValue<OpLane::Float>(a),
                        laneValue<OpLane::Float>(b)),
                  out);
     },
     [](uint32_t a, uint32_t b, SinkRef& s) {
         return floatBits(sf::divT(asFloat(a), asFloat(b), s));
     }},
    {"neg",
     [](const uint32_t* a, const uint32_t*, uint32_t* out, OpLane& t) {
         laneBits(t.neg(laneValue<OpLane::Float>(a)), out);
     },
     [](uint32_t a, uint32_t, SinkRef& s) {
         return floatBits(sf::negT(asFloat(a), s));
     }},
    {"abs",
     [](const uint32_t* a, const uint32_t*, uint32_t* out, OpLane& t) {
         laneBits(t.abs(laneValue<OpLane::Float>(a)), out);
     },
     [](uint32_t a, uint32_t, SinkRef& s) {
         return floatBits(sf::absT(asFloat(a), s));
     }},
    {"toI32Floor",
     [](const uint32_t* a, const uint32_t*, uint32_t* out, OpLane& t) {
         laneBits(t.toI32Floor(laneValue<OpLane::Float>(a)), out);
     },
     [](uint32_t a, uint32_t, SinkRef& s) {
         return static_cast<uint32_t>(sf::toI32FloorT(asFloat(a), s));
     }},
    {"fromI32",
     [](const uint32_t* a, const uint32_t*, uint32_t* out, OpLane& t) {
         laneBits(t.fromI32(laneValue<OpLane::Int>(a)), out);
     },
     [](uint32_t a, uint32_t, SinkRef& s) {
         return floatBits(sf::fromI32T(asInt(a), s));
     }},
    {"ldexp",
     [](const uint32_t* a, const uint32_t* b, uint32_t* out, OpLane& t) {
         laneBits(t.ldexp(laneValue<OpLane::Float>(a),
                          laneValue<OpLane::Int>(b)),
                  out);
     },
     [](uint32_t a, uint32_t b, SinkRef& s) {
         return floatBits(pimLdexpT(asFloat(a), asInt(b), s));
     }},
};

/**
 * Operand bits for the op checks, from bitPatterns32 (@p seed): the
 * raw patterns, specials first, when @p ordinary is unset. Otherwise
 * the same patterns made ordinary for @p op: normal binary32
 * magnitudes in [2^-20, 2^24) for the float ops (so toI32Floor's too);
 * int32 values in [-2^24, 2^24] for fromI32; exponents in [-100, 100]
 * for ldexp's second operand, so no result leaves the normal range.
 */
std::vector<uint32_t>
laneOperands(const std::string& op, int operand, bool ordinary,
             uint32_t seed)
{
    std::vector<uint32_t> v = bitPatterns32(1031, seed);
    for (uint32_t& p : v) {
        const bool intOperand =
            op == "fromI32" || (op == "ldexp" && operand == 1);
        if (!ordinary) {
            // ldexp's raw exponents: up to +-512, past either end of
            // the normal range.
            if (op == "ldexp" && operand == 1)
                p = static_cast<uint32_t>(static_cast<int32_t>(p) >> 22);
            continue;
        }
        if (op == "ldexp" && operand == 1)
            p = static_cast<uint32_t>(static_cast<int32_t>(p % 201) - 100);
        else if (intOperand)
            p = static_cast<uint32_t>(static_cast<int32_t>(p % (1u << 25)) -
                                      (1 << 24) + 1);
        else
            p = (p & 0x807fffffu) | (127u - 20u + p % 44u) << 23;
    }
    return v;
}

TEST(LaneOps, EveryVectorOpMatchesEmulatedCore)
{
    constexpr size_t lanes = sf::simdLanes;
    for (const LaneOpCase& op : kLaneOps)
        for (bool ordinary : {false, true}) {
            const std::string label =
                std::string(op.name) + (ordinary ? " ordinary" : " raw");
            const std::vector<uint32_t> a =
                laneOperands(op.name, 0, ordinary, 17);
            const std::vector<uint32_t> b =
                laneOperands(op.name, 1, ordinary, 29);
            size_t fastVectors = 0;
            for (size_t i = 0; i + lanes <= a.size(); i += lanes) {
                OpLane t;
                uint32_t got[lanes];
                op.lane(&a[i], &b[i], got, t);
                uint32_t slow[lanes];
                laneBits(t.slow, slow);
                ClassSink want;
                SinkRef ref(&want);
                bool anySlow = false;
                for (size_t l = 0; l < lanes; ++l) {
                    const uint32_t bits = op.emulated(a[i + l], b[i + l], ref);
                    anySlow |= slow[l] != 0;
                    if (!slow[l]) {
                        EXPECT_EQ(bits, got[l])
                            << label << std::hex << " lane " << a[i + l]
                            << ", " << b[i + l];
                    }
                }
                // Ordinary operands never leave the lane.
                if (ordinary) {
                    EXPECT_FALSE(anySlow) << label << " vector " << i;
                }
                if (anySlow)
                    continue;
                ++fastVectors;
                ClassSink counted;
                BatchSink bs(&counted);
                t.addTo(bs);
                bs.flush();
                expectSinksEqual(want, counted,
                                 label + " vector " + std::to_string(i));
            }
            if (ordinary) {
                EXPECT_EQ(a.size() / lanes, fastVectors) << label;
            }
        }
}

// ---------------------------------------------------------------------
// Hostile trace specs through the serve path: a spec that cannot bind
// drops its request instead of aborting, and a valid one serves.
// ---------------------------------------------------------------------

/** Serve the one request of trace line @p line on a 4-DPU system. */
sim::serve::ServeReport
serveTraceLine(const std::string& line, std::vector<float>& out)
{
    TraceRequest req;
    std::string error;
    EXPECT_TRUE(parseTraceLine(line, req, error)) << error;
    PimSystem sys(4);
    sys.setSimThreads(1);
    EvaluatorCatalog catalog;
    Domain dom = functionDomain(req.function);
    std::vector<float> in = uniformFloats(
        req.elements, static_cast<float>(dom.lo),
        static_cast<float>(dom.hi), 11);
    out.assign(req.elements, 0.0f);
    sim::serve::BatchQueue queue;
    sim::serve::Request q;
    q.table = catalog.add(req.function, req.spec);
    q.input = in.data();
    q.output = out.data();
    q.elements = req.elements;
    queue.push(q);
    queue.close();
    sim::serve::PipelineOptions popts;
    popts.perDpuElements = 32;
    sim::serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    return pipeline.run(queue);
}

TEST(BatchHostileSpec, TableBeyondAddressSpaceDrops)
{
    // 2^31 L-LUT entries over [0, 2pi) is 6.7 GB of floats: refused
    // before the host copy is built, not wrapped to a tiny image.
    std::vector<float> out;
    sim::serve::ServeReport rep = serveTraceLine(
        "request function=sin method=llut log2-entries=31 elements=64",
        out);
    EXPECT_FALSE(rep.complete);
    EXPECT_EQ(64u, rep.infeasibleElements);
    EXPECT_THROW(LutStore<float>::checkSize(1u << 30), std::bad_alloc);
    EXPECT_EQ(0x3ffffffeu, LutStore<float>::checkSize(0x3ffffffeu));
}

TEST(BatchHostileSpec, EmptyTableSpecDrops)
{
    for (const char* line :
         {"request function=sin method=llut log2-entries=0 elements=64",
          "request function=sin method=dllut log2-entries=0 elements=64",
          "request function=sin method=llut log2-entries=32 elements=64"}) {
        std::vector<float> out;
        sim::serve::ServeReport rep = serveTraceLine(line, out);
        EXPECT_FALSE(rep.complete) << line;
        EXPECT_EQ(64u, rep.infeasibleElements) << line;
    }
}

TEST(BatchHostileSpec, WideFixedCordicScheduleServes)
{
    // 40 iterations reach shift 39; the request is valid and serves.
    std::vector<float> out;
    sim::serve::ServeReport rep = serveTraceLine(
        "request function=sin method=cordic-fixed elements=64 "
        "iterations=40",
        out);
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(0u, rep.infeasibleElements);
    Domain dom = functionDomain(Function::Sin);
    std::vector<float> in = uniformFloats(
        64, static_cast<float>(dom.lo), static_cast<float>(dom.hi), 11);
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_NEAR(out[i], std::sin(in[i]), 1e-6) << in[i];
}

TEST(BatchTableKey, CordicPlacementNamedInLabel)
{
    // CORDIC keeps its arctan tables at a placement, so two keys that
    // differ only there must read apart in journals and reports.
    for (Method m : {Method::Cordic, Method::CordicFixed}) {
        MethodSpec wram, mram;
        wram.method = mram.method = m;
        wram.placement = Placement::Wram;
        mram.placement = Placement::Mram;
        const sim::serve::TableKey a = batchTableKey(Function::Tanh, wram);
        const sim::serve::TableKey b = batchTableKey(Function::Tanh, mram);
        EXPECT_NE(a.hash, b.hash);
        EXPECT_NE(a.label, b.label);
        const std::string name = "tanh/" + methodLabel(wram);
        EXPECT_EQ(name + " (WRAM)", a.label.str());
        EXPECT_EQ(name + " (MRAM)", b.label.str());
    }
}

} // namespace
} // namespace transpim
} // namespace tpl
