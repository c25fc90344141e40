/**
 * @file
 * Shared workload harness implementation.
 */

#include "workloads/common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "pimsim/thread_pool.h"

namespace tpl {
namespace work {

using transpim::Method;

namespace {

/** Label and method of each PIM variant, from Variant::PimPoly on. */
struct PimVariant
{
    const char* label;
    Method method;
};

constexpr PimVariant kPimVariants[] = {
    {"PIM poly", Method::Poly},
    {"PIM M-LUT interp.", Method::MLut},
    {"PIM L-LUT interp.", Method::LLut},
    {"PIM fixed L-LUT interp.", Method::LLutFixed},
    {"PIM DL-LUT interp.", Method::DlLut},
};

const PimVariant&
pimVariant(Variant v)
{
    return kPimVariants[static_cast<int>(v) -
                        static_cast<int>(Variant::PimPoly)];
}

uint32_t
cpuThreads(Variant v, const WorkloadConfig& cfg)
{
    return v == Variant::CpuSingle ? 1 : cfg.cpuThreads;
}

} // namespace

bool
isCpu(Variant v)
{
    return v == Variant::CpuSingle || v == Variant::CpuMulti;
}

std::string
variantLabel(Variant v, const WorkloadConfig& cfg)
{
    if (isCpu(v))
        return "CPU " + std::to_string(cpuThreads(v, cfg)) + "T";
    return pimVariant(v).label;
}

std::vector<transpim::FunctionEvaluator>
makeEvaluators(Variant v, const WorkloadConfig& cfg,
               std::initializer_list<transpim::Function> fns)
{
    transpim::MethodSpec spec;
    spec.method = pimVariant(v).method;
    spec.interpolated = true;
    spec.placement = transpim::Placement::Wram;
    spec.log2Entries = cfg.log2Entries;
    spec.polyDegree = cfg.polyDegree;
    std::vector<transpim::FunctionEvaluator> out;
    for (transpim::Function f : fns)
        out.push_back(transpim::FunctionEvaluator::create(f, spec));
    return out;
}

void
printRows(const std::vector<WorkloadResult>& rows)
{
    std::printf("%-26s %12s %12s %12s %12s %12s %12s\n", "variant",
                "total_s", "kernel_s", "h2p_s", "p2h_s", "maxerr",
                "host_setup_s");
    for (const auto& r : rows) {
        std::printf("%-26s %12.4f %12.4f %12.4f %12.4f %12.3e %12.3e\n",
                    r.variant.c_str(), r.seconds, r.pimKernelSeconds,
                    r.hostToPimSeconds, r.pimToHostSeconds,
                    r.maxAbsError, r.hostSetupSeconds);
    }
}

double
timeCpuBaseline(const WorkloadConfig& cfg, uint32_t threads,
                const std::function<void(uint64_t, uint64_t)>& body)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);

    // The persistent simulator pool runs the chunks, so the timed
    // region measures only the workload body — no per-call thread
    // spawn/join overhead. The baseline is "real" only when the pool
    // actually offers the requested parallelism; otherwise fall back
    // to the documented scaling model below.
    sim::ThreadPool& pool = sim::ThreadPool::global();
    uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    uint32_t lanes = std::min(pool.threadCount(), hw);
    bool canRunThreads = threads <= lanes;
    uint32_t runThreads = canRunThreads ? threads : 1;

    auto start = std::chrono::steady_clock::now();
    if (runThreads == 1) {
        body(0, sample);
    } else {
        uint64_t per = (sample + runThreads - 1) / runThreads;
        pool.parallelFor(runThreads, [&](uint64_t t) {
            uint64_t beg = t * per;
            uint64_t end = std::min(sample, beg + per);
            if (beg < end)
                body(beg, end);
        });
    }
    auto stop = std::chrono::steady_clock::now();
    double measured = std::chrono::duration<double>(stop - start).count();

    double full = measured * static_cast<double>(cfg.totalElements) /
                  static_cast<double>(sample);
    if (!canRunThreads && threads > 1) {
        // Host cannot actually run the requested thread count: model
        // the parallel speedup instead of oversubscribing.
        full /= threads * cfg.cpuParallelEfficiency;
    }
    return full;
}

WorkloadResult
cpuRow(std::string workload, Variant v, const WorkloadConfig& cfg,
       const std::function<void(uint64_t, uint64_t)>& body,
       const std::function<void(ErrorAccumulator&)>& check)
{
    WorkloadResult res;
    res.workload = std::move(workload);
    res.variant = variantLabel(v, cfg);
    res.elements = cfg.totalElements;
    res.seconds = timeCpuBaseline(cfg, cpuThreads(v, cfg), body);
    ErrorAccumulator acc;
    check(acc);
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

double
projectPimSeconds(const WorkloadConfig& cfg, const sim::CostModel& model,
                  uint64_t cyclesPerSimDpu)
{
    if (cfg.elementsPerSimDpu == 0 || cfg.systemDpus == 0 ||
        model.frequencyHz <= 0.0)
        return 0.0;
    double cyclesPerElement =
        static_cast<double>(cyclesPerSimDpu) /
        static_cast<double>(cfg.elementsPerSimDpu);
    uint64_t perSystemDpu =
        (cfg.totalElements + cfg.systemDpus - 1) / cfg.systemDpus;
    return cyclesPerElement * static_cast<double>(perSystemDpu) /
           model.frequencyHz;
}

PimRun::PimRun(std::string workload, Variant v, const WorkloadConfig& cfg,
               double hostSetupSeconds,
               const std::function<void(sim::DpuCore&)>& attach)
    : workload_(std::move(workload)), variant_(v), cfg_(cfg),
      hostSetupSeconds_(hostSetupSeconds), sys_(cfg.simulatedDpus)
{
    for (uint32_t d = 0; d < sys_.numDpus(); ++d)
        attach(sys_.dpu(d));
}

PimRun::PimRun(std::string workload, Variant v, const WorkloadConfig& cfg,
               std::span<transpim::FunctionEvaluator> tables)
    : PimRun(std::move(workload), v, cfg, 0.0, [&](sim::DpuCore& core) {
          for (auto& t : tables)
              t.attach(core);
      })
{
    for (const auto& t : tables)
        hostSetupSeconds_ += t.setupSeconds();
}

Array
PimRun::stream(uint32_t width, std::span<const float> data)
{
    Array a{0, width, perDpu() * width};
    uint32_t bytes = a.floats * sizeof(float);
    for (uint32_t d = 0; d < sys_.numDpus(); ++d) {
        sim::DpuCore& dpu = sys_.dpu(d);
        a.addr = dpu.mramAlloc(bytes);
        if (!data.empty())
            dpu.hostWriteMram(a.addr,
                              data.data() + uint64_t{d} * a.floats,
                              bytes);
    }
    return a;
}

Array
PimRun::fixed(uint32_t floats, std::span<const float> data)
{
    Array a{0, 0, floats};
    for (uint32_t d = 0; d < sys_.numDpus(); ++d)
        a.addr = sys_.dpu(d).mramAlloc(floats * sizeof(float));
    if (!data.empty())
        broadcast(a, data);
    return a;
}

uint64_t
PimRun::pass(const Pass& p)
{
    const uint32_t share = perDpu();
    const sim::LaunchReport report =
        sys_.launchAll(cfg_.tasklets, [&](sim::TaskletContext& ctx) {
        Tasklet t{ctx};
        t.acc = p.acc;
        if (p.local) {
            t.local.resize(p.local->floats);
            ctx.mramRead(p.local->addr, t.local.data(),
                         p.local->floats * sizeof(float));
        }
        for (const Array& a : p.reads)
            t.in.emplace_back(p.chunk * a.width);
        for (const Array& a : p.writes)
            t.out.emplace_back(p.chunk * a.width);
        // Element e of a width-w array starts at float e * w.
        auto slot = [](const Array& a, uint32_t e) {
            return a.addr + e * a.width * uint32_t{sizeof(float)};
        };
        // Read elements [first, first + n) of every reads array into
        // the tasklet's buffers, starting at chunk position at.
        auto readIn = [&](uint32_t first, uint32_t n, uint32_t at) {
            for (size_t k = 0; k < p.reads.size(); ++k) {
                uint32_t w = p.reads[k].width;
                ctx.mramRead(slot(p.reads[k], first),
                             t.in[k].data() + at * w,
                             n * w * sizeof(float));
            }
        };
        uint32_t chunks = (share + p.chunk - 1) / p.chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * p.chunk;
            uint32_t cnt = std::min(p.chunk, share - beg);
            if (!p.readPerElement)
                readIn(beg, cnt, 0);
            for (uint32_t i = 0; i < cnt; ++i) {
                if (p.readPerElement)
                    readIn(beg + i, 1, i);
                p.element(t, i);
            }
            for (size_t k = 0; k < p.writes.size(); ++k)
                ctx.mramWrite(slot(p.writes[k], beg), t.out[k].data(),
                              cnt * p.writes[k].width * sizeof(float));
        }
        if (p.accOut)
            ctx.mramWrite(p.accOut->addr + ctx.taskletId() * sizeof(float),
                          &t.acc, sizeof(float));
    });
    passCycles_.push_back(report.maxCycles);
    return report.maxCycles;
}

std::vector<float>
PimRun::read(const Array& a, uint32_t dpu) const
{
    std::vector<float> out(a.floats);
    sys_.dpu(dpu).hostReadMram(a.addr, out.data(),
                               a.floats * sizeof(float));
    return out;
}

void
PimRun::broadcast(const Array& a, std::span<const float> data)
{
    for (uint32_t d = 0; d < sys_.numDpus(); ++d)
        sys_.dpu(d).hostWriteMram(a.addr, data.data(),
                                  data.size() * sizeof(float));
}

WorkloadResult
PimRun::row(std::initializer_list<uint64_t> h2pBytes,
            std::initializer_list<uint64_t> p2hBytes,
            const ErrorAccumulator& acc) const
{
    WorkloadResult res;
    res.workload = workload_;
    res.variant = variantLabel(variant_, cfg_);
    res.elements = cfg_.totalElements;
    res.hostSetupSeconds = hostSetupSeconds_;
    const sim::CostModel& model = sys_.model();
    for (uint64_t cycles : passCycles_)
        res.pimKernelSeconds += projectPimSeconds(cfg_, model, cycles);
    const uint32_t ranks = model.ranksEngaged(cfg_.systemDpus);
    for (uint64_t bytes : h2pBytes)
        res.hostToPimSeconds += model.parallelTransferSeconds(bytes, ranks);
    for (uint64_t bytes : p2hBytes)
        res.pimToHostSeconds += model.parallelTransferSeconds(bytes, ranks);
    res.seconds =
        res.pimKernelSeconds + res.hostToPimSeconds + res.pimToHostSeconds;
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

} // namespace work
} // namespace tpl
