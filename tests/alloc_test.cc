/**
 * @file
 * Allocation locks for the small-wave serve path. This executable
 * replaces the global operator new with one that counts calls per
 * thread, and asserts, after warm-up:
 *
 *  - DpuCore::launch of a 16-tasklet streaming kernel allocates
 *    nothing (tasklet contexts live on the stack, and the statistics
 *    reuse the previous launch's storage);
 *  - a steady-state serve wave, with EvaluatorCatalog's streaming
 *    kernels, makes as many drive-thread allocations on 64 DPUs as on
 *    16: none of the drive thread's per-wave work allocates per DPU,
 *    including the kernels it builds when it helps the pool.
 */

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pimsim/serve/batch_queue.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/system.h"
#include "pimsim/thread_pool.h"
#include "transpim/evaluator.h"
#include "transpim/serve_glue.h"

namespace {

/** operator new calls made by this thread. */
thread_local uint64_t tAllocations = 0;

void*
countedMalloc(std::size_t size) noexcept
{
    ++tAllocations;
    return std::malloc(size ? size : 1);
}

void*
countedNew(std::size_t size)
{
    if (void* p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form is replaced, so each allocation is counted and
// freed by the matching replacement (a sanitizer runtime would
// otherwise supply the forms left out, with its own allocator).
void* operator new(std::size_t size) { return countedNew(size); }
void* operator new[](std::size_t size) { return countedNew(size); }
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedMalloc(size);
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace tpl {
namespace {

using sim::ShardTask;
namespace serve = sim::serve;

TEST(AllocationLock, StreamingLaunchAllocatesNothing)
{
    transpim::FunctionEvaluator ev =
        transpim::FunctionEvaluator::create(transpim::Function::Sin,
                                            transpim::MethodSpec{});
    sim::DpuCore core;
    ev.attach(core);
    // One 8-element slice (the tenant_tuning shape) and one that
    // keeps all 16 tasklets busy.
    for (uint32_t elements : {8u, 512u}) {
        SCOPED_TRACE("elements=" + std::to_string(elements));
        ShardTask task;
        task.elements = elements;
        task.inAddr = core.mramAlloc(elements * sizeof(float));
        task.outAddr = core.mramAlloc(elements * sizeof(float));
        std::vector<float> in(elements, 0.75f);
        core.hostWriteMram(task.inAddr, in.data(),
                           elements * sizeof(float));
        const sim::Kernel kernel =
            transpim::makeStreamingKernel(ev, task, 32);
        core.launch(16, kernel); // warm-up: perTasklet's capacity
        const uint64_t before = tAllocations;
        for (int i = 0; i < 50; ++i)
            core.launch(16, kernel);
        EXPECT_EQ(tAllocations - before, 0u);
        EXPECT_GT(core.lastLaunch().totalInstructions, 0u);
    }
}

/** Elements per DPU per wave in the serve runs below. */
constexpr uint32_t kPerDpu = 8;

/** Drive-thread allocations of one serve run of @p waves one-request
 * waves of kPerDpu elements per DPU on @p sys, with the production
 * provider (EvaluatorCatalog) and its streaming kernels. */
uint64_t
serveRunAllocations(sim::PimSystem& sys, uint32_t waves)
{
    const uint64_t waveElems = uint64_t{kPerDpu} * sys.numDpus();
    std::vector<float> in(waveElems * waves, 0.5f), out(in.size());
    transpim::EvaluatorCatalog catalog;
    const serve::TableKey key =
        catalog.add(transpim::Function::Sin, transpim::MethodSpec{});
    serve::BatchQueue queue;
    for (uint32_t w = 0; w < waves; ++w) {
        serve::Request r;
        r.table = key;
        r.input = in.data() + w * waveElems;
        r.output = out.data() + w * waveElems;
        r.elements = waveElems;
        queue.push(r);
    }
    queue.close();
    serve::PipelineOptions opts;
    opts.numTasklets = 16;
    opts.perDpuElements = kPerDpu;
    serve::ServePipeline pipeline(sys, catalog.provider(), opts);
    const uint64_t before = tAllocations;
    serve::ServeReport rep = pipeline.run(queue);
    const uint64_t allocations = tAllocations - before;
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.waves, waves);
    return allocations;
}

/** Allocations the drive thread makes for @p waves extra waves on
 * @p dpus DPUs: the difference of two runs on one warmed-up system,
 * so per-run setup cancels. */
uint64_t
steadyWaveAllocations(uint32_t dpus, uint32_t waves)
{
    sim::ThreadPool pool(4);
    sim::PimSystem sys(dpus);
    sys.setThreadPool(&pool);
    serveRunAllocations(sys, waves); // warm-up: every core launched
    const uint64_t base = serveRunAllocations(sys, waves);
    const uint64_t doubled = serveRunAllocations(sys, 2 * waves);
    return doubled - base;
}

TEST(AllocationLock, ServeWaveAllocationsDoNotGrowWithDpus)
{
    constexpr uint32_t waves = 64;
    const uint64_t small = steadyWaveAllocations(16, waves);
    const uint64_t large = steadyWaveAllocations(64, waves);
    EXPECT_EQ(small, large);
    // A handful of per-wave buffers, not one allocation per slice.
    EXPECT_LT(small, uint64_t{16} * waves);
}

} // namespace
} // namespace tpl
