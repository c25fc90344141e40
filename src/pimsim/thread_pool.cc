/**
 * @file
 * Thread-pool implementation.
 */

#include "pimsim/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

namespace tpl {
namespace sim {

struct ThreadPool::Job
{
    /** One worker's home range of indices, [next, end), with its
     * claim cursor on its own cache line. */
    struct alignas(64) Block
    {
        std::atomic<uint64_t> next{0};
        uint64_t end = 0;
    };

    std::function<void(uint64_t)> fn;
    std::vector<Block> blocks;
    std::atomic<uint32_t> active{0};
    std::exception_ptr error; ///< guarded by the pool mutex

    /** Split [0, count) into @p n contiguous blocks in index order;
     * the first count % n blocks hold one index more. */
    void split(uint64_t count, uint32_t n)
    {
        blocks = std::vector<Block>(n);
        const uint64_t size = count / n, extra = count % n;
        uint64_t begin = 0;
        for (uint32_t b = 0; b < n; ++b) {
            blocks[b].next.store(begin);
            begin += size + (b < extra ? 1 : 0);
            blocks[b].end = begin;
        }
    }

    bool hasWork() const
    {
        for (const Block& b : blocks)
            if (b.next.load() < b.end)
                return true;
        return false;
    }
};

namespace {

/** Set while a pool worker executes job indices; nested parallelFor
 * calls detect it and run inline instead of re-entering the pool. */
thread_local bool insideWorker = false;

/** How long an idle participant polls before it blocks (see the
 * header). */
constexpr std::chrono::microseconds kPollBudget{1000};

/** Poll @p ready, yielding the CPU between checks, for up to
 * kPollBudget. @return whether @p ready came true. */
template <typename Ready>
bool
pollFor(Ready ready)
{
    const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
    for (uint32_t n = 1; !ready(); ++n) {
        if (n % 64 == 0 && std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

} // namespace

uint32_t
ThreadPool::defaultThreads()
{
    if (const char* env = std::getenv("TPL_SIM_THREADS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<uint32_t>(v);
        return 1;
    }
    uint32_t hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool&
ThreadPool::global()
{
    // Leaked on purpose: never runs the destructor, so parallelFor
    // stays usable during static destruction and no join races with
    // atexit handlers.
    static ThreadPool* pool = new ThreadPool(0);
    return *pool;
}

ThreadPool::ThreadPool(uint32_t threads)
{
    if (threads == 0)
        threads = defaultThreads();
    workers_.reserve(threads - 1);
    for (uint32_t t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        ++posted_;
    }
    wakeCv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::workerLoop(uint32_t home)
{
    insideWorker = true;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (stop_)
                    return;
                for (const auto& j : jobs_)
                    if (j->hasWork()) {
                        job = j;
                        break;
                    }
                if (job)
                    break;
                // Nothing to do: poll for the next start, then block.
                const uint64_t seen = posted_.load();
                lock.unlock();
                const bool posted =
                    pollFor([&] { return posted_.load() != seen; });
                lock.lock();
                if (posted)
                    continue;
                ++sleepingWorkers_;
                wakeCv_.wait(lock,
                             [&] { return posted_.load() != seen; });
                --sleepingWorkers_;
            }
        }
        runIndices(*job, home);
    }
}

void
ThreadPool::runIndices(Job& job, uint32_t home)
{
    // A participant registers before claiming, so a waiter that sees
    // every block exhausted and no participant left knows every
    // claimed index has finished.
    job.active.fetch_add(1);
    // Drain the home block, then steal from the others in turn. A
    // block once exhausted stays so, so one pass that finds every
    // block exhausted leaves nothing unclaimed.
    const size_t n = job.blocks.size();
    for (size_t k = 0; k < n; ++k) {
        Job::Block& block = job.blocks[(home + k) % n];
        for (;;) {
            uint64_t i = block.next.fetch_add(1);
            if (i >= block.end)
                break;
            try {
                job.fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!job.error)
                    job.error = std::current_exception();
                // Cancel the unclaimed indices of every block;
                // claimed ones still drain.
                for (Job::Block& b : job.blocks)
                    b.next.store(b.end);
            }
        }
    }
    if (job.active.fetch_sub(1) == 1) {
        // Last participant out: wake whoever waits for this job.
        std::lock_guard<std::mutex> lock(mutex_);
        if (sleepingWaiters_ > 0)
            doneCv_.notify_all();
    }
}

std::shared_ptr<ThreadPool::Job>
ThreadPool::start(uint64_t count, std::function<void(uint64_t)> fn)
{
    auto job = std::make_shared<Job>();
    job->fn = std::move(fn);
    // Without workers (or nested inside one) the job is not posted:
    // wait() runs it inline on the caller, in index order.
    if (workers_.empty() || count <= 1 || insideWorker) {
        job->split(count, 1);
        return job;
    }
    // One home block per worker; the waiter owns none.
    job->split(count, static_cast<uint32_t>(workers_.size()));
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(job);
        ++posted_;
        wake = sleepingWorkers_ > 0;
    }
    if (wake)
        wakeCv_.notify_all();
    return job;
}

void
ThreadPool::wait(const std::shared_ptr<Job>& job)
{
    // The waiter owns no block: it steals whatever is left, starting
    // from the first block.
    runIndices(*job, 0);
    auto drained = [&] { return job->active.load() == 0; };
    pollFor(drained);
    std::unique_lock<std::mutex> lock(mutex_);
    ++sleepingWaiters_;
    doneCv_.wait(lock, drained);
    --sleepingWaiters_;
    auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end())
        jobs_.erase(it);
    if (job->error)
        std::rethrow_exception(job->error);
}

void
ThreadPool::parallelFor(uint64_t count,
                        const std::function<void(uint64_t)>& fn)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1 || insideWorker) {
        for (uint64_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    wait(start(count, fn));
}

void
parallelFor(uint64_t count, const std::function<void(uint64_t)>& fn)
{
    ThreadPool::global().parallelFor(count, fn);
}

} // namespace sim
} // namespace tpl
