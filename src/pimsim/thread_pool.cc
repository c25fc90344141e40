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
    uint64_t count = 0;
    std::function<void(uint64_t)> fn;
    std::atomic<uint64_t> next{0};
    std::atomic<uint32_t> active{0};
    std::exception_ptr error; ///< guarded by the pool mutex

    bool hasWork() const { return next.load() < count; }
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
        workers_.emplace_back([this] { workerLoop(); });
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
ThreadPool::workerLoop()
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
        runIndices(*job);
    }
}

void
ThreadPool::runIndices(Job& job)
{
    // A participant registers before claiming, so a waiter that sees
    // the range exhausted and no participant left knows every claimed
    // index has finished.
    job.active.fetch_add(1);
    for (;;) {
        uint64_t i = job.next.fetch_add(1);
        if (i >= job.count)
            break;
        try {
            job.fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!job.error)
                job.error = std::current_exception();
            // Cancel remaining indices; claimed ones still drain.
            job.next.store(job.count);
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
    job->count = count;
    job->fn = std::move(fn);
    // Without workers (or nested inside one) the job is not posted:
    // wait() runs it inline on the caller.
    if (workers_.empty() || count <= 1 || insideWorker)
        return job;
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
    runIndices(*job); // the waiter claims whatever is left
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
