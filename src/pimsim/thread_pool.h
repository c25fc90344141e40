/**
 * @file
 * Host-side parallel execution engine for the simulator.
 *
 * A deliberately simple thread pool: parallelFor posts one job (an
 * index range plus a callable) and every participant — the calling
 * thread included — claims indices until the range is exhausted. Each
 * job splits its range into one contiguous home block per worker,
 * each with its own claim cursor on its own cache line. A worker
 * drains its home block first, then steals single indices from the
 * other blocks; the waiter owns no block and only steals. Jobs of one
 * shape therefore give index i the same home worker every time: a
 * wave's slices are numbered in DPU order, so a simulated DPU's state
 * (its stats, tasklets and MRAM) stays in one host core's cache from
 * wave to wave, as the modeled DPUs share nothing.
 *
 * Determinism contract: the pool schedules *which thread* runs an
 * index, never *what* the index computes; no result depends on which
 * participant ran an index. Everything the simulator models (cycles,
 * instructions, DMA bytes, energy) is a pure function of per-index
 * state (one DPU, one sweep point), so results are bit-identical for
 * any thread count. The `TPL_SIM_THREADS` environment variable forces
 * a specific parallelism — `TPL_SIM_THREADS=1` is the serial escape
 * hatch for debugging.
 *
 * Nested parallelFor calls from inside a worker run inline (serially on
 * the calling worker): the pool never deadlocks and inner loops simply
 * do not over-subscribe the machine.
 *
 * start()/wait() split a job into a non-blocking post and a join, so
 * the caller can do other work while the workers run it (the serve
 * pipeline overlaps its host bookkeeping with DPU kernels this way).
 * Several jobs may be outstanding at once; workers drain them in the
 * order they were started. With no workers, nothing runs until
 * wait(), which then runs every index inline — the serial reference.
 *
 * Idle workers (and a waiter whose job is still running) poll for
 * about a millisecond before they block: waking a blocked thread is
 * a futex wake, which on a virtualized host can cost more than a
 * whole serve wave's kernels. A pool that stays busy therefore never
 * pays it; one that goes quiet sleeps after the poll.
 */

#ifndef TPL_PIMSIM_THREAD_POOL_H
#define TPL_PIMSIM_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tpl {
namespace sim {

/** Fixed-size pool; the caller of parallelFor always participates. */
class ThreadPool
{
  public:
    /**
     * @param threads total parallelism (callers + workers). 0 means
     * "use the default" (TPL_SIM_THREADS, else hardware concurrency).
     * The pool spawns threads-1 workers; the caller is the last lane.
     */
    explicit ThreadPool(uint32_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total parallelism of the pool (>= 1). */
    uint32_t threadCount() const
    {
        return static_cast<uint32_t>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, count). Blocks until all indices
     * finished. The first exception thrown by fn is rethrown on the
     * calling thread (remaining unclaimed indices are skipped).
     * Reentrant calls from inside a worker run inline.
     */
    void parallelFor(uint64_t count,
                     const std::function<void(uint64_t)>& fn);

    /** One started index range; opaque to callers. */
    struct Job;

    /**
     * Start fn(i) for every i in [0, count) on the workers and return
     * at once; @p fn is owned by the job. Every started job must be
     * passed to wait() exactly once. With no workers (or from inside
     * a worker) nothing runs before wait().
     */
    std::shared_ptr<Job> start(uint64_t count,
                               std::function<void(uint64_t)> fn);

    /**
     * Block until every index of @p job finished, running indices no
     * worker claimed yet on the calling thread. Rethrows the first
     * exception fn threw (remaining unclaimed indices are skipped).
     */
    void wait(const std::shared_ptr<Job>& job);

    /**
     * Process-wide shared pool, built on first use with
     * defaultThreads() lanes. Never destroyed (workers are detached at
     * exit by the OS), so it is safe to use from static destructors.
     */
    static ThreadPool& global();

    /**
     * Parallelism the global pool is built with: TPL_SIM_THREADS if
     * set (clamped to >= 1), else std::thread::hardware_concurrency().
     */
    static uint32_t defaultThreads();

  private:
    void workerLoop(uint32_t home);
    /** Claim and run indices of @p job: block @p home first, then
     * the others in turn. */
    void runIndices(Job& job, uint32_t home);

    mutable std::mutex mutex_;
    std::condition_variable wakeCv_; ///< workers: new job available
    std::condition_variable doneCv_; ///< waiters: a job drained
    /** Started, not yet waited jobs, oldest first. */
    std::vector<std::shared_ptr<Job>> jobs_;
    /** Bumped (under the mutex) by every start and by shutdown; idle
     * workers poll it before they block. */
    std::atomic<uint64_t> posted_{0};
    uint32_t sleepingWorkers_ = 0; ///< blocked on wakeCv_
    uint32_t sleepingWaiters_ = 0; ///< blocked on doneCv_
    std::vector<std::thread> workers_;
    bool stop_ = false;
};

/**
 * Run fn(i) for i in [0, count) on the global pool (or inline when the
 * pool is serial / count <= 1). The simulator's only parallel primitive.
 */
void parallelFor(uint64_t count, const std::function<void(uint64_t)>& fn);

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_THREAD_POOL_H
