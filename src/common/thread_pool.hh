/**
 * @file
 * Shared morsel-parallel execution core. One process-wide pool (sized by
 * env AQUOMAN_THREADS, default hardware concurrency, 1 == fully serial)
 * feeds every data-parallel path in the repository: the streaming
 * sorter's block sort/merge, the baseline executor's morsel loops, the
 * TPC-H generator's per-partition streams, and the bench harnesses'
 * query fan-out.
 *
 * Design rules that every caller relies on:
 *  - The calling thread always participates: a parallelFor never blocks
 *    waiting for a free worker, so nested parallel sections cannot
 *    deadlock (inner sections simply degrade toward inline execution
 *    when all workers are busy).
 *  - Work is claimed chunk-by-chunk from an atomic cursor (work
 *    stealing at chunk granularity); any worker may execute any chunk.
 *  - Results must therefore be written to pre-partitioned destinations
 *    (disjoint ranges or per-chunk slots merged in chunk order), which
 *    is what makes every parallel path bit-identical to its serial run.
 *  - The first exception thrown by any chunk is rethrown on the calling
 *    thread after all claimed chunks finish.
 */

#ifndef AQUOMAN_COMMON_THREAD_POOL_HH
#define AQUOMAN_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace aquoman {

/**
 * Rows per morsel for the parallel operator paths (the baseline
 * executor's loops and the shared Row Selector, filterSelection).
 * Inputs at or below one morsel run inline on the calling thread
 * (parallelFor's serial fast path), so small relations pay no
 * scheduling overhead.
 */
constexpr std::int64_t kMorselRows = 16384;

/** Process-wide work-sharing pool with a parallel-for primitive. */
class ThreadPool
{
  public:
    /**
     * @param parallelism total concurrency including the calling
     *        thread; the pool spawns parallelism-1 workers. 1 means no
     *        workers at all (everything runs inline on the caller).
     */
    explicit ThreadPool(int parallelism);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Degree of parallelism (worker threads + the calling thread). */
    int parallelism() const { return degree; }

    /**
     * Run @p fn over [begin, end) split into chunks of at most @p grain
     * elements. The caller participates; returns when every chunk has
     * executed. Chunk boundaries are an execution detail: callers must
     * produce identical results for any partitioning of the range.
     * When the range fits one chunk (or the pool is serial) @p fn runs
     * inline with no synchronisation.
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     std::int64_t grain,
                     const std::function<void(std::int64_t,
                                              std::int64_t)> &fn);

    /**
     * Deterministically split [begin, end) into consecutive chunks of
     * at most @p grain elements. Used by callers that accumulate
     * per-chunk results and concatenate them in chunk order (the
     * concatenation then equals the serial-order result).
     */
    static std::vector<std::pair<std::int64_t, std::int64_t>>
    splitRange(std::int64_t begin, std::int64_t end, std::int64_t grain);

    /** The process-wide pool (sized from AQUOMAN_THREADS on first use). */
    static ThreadPool &global();

    /**
     * Parallelism requested by the environment: AQUOMAN_THREADS when
     * set, otherwise std::thread::hardware_concurrency.
     * @throws FatalError when AQUOMAN_THREADS is not an integer from 1
     * to 1024.
     */
    static int configuredParallelism();

    /**
     * Re-create the global pool with @p parallelism threads (test hook
     * for comparing parallel against serial runs in one process). Not
     * safe while parallel work is in flight.
     */
    static void setGlobalParallelism(int parallelism);

  private:
    struct Job;

    void workerLoop();

    /** Claim and execute chunks of @p job until its cursor is spent. */
    static void runJob(Job &job);

    int degree;
    std::vector<std::thread> workers;
    std::deque<std::shared_ptr<Job>> jobs;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
};

/** Convenience wrapper over the global pool. */
inline void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &fn)
{
    ThreadPool::global().parallelFor(begin, end, grain, fn);
}

/**
 * A scoped group of independent tasks executed on the pool. Tasks are
 * collected by run() and executed by wait(); the destructor waits for
 * any tasks not yet executed. Nesting groups (tasks that spawn their
 * own groups or parallelFors) is safe because waiting threads always
 * execute work themselves.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &p = ThreadPool::global()) : pool(p) {}

    ~TaskGroup()
    {
        try {
            wait();
        } catch (...) {
            // Destructor must not throw; wait() explicitly to observe
            // task exceptions.
        }
    }

    /** Add a task. Tasks start executing at the next wait(). */
    void run(std::function<void()> fn) { fns.push_back(std::move(fn)); }

    /**
     * Execute all collected tasks across the pool; rethrows the first
     * task exception. The group is reusable after wait() returns.
     */
    void
    wait()
    {
        if (fns.empty())
            return;
        std::vector<std::function<void()>> batch;
        batch.swap(fns);
        pool.parallelFor(0, static_cast<std::int64_t>(batch.size()), 1,
                         [&](std::int64_t b, std::int64_t e) {
                             for (std::int64_t i = b; i < e; ++i)
                                 batch[static_cast<std::size_t>(i)]();
                         });
    }

  private:
    ThreadPool &pool;
    std::vector<std::function<void()>> fns;
};

} // namespace aquoman

#endif // AQUOMAN_COMMON_THREAD_POOL_HH
