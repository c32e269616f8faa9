#include "common/thread_pool.hh"

#include <atomic>
#include <exception>
#include <optional>

#include "common/env_options.hh"
#include "common/logging.hh"

namespace aquoman {

/**
 * One parallelFor invocation. Chunks are claimed from an atomic cursor;
 * `remaining` counts chunks not yet finished, and the submitting thread
 * sleeps on `done` only for chunks still running on workers after it
 * exhausted the cursor itself.
 */
struct ThreadPool::Job
{
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t numChunks = 0;
    const std::function<void(std::int64_t, std::int64_t)> *fn = nullptr;

    std::atomic<std::int64_t> nextChunk{0};
    std::atomic<std::int64_t> remaining{0};

    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;
};

ThreadPool::ThreadPool(int parallelism)
    : degree(parallelism < 1 ? 1 : parallelism)
{
    workers.reserve(degree - 1);
    for (int i = 0; i < degree - 1; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [this] { return stopping || !jobs.empty(); });
            if (jobs.empty()) {
                if (stopping)
                    return;
                continue;
            }
            job = jobs.front();
            if (job->nextChunk.load(std::memory_order_relaxed)
                    >= job->numChunks) {
                // Cursor spent: retire the job and look again.
                jobs.pop_front();
                continue;
            }
        }
        runJob(*job);
    }
}

void
ThreadPool::runJob(Job &job)
{
    for (;;) {
        std::int64_t c =
            job.nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.numChunks)
            return;
        std::int64_t b = job.begin + c * job.grain;
        std::int64_t e = std::min(job.end, b + job.grain);
        try {
            (*job.fn)(b, e);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.mu);
            if (!job.error)
                job.error = std::current_exception();
        }
        if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(job.mu);
            job.done.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::int64_t begin, std::int64_t end,
                        std::int64_t grain,
                        const std::function<void(std::int64_t,
                                                 std::int64_t)> &fn)
{
    if (end <= begin)
        return;
    AQ_ASSERT(grain > 0, "parallelFor grain must be positive");
    std::int64_t n = end - begin;
    if (degree == 1 || n <= grain || workers.empty()) {
        // Serial fast path: one chunk per grain, inline, in order.
        for (std::int64_t b = begin; b < end; b += grain)
            fn(b, std::min(end, b + grain));
        return;
    }

    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->numChunks = (n + grain - 1) / grain;
    job->fn = &fn;
    job->remaining.store(job->numChunks, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(mu);
        jobs.push_back(job);
    }
    cv.notify_all();

    // The caller claims chunks too, so the job always makes progress
    // even when every worker is busy elsewhere (e.g. nested sections).
    runJob(*job);

    {
        std::unique_lock<std::mutex> lock(job->mu);
        job->done.wait(lock, [&] {
            return job->remaining.load(std::memory_order_acquire) == 0;
        });
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = jobs.begin(); it != jobs.end(); ++it) {
            if (it->get() == job.get()) {
                jobs.erase(it);
                break;
            }
        }
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

std::vector<std::pair<std::int64_t, std::int64_t>>
ThreadPool::splitRange(std::int64_t begin, std::int64_t end,
                       std::int64_t grain)
{
    AQ_ASSERT(grain > 0, "splitRange grain must be positive");
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (std::int64_t b = begin; b < end; b += grain)
        out.emplace_back(b, std::min(end, b + grain));
    return out;
}

int
ThreadPool::configuredParallelism()
{
    if (std::optional<int> n = env::threads())
        return *n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(configuredParallelism());
    return *g_pool;
}

void
ThreadPool::setGlobalParallelism(int parallelism)
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    g_pool = std::make_unique<ThreadPool>(parallelism);
}

} // namespace aquoman
