/**
 * @file
 * Fixed-size worker pool: the parallel execution substrate of the
 * serving runtime, which runs whole schedule solves side by side
 * (AsyncScheduleCache). Each solve is serial inside itself.
 *
 * Concurrency model:
 *  - A pool of `concurrency` is the caller thread plus concurrency-1
 *    workers, so ThreadPool(1) has no workers and degrades to fully
 *    serial inline execution — the `-DSCAR_THREADS=1` CI job exercises
 *    exactly this path.
 *  - submit(fn) enqueues a future-backed task; with no workers it runs
 *    fn inline at submit time, which reduces the async schedule cache
 *    to the blocking behavior under SCAR_THREADS=1.
 *
 * Determinism contract: the pool provides raw concurrency only. A
 * solve's result depends on its inputs and seed alone, never on which
 * thread runs it or what runs beside it.
 */

#ifndef SCAR_COMMON_THREAD_POOL_H
#define SCAR_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace scar
{

/** Fixed-size worker pool with task futures. */
class ThreadPool
{
  public:
    /**
     * @param concurrency total parallelism including the caller
     *        thread (>= 1); 0 picks defaultConcurrency()
     */
    explicit ThreadPool(int concurrency = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total parallelism: worker threads + the calling thread. */
    int concurrency() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * The process-wide default pool, sized by the SCAR_THREADS
     * environment variable, else the SCAR_DEFAULT_THREADS build
     * option, else std::thread::hardware_concurrency().
     */
    static ThreadPool& global();

    /** The concurrency global() is (or would be) created with. */
    static int defaultConcurrency();

    /**
     * Enqueues fn on the pool and returns its future. With zero
     * workers (concurrency 1) fn runs inline before returning.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<decltype(fn())>
    {
        using R = decltype(fn());
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return future;
        }
        enqueue([task] { (*task)(); });
        return future;
    }

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace scar

#endif // SCAR_COMMON_THREAD_POOL_H
