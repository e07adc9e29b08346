#include "common/thread_pool.h"

#include <cstdlib>

#include "common/error.h"

namespace scar
{

ThreadPool::ThreadPool(int concurrency)
{
    if (concurrency <= 0)
        concurrency = defaultConcurrency();
    SCAR_REQUIRE(concurrency >= 1, "thread pool concurrency must be >= 1");
    workers_.reserve(concurrency - 1);
    for (int w = 0; w + 1 < concurrency; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

int
ThreadPool::defaultConcurrency()
{
    if (const char* env = std::getenv("SCAR_THREADS")) {
        const int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
#ifdef SCAR_DEFAULT_THREADS
    if (SCAR_DEFAULT_THREADS >= 1)
        return SCAR_DEFAULT_THREADS;
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : static_cast<int>(hw);
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(defaultConcurrency());
    return pool;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

} // namespace scar
