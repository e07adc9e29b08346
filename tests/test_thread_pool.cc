/**
 * @file
 * Tests for the worker pool: serial degradation at concurrency 1,
 * future-backed submission, and exception propagation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace scar
{
namespace
{

TEST(ThreadPool, ConcurrencyOneRunsInlineOnCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.concurrency(), 1);
    auto future =
        pool.submit([] { return std::this_thread::get_id(); });
    // No workers: the task has already run when submit() returns.
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get(), std::this_thread::get_id());
}

TEST(ThreadPool, SubmitReturnsFutureResult)
{
    for (int concurrency : {1, 4}) {
        ThreadPool pool(concurrency);
        auto future = pool.submit([] { return 6 * 7; });
        EXPECT_EQ(future.get(), 42);
    }
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllComplete)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    int sum = 0;
    for (auto& f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 199 * 200 / 2);
}

TEST(MixSeed, StreamsAreDistinctAndDeterministic)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 1000; ++s)
        seen.insert(mixSeed(42, s));
    EXPECT_EQ(seen.size(), 1000u) << "streams must not collide";
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
    EXPECT_NE(mixSeed(42, 7), mixSeed(43, 7));
}

} // namespace
} // namespace scar
