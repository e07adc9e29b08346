#include "runtime/async_schedule_cache.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace scar
{
namespace runtime
{

AsyncScheduleCache::AsyncScheduleCache(ThreadPool& pool,
                                       std::size_t capacity)
    : pool_(pool), capacity_(capacity)
{
}

AsyncScheduleCache::~AsyncScheduleCache()
{
    // wait() (unlike get()) does not rethrow a failed solve, so this
    // drain is exception-free; abandoned results are simply dropped.
    for (;;) {
        Future pending;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (inflight_.empty())
                break;
            pending = inflight_.begin()->second.future;
            inflight_.erase(inflight_.begin());
        }
        pending.wait();
    }
}

std::shared_ptr<const CachedSchedule>
AsyncScheduleCache::findLocked(const std::string& key)
{
    auto it = store_.find(key);
    if (it == store_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    return it->second.schedule;
}

void
AsyncScheduleCache::insertLocked(
    const std::string& key, std::shared_ptr<const CachedSchedule> schedule)
{
    lru_.push_front(key);
    store_.emplace(key, Stored{std::move(schedule), lru_.begin()});
    if (capacity_ > 0 && store_.size() > capacity_) {
        debug("schedule cache: evicting LRU mix ", lru_.back());
        store_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::function<void()>
AsyncScheduleCache::launchLocked(const std::string& key,
                                 const Scenario& mix,
                                 const ComputeFn& compute,
                                 double readySec)
{
    ++stats_.misses;
    debug("schedule cache: solve for mix ", key);
    auto promise = std::make_shared<
        std::promise<std::shared_ptr<const CachedSchedule>>>();
    inflight_.emplace(key,
                      Inflight{promise->get_future().share(), readySec});
    // The worker only fulfills the promise; promotion into the LRU
    // store happens at join() on the (virtual-time) event loop, so
    // store contents never depend on wall-clock solve speed. Copy mix
    // and compute: the caller's references may die before the worker
    // runs. The task is returned rather than submitted here because
    // a zero-worker pool runs submissions inline — the solve must
    // not execute under the cache lock.
    return [promise, mix, compute] {
        try {
            promise->set_value(makeCachedSchedule(mix, compute));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    };
}

bool
AsyncScheduleCache::prefetch(const std::string& key,
                             const Scenario& mix,
                             const ComputeFn& compute, double readySec)
{
    std::function<void()> solve;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (store_.count(key) > 0 || inflight_.count(key) > 0)
            return false;
        solve = launchLocked(key, mix, compute, readySec);
    }
    pool_.submit(std::move(solve));
    return true;
}

AsyncLookup
AsyncScheduleCache::lookup(const std::string& key, const Scenario& mix,
                           const ComputeFn& compute, double nowSec,
                           double modeledSolveSec)
{
    AsyncLookup result;
    std::function<void()> solve;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = findLocked(key)) {
            ++stats_.hits;
            result.schedule = std::move(hit);
            result.readySec = nowSec;
            return result;
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            // The running solve is reused, not restarted.
            ++stats_.hits;
            result.readySec = std::max(nowSec, it->second.readySec);
            return result;
        }
        solve = launchLocked(key, mix, compute,
                             nowSec + modeledSolveSec);
    }
    pool_.submit(std::move(solve));
    result.readySec = nowSec + modeledSolveSec;
    result.startedSolve = true;
    return result;
}

CachePeek
AsyncScheduleCache::peek(const std::string& key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CachePeek result;
    auto stored = store_.find(key);
    if (stored != store_.end()) {
        result.schedule = stored->second.schedule;
        return result;
    }
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
        result.inFlight = true;
        result.readySec = it->second.readySec;
    }
    return result;
}

std::shared_ptr<const CachedSchedule>
AsyncScheduleCache::join(const std::string& key)
{
    Future pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = findLocked(key))
            return hit;
        auto it = inflight_.find(key);
        SCAR_REQUIRE(it != inflight_.end(),
                     "schedule cache: join of unknown mix ", key);
        pending = it->second.future;
    }
    // Wall-clock wait outside the lock. A failed solve is erased
    // before rethrowing so the key can be retried rather than pinning
    // a dead future in the in-flight map forever.
    std::shared_ptr<const CachedSchedule> entry;
    try {
        entry = pending.get();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
        throw;
    }
    {
        // Racing joiners of one key share one future; only the first
        // to get here promotes it.
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_.erase(key) > 0)
            insertLocked(key, entry);
    }
    return entry;
}

void
AsyncScheduleCache::drainInFlight()
{
    for (;;) {
        std::string next;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (inflight_.empty())
                break;
            next = inflight_.begin()->first;
        }
        join(next);
    }
}

ScheduleCacheStats
AsyncScheduleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
AsyncScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size();
}

} // namespace runtime
} // namespace scar
