/**
 * @file
 * The serving runtime's schedule cache: one fleet-wide LRU store of
 * solved schedules keyed by (mix signature, package signature), with
 * future-backed solves on the worker pool, so a cache miss never
 * stalls the serving event loop while Scar::run searches.
 *
 * Two clocks are in play and must not be confused:
 *  - Wall time: how long the background Scar::run actually takes on
 *    the pool. The event loop only blocks on it at join(), the moment
 *    a shard actually needs the schedule to start replaying.
 *  - Virtual time: the simulator clock. A solve started at virtual
 *    instant t is *usable* from t + modeledSolveSec — the modeled
 *    latency of running the search on the package's host. Keeping the
 *    usable instant virtual (recorded at solve start) makes serving
 *    results bit-identical regardless of how fast the wall-clock
 *    solve happens to finish.
 *
 * Lifecycle of a key:
 *   absent --prefetch/lookup--> in flight (future + virtual readySec)
 *          --join (at virtual readySec)--> stored (LRU store)
 *
 * In-flight entries are promoted to the store only by join() (the
 * deterministic event loop) or drainInFlight() (end of run), never by
 * the background worker, so the store's contents — and therefore LRU
 * eviction order — depend only on virtual time. Only lookup() and
 * join() touch a stored key's LRU position; peek() and prefetch()
 * leave it alone.
 *
 * Counters: misses = solves launched (speculative prefetches
 * included), hits = dispatch-time lookups served without launching a
 * solve (ready or already in flight).
 *
 * Locking: one mutex guards the store, the in-flight map and the
 * counters. Every critical section is a map probe or update — a
 * solve always runs outside the lock, and a background solve only
 * fulfills its promise — so racing lookup()+join() callers solve each
 * key exactly once, and a bounded store's LRU order is the one global
 * order its capacity promises.
 */

#ifndef SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H
#define SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H

#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_pool.h"
#include "runtime/schedule_cache.h"

namespace scar
{
namespace runtime
{

/** Outcome of a dispatch-time cache consultation. */
struct AsyncLookup
{
    /** The schedule when already usable, nullptr while solving. */
    std::shared_ptr<const CachedSchedule> schedule;
    /** Virtual instant the schedule is (or becomes) usable. */
    double readySec = 0.0;
    /** True when this lookup launched a new background solve. */
    bool startedSolve = false;
};

/** Non-mutating probe result (routing cost estimation). */
struct CachePeek
{
    /** The stored schedule, nullptr when absent or still solving. */
    std::shared_ptr<const CachedSchedule> schedule;
    /** True while a background solve for the key is running. */
    bool inFlight = false;
    /** Virtual usable instant of the in-flight solve. */
    double readySec = 0.0;

    /** Stored or in flight. */
    bool known() const { return schedule != nullptr || inFlight; }
};

/** Thread-safe, future-backed LRU schedule cache over a worker pool. */
class AsyncScheduleCache
{
  public:
    /**
     * @param pool workers for background solves (not owned); with
     *        concurrency 1 solves run inline — the blocking path
     * @param capacity maximum stored schedules; the least-recently
     *        used is evicted beyond it (0 keeps every schedule).
     *        Evicted entries stay alive for any executor still
     *        holding their shared_ptr.
     */
    explicit AsyncScheduleCache(ThreadPool& pool,
                                std::size_t capacity = 0);

    /**
     * Blocks until every background solve has finished: solve tasks
     * reference caller-owned state (the compute closure), so they
     * must never outlive the cache — even when a run aborts with an
     * exception before its normal drainInFlight().
     */
    ~AsyncScheduleCache();

    /**
     * Begins a background solve for the key unless it is already
     * stored or in flight (idempotent — the serving loop calls this
     * speculatively whenever a batch is ready but every shard is
     * busy). Never touches a stored key's LRU position.
     * @param readySec virtual instant the result becomes usable
     * @return whether this call launched a solve
     */
    bool prefetch(const std::string& key, const Scenario& mix,
                  const ComputeFn& compute, double readySec);

    /**
     * Dispatch-time consultation: a usable schedule counts a hit; an
     * in-flight solve counts a hit and reports when it lands; an
     * unknown key counts a miss and launches the solve with
     * readySec = nowSec + modeledSolveSec.
     */
    AsyncLookup lookup(const std::string& key, const Scenario& mix,
                       const ComputeFn& compute, double nowSec,
                       double modeledSolveSec);

    /**
     * Non-mutating probe: reports whether the key is stored or in
     * flight (and the in-flight virtual ready instant) without
     * touching the LRU order or the hit/miss counters. Cost-aware
     * routing peeks for every candidate package; only the eventual
     * dispatch-time lookup() may count and touch.
     */
    CachePeek peek(const std::string& key) const;

    /**
     * Waits (wall clock) for the key's solve and promotes it into
     * the store. The key must be stored or in flight — i.e. join()
     * only follows a prefetch or lookup.
     */
    std::shared_ptr<const CachedSchedule> join(const std::string& key);

    /**
     * Joins every in-flight solve (end of a serving run), so
     * speculative solves are stored before stats are read and no
     * background work bleeds past run boundaries.
     */
    void drainInFlight();

    /** Counter snapshot (exact once background solves have
     *  quiesced). */
    ScheduleCacheStats stats() const;

    /** Completed schedules in the store (in-flight excluded). */
    std::size_t size() const;

  private:
    using Future =
        std::shared_future<std::shared_ptr<const CachedSchedule>>;

    struct Inflight
    {
        Future future;
        double readySec = 0.0;
    };

    struct Stored
    {
        std::shared_ptr<const CachedSchedule> schedule;
        std::list<std::string>::iterator lruIt;
    };

    /** The stored schedule for the key (moved to the LRU front), or
     *  nullptr. Caller must hold mu_. */
    std::shared_ptr<const CachedSchedule>
    findLocked(const std::string& key);

    /** Stores a solved schedule, evicting the LRU entry beyond
     *  capacity. Caller must hold mu_; the key must be absent. */
    void insertLocked(const std::string& key,
                      std::shared_ptr<const CachedSchedule> schedule);

    /**
     * Registers the key as in flight and returns the solve task for
     * the caller to submit *after releasing the lock* (a zero-worker
     * pool runs submissions inline, and the solve must never execute
     * under the cache lock). Caller must hold mu_ and have checked
     * absence.
     */
    std::function<void()> launchLocked(const std::string& key,
                                       const Scenario& mix,
                                       const ComputeFn& compute,
                                       double readySec);

    ThreadPool& pool_;
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::map<std::string, Stored> store_;
    std::list<std::string> lru_; ///< most recently used at the front
    std::map<std::string, Inflight> inflight_;
    ScheduleCacheStats stats_;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H
