/**
 * @file
 * Schedule-cache entries: a memoized SCAR search result plus the
 * replay view the discrete-event executor needs.
 *
 * The offline search (Scar::run) depends only on the scheduled mix —
 * which models at which batch sizes — and on the package it was
 * searched on, never on request identities or arrival times. The
 * serving runtime therefore keeps one fleet-wide store keyed by
 * (Scenario::signature(), Mcm::signature()): AsyncScheduleCache
 * (runtime/async_schedule_cache.h). This header holds what that store
 * hands out.
 *
 * Entries are shared as shared_ptr<const CachedSchedule>: the store
 * may be bounded by an LRU capacity, and eviction must not invalidate
 * a schedule an executor is still replaying — the replay keeps its
 * own reference alive.
 *
 * Each entry precomputes its replay view: per-window durations in
 * seconds and, per model, the index of the last window holding its
 * layers (a model's requests complete when that window's end boundary
 * is crossed). An autoregressive decode round is cached as its
 * one-step mix only; the executor replays that entry llmDecodeSteps
 * times by window index (runtime/executor.h), so every round of the
 * same context bucket and batch shares one entry and none is copied.
 */

#ifndef SCAR_RUNTIME_SCHEDULE_CACHE_H
#define SCAR_RUNTIME_SCHEDULE_CACHE_H

#include <functional>
#include <memory>
#include <vector>

#include "sched/scar.h"
#include "workload/scenario.h"

namespace scar
{
namespace runtime
{

/** A memoized schedule plus its replay view. */
struct CachedSchedule
{
    Scenario mix;               ///< the scenario that was scheduled
    ScheduleResult result;

    /** Duration of each schedule window in seconds, replay order. */
    std::vector<double> windowSec;
    /** Per mix-model index of its last populated window. */
    std::vector<int> lastWindow;
    /** Total back-to-back makespan of one replay, in seconds. */
    double makespanSec = 0.0;
};

/** Cache effectiveness counters. */
struct ScheduleCacheStats
{
    long hits = 0;
    long misses = 0;     ///< == number of Scar::run invocations
    long evictions = 0;  ///< LRU entries dropped at capacity

    long lookups() const { return hits + misses; }

    double
    hitRate() const
    {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits) / lookups();
    }
};

/** Runs the schedule search for a mix on a cache miss. */
using ComputeFn = std::function<ScheduleResult(const Scenario&)>;

/**
 * Computes, validates, and replay-views a schedule for a mix: the
 * schedule cache's miss path.
 */
std::shared_ptr<const CachedSchedule>
makeCachedSchedule(const Scenario& mix, const ComputeFn& compute);

/** Builds the replay view of a schedule (exposed for testing). */
void buildReplayView(CachedSchedule& entry);

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_SCHEDULE_CACHE_H
