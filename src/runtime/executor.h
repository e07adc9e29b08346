/**
 * @file
 * Discrete-event replay executor: plays a cached SCAR schedule
 * window-by-window on a virtual clock.
 *
 * One dispatch occupies the whole MCM (the offline schedule already
 * time-shares the package across the mix's models), so the executor
 * models the accelerator as a single resource replaying the cached
 * windows back to back — the Section III-E execution semantics. Each
 * window boundary is one event: crossing the end of window w
 * completes every request whose model placed its final layers in w
 * (the WindowEvaluator latencies captured in the cached schedule
 * determine each boundary's instant). Requests in later windows keep
 * running until their own boundary.
 *
 * Boundary preemption: window ends are the only instants where the
 * package holds no in-flight layer work (sched/scar.h's
 * WindowBoundary metadata), so a replay can be suspend()ed exactly
 * there — the remaining windows, the still-riding requests, and the
 * boundary cursor detach into a SuspendedReplay — and later
 * resume()d from the saved cursor without re-solving the schedule.
 * The fleet charges the modeled weight re-staging overhead of a
 * resume on the virtual clock; the executor itself only moves the
 * cursor. A suspended replay keeps its own shared_ptr to the cached
 * schedule, so LRU eviction while it waits cannot invalidate it.
 *
 * Decode rounds: a dispatch with llmDecodeSteps = n > 1 replays the
 * cached one-step schedule n times by window index — replay window i
 * lasts windowSec[i % perStep], and every model's last window is the
 * round's final one, perStep * n - 1 (riders complete, or rejoin the
 * decode queue, together at the round's end). Nothing is copied: the
 * cache keeps only the one-step entry, and every index-derived
 * instant is accumulated window by window in replay order, so it
 * equals the matching tick's timeSec bit for bit.
 */

#ifndef SCAR_RUNTIME_EXECUTOR_H
#define SCAR_RUNTIME_EXECUTOR_H

#include <limits>
#include <memory>
#include <vector>

#include "common/error.h"
#include "runtime/admission.h"
#include "runtime/schedule_cache.h"

namespace scar
{
namespace runtime
{

/** The executor's report for one crossed window boundary. */
struct WindowTick
{
    double timeSec = 0.0;  ///< absolute end instant of the window
    int windowIdx = -1;    ///< which schedule window just finished
    /** Requests completed at this boundary, completionSec filled in. */
    std::vector<Request> completed;
    /** True when this was the dispatch's last window (MCM now free). */
    bool dispatchDone = false;
};

/**
 * A replay detached at a window boundary by ReplayExecutor::suspend.
 *
 * Holds everything resume() needs to continue the dispatch from its
 * saved boundary cursor: the schedule reference (eviction-safe), the
 * dispatch with its still-riding requests, the index of the next
 * window to replay, and the total duration of the remaining windows
 * (the backlog cost-aware routing charges for a suspended shard).
 */
struct SuspendedReplay
{
    std::shared_ptr<const CachedSchedule> schedule;
    Dispatch dispatch;
    std::size_t window = 0;     ///< next replay window on resume
    double remainingSec = 0.0;  ///< summed durations of the rest
};

/** Replays cached schedules for one dispatch at a time. */
class ReplayExecutor
{
  public:
    /** True while a dispatch is replaying. */
    bool busy() const { return busy_; }

    /**
     * Begins replaying the cached schedule of a dispatch at startSec.
     * The schedule must have been computed for the dispatch's mix
     * (same model count and order); the executor holds a reference,
     * so an LRU-evicted schedule stays valid until the replay ends.
     * Requires !busy().
     */
    void start(std::shared_ptr<const CachedSchedule> schedule,
               Dispatch dispatch, double startSec);

    /**
     * Back-to-back duration of the replay loaded by the last start()
     * (for a resume(), of its remaining windows): the window
     * durations summed from zero in replay order — for a decode
     * round, the one-step windows repeated llmDecodeSteps times.
     * Kept after the replay ends.
     */
    double makespanSec() const { return makespanSec_; }

    /**
     * Absolute time of the next window boundary. Requires busy().
     */
    double nextBoundarySec() const;

    /**
     * Crosses the next window boundary, completing the requests whose
     * models end there. Requires busy(); clears busy() on the last
     * window.
     */
    WindowTick advance();

    /**
     * Absolute time of the replay's *last* boundary, on the same
     * accumulated clock advance() uses (windowEndSec_ summed window
     * by window). This is the exact instant busy() clears — the
     * fleet's busyUntilSec (startSec + makespanSec, one rounding) can
     * differ from it by ulps, and the fleet's quiet-interval bound
     * must never admit a dispatch-done tick, so it keys on this
     * value. Requires busy().
     */
    double finalBoundarySec() const;

    /**
     * Quiet-interval bound probe for continuous-batching joins: the
     * absolute instant of the next *step-aligned, non-final* window
     * boundary — the earliest place the fleet's join-cut rule
     * ((windowIdx + 1) % windowsPerStep == 0 on a non-dispatchDone
     * tick) could cut this decode round to merge fresh waiters.
     * Accumulated forward from the next boundary in advance()'s exact
     * rounding order, so the returned instant equals the matching
     * tick's timeSec bit for bit and a drain bounded here stops
     * strictly before the cut. Returns +infinity when no such
     * boundary remains. Requires busy().
     */
    double nextStepBoundarySec(int windowsPerStep) const;

    /**
     * The step grid of the in-flight replay: for a decode round the
     * one-step schedule's window count (every windowsPerStep()-th
     * boundary ends a step, the instants a continuous-batching join
     * may cut), 1 for any other dispatch. Derived from the loaded
     * replay, so it holds after start() and after resume() alike.
     * Requires busy().
     */
    int windowsPerStep() const;

    /**
     * Quiet-interval bound probe for mid-replay completions: the
     * earliest boundary instant at which any dispatch group selected
     * by `pred(groupIdx)` replays its last window (and so completes its
     * requests mid-replay — for autoregressive groups that completion
     * enqueues decode waiters, a routing-decision source the
     * quiet-interval bound must not cross). Same exact accumulation as
     * nextStepBoundarySec(). Returns +infinity when no selected group
     * completes at or after the next boundary. Requires busy().
     */
    template <typename Pred>
    double earliestGroupEndSec(Pred pred) const
    {
        SCAR_REQUIRE(busy_,
                     "executor: earliestGroupEndSec while idle");
        // Window durations are non-negative, so the earliest ending
        // window index is also the earliest ending instant.
        int firstEnd = std::numeric_limits<int>::max();
        for (std::size_t m = 0; m < dispatch_.groups.size(); ++m) {
            const int last = lastWindow(m);
            if (last >= static_cast<int>(window_) && last < firstEnd &&
                pred(m))
                firstEnd = last;
        }
        if (firstEnd == std::numeric_limits<int>::max())
            return std::numeric_limits<double>::infinity();
        return boundaryInstantSec(static_cast<std::size_t>(firstEnd));
    }

    /**
     * Windows not yet fully replayed, the upcoming one included.
     * Requires busy(). 1 means the replay ends at the next boundary —
     * preempting then is a no-op (the package frees anyway), which is
     * why advance()-then-check, not suspend(), handles the
     * last-window case.
     */
    std::size_t windowsRemaining() const;

    /**
     * Detaches the in-flight replay at the current boundary cursor
     * and frees the executor. Must be called exactly at a boundary —
     * i.e. directly after an advance() whose tick was not
     * dispatchDone — so no window is partially replayed. Every
     * request still riding (its model completes in a remaining
     * window) is marked preempted when `markPreempted` is set; the
     * continuous-batching join cut passes false — cutting a decode
     * round to merge waiting requests is a policy choice in the
     * riders' favor, not a preemption cost the report should tally.
     * Requires busy().
     */
    SuspendedReplay suspend(bool markPreempted = true);

    /**
     * Continues a suspended replay from its saved cursor at startSec:
     * the next boundary lands at startSec + that window's duration.
     * Unlike start(), the requests' dispatchSec is left untouched
     * (their batch already started once) and no new dispatch is
     * counted. Requires !busy().
     */
    void resume(SuspendedReplay replay, double startSec);

    /** Dispatches started so far (for report bookkeeping). */
    long dispatchCount() const { return dispatches_; }

    /**
     * The in-flight dispatch (the fleet inspects decode-round
     * metadata at window boundaries). Requires busy().
     */
    const Dispatch& dispatch() const;

  private:
    /**
     * Takes over a schedule and dispatch with the cursor at `window`,
     * whose boundary lands at startSec + its duration (start() and
     * resume()).
     */
    void load(std::shared_ptr<const CachedSchedule> schedule,
              Dispatch dispatch, std::size_t window, double startSec);

    /** Duration of replay window w (one-step windows repeat). */
    double windowSec(std::size_t w) const
    {
        return schedule_->windowSec[w % schedule_->windowSec.size()];
    }

    /**
     * Replay window in which mix model m completes: the schedule's
     * own, or for a multi-step decode round the final window.
     */
    int lastWindow(std::size_t m) const
    {
        return dispatch_.llmDecodeSteps > 1
                   ? static_cast<int>(windows_) - 1
                   : schedule_->lastWindow[m];
    }

    /**
     * Exact boundary instant of window j >= window_: windowEndSec_
     * plus the durations of windows (window_, j], accumulated left to
     * right — the same rounding sequence advance() applies, so the
     * result matches the future tick's timeSec bit for bit.
     */
    double boundaryInstantSec(std::size_t j) const;

    bool busy_ = false;
    std::shared_ptr<const CachedSchedule> schedule_;
    Dispatch dispatch_;
    std::size_t windows_ = 0;  ///< replay windows in the dispatch
    std::size_t window_ = 0;   ///< next boundary to cross
    double windowEndSec_ = 0.0; ///< absolute end of that window
    double finalBoundarySec_ = 0.0; ///< accumulated last-window end
    double makespanSec_ = 0.0; ///< summed durations from the load cursor
    long dispatches_ = 0;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_EXECUTOR_H
