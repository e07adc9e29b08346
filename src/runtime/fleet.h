/**
 * @file
 * Multi-MCM fleet serving: one admission front-end routing batched
 * dispatches across N accelerator packages — homogeneous copies of
 * one template or a heterogeneous mix of templates — with
 * asynchronous (future-backed) schedule solves. The step from one
 * package toward the "millions of users" scale of the roadmap.
 *
 * Event loop (one virtual clock across the fleet):
 *  - arrivals enqueue into the shared admission controller;
 *  - when a batch is ready and a shard is free, admission plans the
 *    dispatch (AdmissionController::plan or planDecode: mix and
 *    signature, built once), the router picks a shard on the
 *    plan's signature, and only then does commit() drain the
 *    planned boarders; the committed dispatch consults the fleet's
 *    AsyncScheduleCache under that shard's (mix, package) key: a
 *    ready schedule starts replaying immediately (plus a modeled
 *    weight re-staging overhead when the shard switches mixes); an
 *    unsolved mix starts a background solve and the shard waits
 *    until the solve's *virtual* ready instant — that wait is the
 *    reported solve-stall time;
 *  - when a batch is ready but every shard is busy, the would-be
 *    mix's solve is started speculatively in the background for the
 *    shard the dispatch is predicted to land on, so the search
 *    overlaps the in-flight replays instead of stalling them (the
 *    PR 1 executor blocked the whole loop here). No solve is
 *    launched when the cache already holds (or is already solving)
 *    the predicted target's schedule;
 *  - boundary preemption (opt-in, PreemptionOptions): when a queued
 *    request's slack shrinks to the threshold while every shard is
 *    occupied, the first in-flight replay to cross a window boundary
 *    is suspended there (executor.h SuspendedReplay), the urgent
 *    models' batch dispatches onto the freed shard, and the
 *    suspended replay resumes from its saved cursor once the shard
 *    quiets down — charged a modeled re-staging overhead on the
 *    virtual clock, never re-solved. A shard parks at most one
 *    suspended replay (no nested preemption), non-urgent dispatches
 *    cannot claim a shard that owes a resume, and a replay already
 *    in its last window is never suspended (preempting there is a
 *    no-op — the shard frees at that boundary anyway).
 *
 * Heterogeneous fleets: FleetOptions::shardTemplates gives each shard
 * its own McmConfig-style package (e.g. an NVDLA-heavy package for
 * GEMM-bound datacenter mixes next to a Shi-diannao-heavy package for
 * early-CNN AR/VR mixes). A schedule is only valid for the package it
 * was searched on, so the fleet's one schedule cache keys every entry
 * by (mix signature, Mcm::signature()): different templates never
 * share a schedule, while identical shards deduplicate fleet-wide.
 *
 * Routing policies pick the shard for a formed dispatch among the
 * currently idle shards: round-robin (fair rotation), least-loaded
 * (lowest accumulated busy time), mix-affinity (hash of the mix
 * signature, which concentrates each mix's schedules — and weight
 * residency — on one shard), or best-fit (cost-aware: estimated
 * completion instant of the dispatch on each candidate — cached
 * schedule makespan when resident, a WindowEvaluator-based estimate
 * otherwise, plus solve wait and switch overhead — lowest wins, ties
 * fall back to least-loaded). BestFit is what makes a heterogeneous
 * fleet pay off: it sends each mix to the package that executes it
 * fastest instead of to an arbitrary hash bucket.
 *
 * Determinism: everything observable (latencies, routing, stall
 * accounting, cache contents) is a function of virtual time only;
 * wall-clock solve speed affects how long run() takes, never what it
 * returns.
 *
 * Quiet-interval drain: between two consecutive *routing-decision*
 * events, the only events in the fleet are window-boundary crossings
 * — pure replay bookkeeping that touches one shard each. run()
 * computes a conservative bound B as the min over every
 * next-possible-routing-decision term — next arrival, min
 * parked-solve ready, batching timer, speculation instant, earliest
 * busy shard's replay end, plus (LLM fleets) the earliest
 * step-aligned join cut a decode replay with fresh waiters could
 * take and the earliest mid-replay autoregressive completion (it
 * enqueues decode waiters), plus (preemptive fleets) the next urgency
 * crossing on the same FP expression as the urgency timer — and
 * commits every boundary strictly before B in (time, shard index)
 * order without re-running the routing steps in between: exactly
 * the ticks, trace events and sampler rows the per-tick loop would
 * have produced, for a fraction of its work. The drain is skipped
 * around a deferred dispatch and while a preempted replay awaits its
 * resume (both re-inspect the fleet after every tick);
 * docs/ARCHITECTURE.md tabulates every bound term with its
 * conservativeness argument.
 *
 * Event calendar: the per-event O(shards) scans of the serial loop
 * (next boundary, next parked-ready, replay end) are replaced by
 * incrementally maintained ordered queues — a boundary queue, a
 * parked-solve queue and a replay-end queue — plus counts of free and
 * suspended shards, all updated at a single choke point (syncShard)
 * whenever a shard changes state, so picking the next event is
 * O(log shards).
 *
 * Routing: one flat scan over the shards serves every policy. BestFit
 * prices each shard in O(1) off a per-package quote: shards sharing a
 * template signature share the mix's cache key, the cache's view of
 * it and the makespan, so one routing decision builds the
 * (mix, package) key string — hundreds of bytes for a multi-model mix
 * — and probes the cache once per package, not once per shard.
 */

#ifndef SCAR_RUNTIME_FLEET_H
#define SCAR_RUNTIME_FLEET_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/mcm.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "runtime/admission.h"
#include "runtime/arrival.h"
#include "runtime/async_schedule_cache.h"
#include "runtime/executor.h"
#include "runtime/serving_report.h"
#include "sched/scar.h"

namespace scar
{
namespace runtime
{

/** How a formed dispatch picks among idle shards. */
enum class RoutingPolicy
{
    RoundRobin,  ///< fair rotation over idle shards
    LeastLoaded, ///< idle shard with the least accumulated busy time
    MixAffinity, ///< hash(mix signature) -> shard, fallback least-loaded
    /**
     * Cost-aware: every shard — idle or occupied — is scored by the
     * estimated completion time of this dispatch on it: current
     * backlog (replay end / parked-solve end) + switch overhead +
     * solve wait + schedule makespan (cached, or a cheap
     * window-evaluator estimate), with least-loaded tie-breaking.
     * The dispatch goes to the cheapest idle shard; when an occupied
     * shard is strictly cheaper (its backlog wait is smaller than
     * the other package's makespan handicap), the dispatch is
     * *deferred* until that shard frees up. The only policy that
     * consults the cost model instead of queue depths — essential on
     * heterogeneous fleets, where deferral keeps slow-on-this-mix
     * packages free for the traffic they are good at.
     */
    BestFit,
};

const char* routingPolicyName(RoutingPolicy policy);

/**
 * Request-level boundary-preemption knobs.
 *
 * AR/VR frame deadlines are an order of magnitude tighter than
 * datacenter SLOs; without preemption a 20 fps request landing behind
 * a long datacenter replay waits the full remaining makespan and
 * blows its deadline. With preemption enabled, a replay is suspended
 * at its next window boundary whenever a queued request's slack falls
 * to the threshold and no shard is free, the urgent batch runs, and
 * the suspended replay resumes from its cursor.
 */
struct PreemptionOptions
{
    /** Master switch. Disabled reproduces the non-preemptive runtime
     *  bit-for-bit (the urgency checks are never evaluated). */
    bool enabled = false;
    /**
     * A queued request is urgent once its slack (deadline - now) is
     * at or below this, in seconds. Larger values preempt earlier
     * (safer for the urgent request, more disruption); 0 preempts
     * only at the deadline instant itself.
     */
    double slackThresholdSec = 0.02;
    /**
     * Modeled weight re-staging charged on the virtual clock when a
     * suspended replay resumes — the preemption analogue of
     * ServingOptions::switchOverheadSec (the urgent dispatch itself
     * pays the ordinary switch overhead on the way in).
     */
    double resumeOverheadSec = 0.0;
};

/** Serving-simulation configuration (single package). */
struct ServingOptions
{
    ScarOptions scar;           ///< options for each cache-miss search
    AdmissionOptions admission; ///< batching policy
    /**
     * Modeled virtual latency of one schedule solve (the time the
     * package's host would spend searching). 0 keeps the PR 1
     * semantics: solves are free on the virtual clock and only cost
     * wall time.
     */
    double modeledSolveSec = 0.0;
    /**
     * Modeled weight re-staging overhead charged before a shard
     * starts replaying a different mix than its previous dispatch.
     */
    double switchOverheadSec = 0.0;
    /** LRU capacity of the schedule cache (0 = unbounded). */
    std::size_t cacheCapacity = 0;
    /** Request-level boundary preemption (off by default). */
    PreemptionOptions preemption;
    /**
     * Worker pool for background solves (not owned); nullptr uses
     * ThreadPool::global(). Solves run side by side on it; each
     * solve is serial inside itself.
     */
    ThreadPool* pool = nullptr;
};

/** Fleet-level configuration. */
struct FleetOptions
{
    ServingOptions serving;
    int shards = 1;                ///< MCM packages (copies of the
                                   ///< constructor template when
                                   ///< shardTemplates is empty)
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /**
     * Per-shard package templates for a heterogeneous fleet. Empty
     * (the default) keeps the homogeneous behavior: `shards` copies
     * of the constructor's template. Non-empty overrides the fleet
     * size — one shard per listed template (`shards` must then be
     * left at 1 or match the template count). Every template must
     * offer at least as many chiplets as the catalog has models.
     */
    std::vector<Mcm> shardTemplates;
    /**
     * Start a background solve for the would-be mix whenever a batch
     * is ready but every shard is busy, hiding the modeled solve
     * latency behind in-flight replays. The solve targets the shard
     * the dispatch is predicted to land on and is skipped when the
     * cache already holds (or is already solving) that shard's
     * schedule. Disabling reproduces the PR 1 blocking pipeline: a
     * new mix's search begins only at dispatch time and the shard
     * idles through all of it.
     */
    bool speculativeSolve = true;
    /**
     * BestFit only: allow deferring a dispatch when an occupied
     * shard's projected completion beats every idle candidate
     * (waiting for the right package instead of starting sooner on
     * the wrong one). Deferral helps steady traffic whose package
     * gaps exceed typical backlog waits, but while a batch waits it
     * keeps absorbing new arrivals — under bursty phase changes that
     * capture effect can cost more than the better package saves, so
     * it is toggleable. Ignored by the other routing policies.
     *
     * Deferral horizon: a dispatch only waits for an occupied shard
     * when that wait is bounded by the shard's next window boundary
     * plus one makespan of the deferred mix — the preemption-style
     * horizon at which the shard could plausibly take the work. An
     * occupied shard whose full replay backlog stretches past that
     * horizon never captures a deferral (it used to: the old bound
     * was the whole backlog, so a long replay on the "right" package
     * could park a batch for many makespans while idle shards sat
     * empty); past the horizon the dispatch goes to the best idle
     * candidate instead.
     */
    bool bestFitDefer = true;
    /**
     * Flight recorder for this fleet (not owned; nullptr disables all
     * observability). When set, run() records the full per-request
     * lifecycle (arrival -> queue -> dispatch -> replay windows ->
     * completion/preemption) as virtual-time trace events, bumps the
     * metrics registry, and samples queue depth / shard busyness /
     * cache hit rate on the recorder's fixed virtual interval.
     * Recording never changes a run's observable behavior: every hook
     * sits behind the null check, and the trace is a pure function of
     * virtual time, so it is byte-identical at any solver thread
     * count. One recorder should observe one run at a time — run()
     * resets the sampler and assumes the trace starts at t = 0.
     */
    obs::FlightRecorder* recorder = nullptr;
};

/** Simulates serving one request stream on a fleet of MCMs. */
class FleetSimulator
{
  public:
    /**
     * @param catalog the served models (traffic profile + SLOs)
     * @param mcm the package template; every shard is a copy unless
     *        options.shardTemplates assigns per-shard packages
     * @param options fleet + serving knobs
     */
    FleetSimulator(std::vector<ServedModel> catalog, Mcm mcm,
                   FleetOptions options = FleetOptions{});

    /**
     * Serves one request trace to completion and returns the
     * aggregate report (per-shard utilization, solve-stall and
     * switch-overhead totals included). The schedule cache persists
     * across run() calls; the report's cache counters cover this run
     * only.
     */
    ServingReport run(const std::vector<Request>& trace);

    /** Per-request completion records of the most recent run. */
    const std::vector<Request>& records() const { return records_; }

    /** The fleet's schedule cache, shared by every shard. */
    const AsyncScheduleCache& cache() const { return cache_; }

    int shardCount() const
    {
        return static_cast<int>(shards_.size());
    }

    const std::vector<ServedModel>& catalog() const { return catalog_; }

    /** The package template of a shard (shard 0 by default, which is
     *  the constructor template in a homogeneous fleet). */
    const Mcm& mcm(int shard = 0) const;

    /**
     * The completion-cost estimate BestFit uses for a mix on a
     * shard's package when no solved schedule is resident: a
     * single-window WindowEvaluator pass over a trivial one-segment-
     * per-model placement, in seconds. Deterministic, memoized per
     * (mix, package) signature pair. Exposed for tests and for
     * offline what-if tooling.
     */
    double estimateMakespanSec(int shard, const Scenario& mix);

  private:
    struct Shard
    {
        ReplayExecutor executor;
        // Formed dispatch waiting for its schedule's virtual ready
        // instant (the executor is idle while one is parked here).
        bool hasPending = false;
        Dispatch pending;
        std::string pendingKey; ///< (mix, package) cache key
        double pendingReadySec = 0.0;
        /** Projected end of the parked dispatch's replay (solve
         *  ready + switch + makespan or its estimate): the backlog
         *  proxy BestFit charges for a parked shard. */
        double pendingEndSec = 0.0;
        /** Set when the dispatch-time lookup already had the
         *  schedule; spares the join() re-lookup on cache hits. */
        std::shared_ptr<const CachedSchedule> pendingSchedule;
        // A replay suspended at a window boundary, waiting to resume
        // once the shard quiets down. At most one per shard; a shard
        // owing a resume only accepts *urgent* dispatches until the
        // suspended replay has finished.
        bool hasSuspended = false;
        SuspendedReplay suspended;
        std::string suspendedKey; ///< (mix, package) key of the suspended replay
        // Per-run accounting.
        long dispatchesBefore = 0; ///< executor count at run start
        double busyUntilSec = 0.0; ///< end of the current replay
        double busySec = 0.0;
        double solveStallSec = 0.0;
        double switchOverheadSec = 0.0;
        long preemptions = 0;
        double resumeOverheadSec = 0.0;
        std::string lastKey; ///< (mix, package) key of the previous replay
        /** Trace bookkeeping: start instant of the window currently
         *  replaying (the span start when the next boundary ticks). */
        double traceWindowStartSec = 0.0;
    };

    /** The (mix signature, package signature) key of shard s. */
    std::string cacheKey(const std::string& mixSig,
                         std::size_t shard) const;

    /** estimateMakespanSec with the (mix, package) memo key already
     *  derived — the internal fast path: every runtime caller holds
     *  the key it just used against the schedule cache. */
    double estimateMakespanKeyed(const std::string& key,
                                 std::size_t shard,
                                 const Scenario& mix);

    /**
     * One mix priced on one package. Shards sharing a template
     * signature share the mix's cache key, the cache's view of it,
     * and its makespan, so one routing decision derives them once per
     * package instead of once per shard.
     */
    struct PackageQuote
    {
        std::string key;          ///< (mix, package) cache key
        CachePeek peek;           ///< the cache's view of key
        double makespanSec = 0.0; ///< cached makespan, else estimate
    };

    /** One routing decision's quotes, one slot per package. */
    using Quotes = std::vector<std::optional<PackageQuote>>;

    /** Shard s's package quote for the mix, built into `quotes` on
     *  first use (nothing a decision does changes a quote). */
    const PackageQuote& quoteFor(Quotes& quotes, std::size_t s,
                                 const std::string& mixSig,
                                 const Scenario& mix);

    /**
     * BestFit's completion-cost estimate for dispatching the quoted
     * mix on shard s at nowSec: availability wait + switch overhead +
     * solve wait + makespan (cached when resident, estimated
     * otherwise).
     * With `urgent` set and preemption enabled, a busy shard is
     * charged only the wait to its next window boundary — the instant
     * boundary preemption would free it — instead of its full replay
     * backlog, so cost-aware decisions (speculation targeting,
     * deferral) see the same completion instants the preemptive
     * executor will actually deliver. A shard owing a resume is
     * additionally charged the resume overhead plus the suspended
     * replay's remaining windows for non-urgent traffic.
     */
    double dispatchCostSec(std::size_t shard,
                           const PackageQuote& quote, double nowSec,
                           bool urgent);

    /**
     * Picks the target among idle pending-free shards (for urgent
     * dispatches, shards parking a suspended replay qualify too —
     * they are reserved *against non-urgent* claims only). Returns -1
     * when there is no idle candidate — or, under BestFit with
     * allowDefer, when an occupied shard's projected completion
     * beats every idle candidate and the dispatch should wait for it
     * (the caller defers: the queue is left intact and re-routed on
     * the next event). Deferral is a latency play and only sound
     * while the queue fits in this one dispatch; under overflow the
     * caller passes allowDefer = false so every package keeps
     * contributing throughput.
     */
    int routeDispatch(const std::string& mixSig, const Scenario& mix,
                      double nowSec, bool allowDefer, bool urgent);

    /** routeDispatch's candidate rule: an idle, unparked shard that
     *  owes no resume (urgent dispatches may claim one that does). */
    bool routeCandidate(std::size_t s, bool urgent) const;

    /**
     * The shard whose (mix, package) schedule a speculative solve
     * for this mix should warm: the affinity shard (MixAffinity), the
     * cost-cheapest shard counting availability waits (BestFit), or
     * the busy shard that frees up first — the likeliest dispatch
     * target — otherwise. For an urgent mix the cost model sees
     * boundary-preemption waits, so the predicted target is the
     * replay the preemptor will actually suspend. The caller's
     * prefetch launches nothing when the cache already holds or is
     * already solving the target's (mix, package) schedule.
     */
    int speculationTarget(const std::string& mixSig,
                          const Scenario& mix, double nowSec,
                          bool urgent);

    /**
     * Restarts a shard's suspended replay at nowSec plus the modeled
     * resume overhead, restoring the busy/accounting state suspension
     * subtracted. Requires an idle shard with a parked replay.
     */
    void resumeSuspended(Shard& shard, double nowSec);

    /** The calendar keys shard s is currently registered under, so
     *  syncShard can erase them exactly before re-deriving the
     *  shard's state. */
    struct ShardIndexKeys
    {
        bool inBoundary = false;
        double boundarySec = 0.0;
        bool inPendingQ = false;
        double pendingSec = 0.0;
        bool inBusyEnd = false;
        double busyEndSec = 0.0;
        bool inFree = false;
        bool suspendedAny = false;
        bool suspendedIdle = false;
    };

    /**
     * The single choke point keeping the event calendar consistent
     * with shard s's state. Called after each
     * mutation of a shard (park, start, tick, suspend, resume,
     * quiet-interval drain); O(log N) per call.
     */
    void syncShard(std::size_t s);

    /** Re-syncs every shard (run() entry, after the per-run reset). */
    void rebuildCalendar();

    /**
     * BestFit's deferral-horizon rule: deferring to occupied shard s
     * is only allowed while the wait for it (its backlog end) stays
     * within the preemption-style horizon — the shard's next free
     * event (window boundary when replaying, solve-ready when parked)
     * plus one makespan of the quoted mix.
     */
    bool deferralWithinHorizon(std::size_t s, const PackageQuote& quote,
                               double nowSec) const;

    // --- The event loop: run() dispatches to one handler per step ---
    /** Mutable state of one run() shared by the handlers below
     *  (admission queues, trace cursor, virtual clock, ...). */
    struct RunState;
    /** The candidate next-event instants of one loop iteration. */
    struct NextEvent;

    /** Per-run reset, recorder setup, compute closures, calendar. */
    void beginRun(RunState& st);
    /** Urgency predicate at st.nowSec (false with preemption off). */
    bool urgentQueued(const RunState& st) const;
    /** Some shard could take a dispatch (urgent ones may also claim
     *  a shard parking a suspended replay). */
    bool anyCandidate(bool urgent) const;
    /** Step 0: resume suspended replays on idle shards. */
    bool resumeIdleSuspended(RunState& st);
    /** Step 1: start parked dispatches whose schedule is due. */
    bool startDueParked(RunState& st);
    /** Step 1.5: plan a decode round, route it on the plan's
     *  signature, then commit and park it on a free shard. */
    bool formDecodeRound(RunState& st);
    /** Step 2: plan a ready batch, route it on the plan's signature,
     *  then commit and park it (or drop the plan to defer). */
    bool routeReadyBatch(RunState& st);
    /** Looks up the dispatch's schedule on the target shard under
     *  dispatch.signature and parks it there until the schedule's
     *  virtual ready instant. */
    void parkDispatch(RunState& st, int target, Dispatch dispatch,
                      const char* counter);
    /** Step 3: warm the planned mix while every shard is busy (the
     *  plan is never committed; once per admission epoch). */
    void speculate(RunState& st);
    /** Step 4: the candidate instants of the next event. */
    NextEvent pickNextEvent(const RunState& st) const;
    /** Admits the next trace arrival. */
    void commitArrival(RunState& st);
    /** Records one crossed window boundary (completions, LLM
     *  transitions, lifecycle trace events). */
    void commitTick(RunState& st, int shardIdx, WindowTick& tick);
    /** The quiet-interval bound: the earliest instant any routing
     *  decision could become possible (see the file comment). */
    double quietIntervalBound(const RunState& st, const NextEvent& ev,
                              bool absorbArrivals) const;
    /** Commits every boundary strictly before the quiet-interval
     *  bound; false when none lies before it (or the drain is gated
     *  off), leaving the head boundary to boundaryTick. */
    bool drainQuietInterval(RunState& st, const NextEvent& ev);
    /** One boundary through the per-tick path, with boundary
     *  preemption and the continuous-batching join cut. */
    void boundaryTick(RunState& st, int shardIdx);
    /** Emits every sampler row due at st.nowSec. */
    void fireSamples(RunState& st);
    /** Builds the run's report from the records and shard state. */
    ServingReport summarize(RunState& st);

    /** Differential tests compare the drain against the per-tick
     *  path through this peer (tests/test_parallel_fleet.cc). */
    friend class FleetSimulatorTestPeer;
    /** Test seam: route every boundary through boundaryTick. */
    bool perTickOnly_ = false;

    std::vector<ServedModel> catalog_;
    FleetOptions options_;
    std::vector<Mcm> templates_; ///< one per shard
    ThreadPool* pool_;
    AsyncScheduleCache cache_;
    std::vector<Shard> shards_;
    std::vector<Request> records_;
    std::size_t rrNext_ = 0; ///< round-robin cursor

    // --- Event calendar (see syncShard) ---
    std::vector<ShardIndexKeys> idx_;          ///< one per shard
    std::set<std::pair<double, int>> boundaryQueue_; ///< busy shards
    std::set<std::pair<double, int>> pendingQueue_;  ///< parked shards
    std::set<std::pair<double, int>> busyEndQueue_;  ///< replay ends
    int freeCount_ = 0;          ///< idle, unparked, not suspended
    int suspendedCount_ = 0;     ///< shards owing a resume
    int suspendedIdleCount_ = 0; ///< ... of which currently idle

    /** Shard -> package: shards with equal template signatures
     *  share an id, so they share a PackageQuote. */
    std::vector<int> packageOf_;
    std::size_t numPackages_ = 0;

    /** Memoized WindowEvaluator makespan estimates, keyed like the
     *  schedule cache by (mix, package) signature. */
    std::map<std::string, double> makespanEstimates_;
    // Per-run routing-quality accounting (reset by run()).
    long contestedRoutes_ = 0;   ///< dispatches with >= 2 candidates
    long costOptimalRoutes_ = 0; ///< contested picks matching BestFit

    // --- Autoregressive serving (continuous batching) ---
    /** Any catalog entry has LlmProfile::autoregressive set. Gates
     *  every LLM code path (a catalog without LLM entries runs the
     *  pre-LLM event loop byte-for-byte) and arms the quiet-interval
     *  drain's join-cut and mid-replay-release bound terms: decode
     *  requeues and join cuts are event-loop decisions, so the drain
     *  stops strictly before the first boundary where one could
     *  occur and leaves that tick to the per-tick path. */
    bool llmEnabled_ = false;
    /** In-flight decode rounds (parked or replaying) per catalog
     *  model. Continuous batching dispatches a second concurrent
     *  round for a model only when a full batch of waiters exists;
     *  otherwise waiters join the running stream at its next step
     *  boundary. */
    std::vector<int> llmStreams_;
    // Per-run LLM accounting (reset by run()).
    long llmDecodeRounds_ = 0;
    long llmJoins_ = 0;
    long llmBoardedSum_ = 0; ///< riders across all decode rounds
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_FLEET_H
