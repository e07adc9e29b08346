#include "runtime/fleet.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <set>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"
#include "cost/window_evaluator.h"

namespace scar
{
namespace runtime
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Cost ties below this are considered equal (routing tie-breaks). */
constexpr double kCostTieEps = 1e-12;

/** Bound on the (mix, package) -> makespan-estimate memo; far above
 *  any realistic distinct-pair count per simulator, it only guards
 *  unbounded growth over very long mix-churning lifetimes. */
constexpr std::size_t kMakespanMemoCap = 65536;

/** FNV-1a: a stable signature hash (std::hash varies per platform). */
std::size_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 1469598103934665603uLL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211uLL;
    }
    return static_cast<std::size_t>(h);
}

} // namespace

const char*
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:  return "round-robin";
      case RoutingPolicy::LeastLoaded: return "least-loaded";
      case RoutingPolicy::MixAffinity: return "mix-affinity";
      case RoutingPolicy::BestFit:     return "best-fit";
    }
    return "unknown";
}

FleetSimulator::FleetSimulator(std::vector<ServedModel> catalog,
                               Mcm mcm, FleetOptions options)
    : catalog_(std::move(catalog)), options_(std::move(options)),
      pool_(options_.serving.pool != nullptr ? options_.serving.pool
                                             : &ThreadPool::global()),
      cache_(*pool_, options_.serving.cacheCapacity)
{
    SCAR_REQUIRE(!catalog_.empty(), "fleet: empty catalog");
    SCAR_REQUIRE(options_.shards >= 1, "fleet: need >= 1 shard");
    SCAR_REQUIRE(options_.serving.modeledSolveSec >= 0.0,
                 "fleet: negative modeledSolveSec");
    SCAR_REQUIRE(options_.serving.switchOverheadSec >= 0.0,
                 "fleet: negative switchOverheadSec");
    SCAR_REQUIRE(options_.serving.preemption.slackThresholdSec >= 0.0,
                 "fleet: negative preemption slack threshold");
    SCAR_REQUIRE(options_.serving.preemption.resumeOverheadSec >= 0.0,
                 "fleet: negative preemption resume overhead");
    // Mix signatures key the schedule cache by model name, so two
    // catalog entries sharing a name would silently replay each
    // other's schedules — as would names containing the signature's
    // own delimiter characters.
    std::set<std::string> names;
    for (const ServedModel& sm : catalog_) {
        SCAR_REQUIRE(sm.model.name.find_first_of("#=+@") ==
                         std::string::npos,
                     "fleet: catalog model name '", sm.model.name,
                     "' contains a signature delimiter (#, =, +, @)");
        SCAR_REQUIRE(names.insert(sm.model.name).second,
                     "fleet: duplicate catalog model name ",
                     sm.model.name);
        if (sm.llm.autoregressive)
            llmEnabled_ = true;
    }
    llmStreams_.assign(catalog_.size(), 0);

    // Heterogeneous fleets: one shard per listed template; otherwise
    // `shards` homogeneous copies of the constructor template.
    if (!options_.shardTemplates.empty()) {
        const int n =
            static_cast<int>(options_.shardTemplates.size());
        SCAR_REQUIRE(options_.shards == 1 || options_.shards == n,
                     "fleet: shards = ", options_.shards,
                     " conflicts with ", n, " shard templates");
        options_.shards = n;
        templates_ = std::move(options_.shardTemplates);
    } else {
        templates_.assign(options_.shards, mcm);
    }
    for (const Mcm& tpl : templates_)
        SCAR_REQUIRE(static_cast<int>(catalog_.size()) <=
                         tpl.numChiplets(),
                     "fleet: more catalog models than chiplets on ",
                     tpl.name());

    shards_.resize(options_.shards);

    // Packages: shards sharing a template signature price a mix
    // identically up to their own state, so they share one
    // PackageQuote per routing decision.
    std::map<std::string, int> packageIds;
    packageOf_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const auto [it, inserted] = packageIds.emplace(
            templates_[s].signature(),
            static_cast<int>(packageIds.size()));
        packageOf_[s] = it->second;
    }
    numPackages_ = packageIds.size();
    idx_.resize(shards_.size());
}

const Mcm&
FleetSimulator::mcm(int shard) const
{
    SCAR_REQUIRE(shard >= 0 &&
                     shard < static_cast<int>(templates_.size()),
                 "fleet: template index ", shard, " out of range");
    return templates_[shard];
}

std::string
FleetSimulator::cacheKey(const std::string& mixSig,
                         std::size_t shard) const
{
    // '@' appears in neither signature alphabet (model names are
    // checked at construction), so the concatenation is injective.
    return mixSig + "@" + templates_[shard].signature();
}

double
FleetSimulator::estimateMakespanSec(int shard, const Scenario& mix)
{
    SCAR_REQUIRE(shard >= 0 &&
                     shard < static_cast<int>(templates_.size()),
                 "fleet: estimate shard ", shard, " out of range");
    return estimateMakespanKeyed(
        cacheKey(mix.signature(), static_cast<std::size_t>(shard)),
        static_cast<std::size_t>(shard), mix);
}

double
FleetSimulator::estimateMakespanKeyed(const std::string& key,
                                      std::size_t shard,
                                      const Scenario& mix)
{
    SCAR_REQUIRE(mix.numModels() <=
                     templates_[shard].numChiplets(),
                 "fleet: estimate needs one chiplet per model (",
                 mix.numModels(), " models on ",
                 templates_[shard].numChiplets(), " chiplets)");
    auto it = makespanEstimates_.find(key);
    if (it != makespanEstimates_.end())
        return it->second;

    // One single-window pass over a crude but composition-aware
    // placement: each model as one whole-model segment on the unused
    // chiplet whose dataflow class minimizes its total layer cycles,
    // heaviest model choosing first. Far coarser than the searched
    // schedule, but computed in microseconds, and it sees what makes
    // one package cheaper than another for this mix — the dataflow
    // classes on offer — which is all routing needs to *rank*
    // candidate templates.
    const Mcm& tpl = templates_[shard];
    const CostDb db(mix, tpl);
    // The estimate keeps the evaluator's defaults (contention +
    // roofline on) but follows the serving configuration's comm
    // fidelity: at CommFidelity::Phased, queueing congestion on the
    // estimate placement's weight/spill flows is exactly what lets
    // BestFit see a saturated interconnect that the static count
    // ignores (gated in bench_comm_fidelity).
    EvaluatorOptions evalOpts;
    evalOpts.fidelity = options_.serving.scar.window.eval.fidelity;
    const WindowEvaluator evaluator(db, evalOpts);

    struct ModelWork
    {
        int modelIdx;
        double bestCycles;
    };
    std::vector<ModelWork> order;
    std::vector<std::array<double, kNumDataflows>> cyclesByDf(
        mix.numModels());
    for (int m = 0; m < mix.numModels(); ++m) {
        double best = kInf;
        for (const Dataflow df : kAllDataflows) {
            double total = 0.0;
            for (int l = 0; l < mix.models[m].numLayers(); ++l)
                total += db.layerCycles(m, l, df);
            cyclesByDf[m][dataflowIndex(df)] = total;
            if (tpl.numWithDataflow(df) > 0)
                best = std::min(best, total);
        }
        order.push_back({m, best});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const ModelWork& a, const ModelWork& b) {
                         return a.bestCycles > b.bestCycles;
                     });

    std::vector<bool> used(tpl.numChiplets(), false);
    WindowPlacement placement;
    placement.models.resize(mix.numModels());
    for (const ModelWork& mw : order) {
        int bestChiplet = -1;
        double bestCycles = kInf;
        for (int c = 0; c < tpl.numChiplets(); ++c) {
            if (used[c])
                continue;
            const double cycles =
                cyclesByDf[mw.modelIdx][dataflowIndex(
                    tpl.chiplet(c).spec.dataflow)];
            if (bestChiplet < 0 || cycles < bestCycles) {
                bestChiplet = c;
                bestCycles = cycles;
            }
        }
        used[bestChiplet] = true;
        ModelPlacement mp;
        mp.modelIdx = mw.modelIdx;
        mp.segments.push_back(
            {LayerRange{0,
                        mix.models[mw.modelIdx].numLayers() - 1},
             bestChiplet});
        placement.models[mw.modelIdx] = std::move(mp);
    }
    const double sec =
        cyclesToSeconds(evaluator.evaluate(placement).latencyCycles);
    // Keep the memo bounded like the schedule cache it parallels; a
    // wholesale reset is fine because re-deriving an estimate is a
    // microsecond-scale single-window pass.
    if (makespanEstimates_.size() >= kMakespanMemoCap)
        makespanEstimates_.clear();
    makespanEstimates_.emplace(key, sec);
    return sec;
}

const FleetSimulator::PackageQuote&
FleetSimulator::quoteFor(Quotes& quotes, std::size_t s,
                         const std::string& mixSig, const Scenario& mix)
{
    std::optional<PackageQuote>& slot =
        quotes[static_cast<std::size_t>(packageOf_[s])];
    if (!slot) {
        PackageQuote& quote = slot.emplace();
        quote.key = cacheKey(mixSig, s);
        quote.peek = cache_.peek(quote.key);
        quote.makespanSec =
            quote.peek.schedule != nullptr
                ? quote.peek.schedule->makespanSec
                : estimateMakespanKeyed(quote.key, s, mix);
    }
    return *slot;
}

double
FleetSimulator::dispatchCostSec(std::size_t shard,
                                const PackageQuote& quote,
                                double nowSec, bool urgent)
{
    const Shard& sh = shards_[shard];
    const PreemptionOptions& preemption =
        options_.serving.preemption;
    // A shard owing a resume must replay the suspended remainder
    // (plus the modeled re-staging) before any non-urgent dispatch
    // can claim it; an urgent dispatch jumps that queue, so its cost
    // excludes the tail.
    const double suspendedTailSec =
        sh.hasSuspended && !urgent
            ? preemption.resumeOverheadSec +
                  sh.suspended.remainingSec
            : 0.0;
    // Backlog: zero for an idle candidate; for an occupied shard the
    // replay end, or the parked dispatch's projected replay end. An
    // urgent dispatch against a busy, preemptable shard waits only
    // until the next window boundary — where the preemptor cuts in —
    // rather than the full replay (at the last window the two
    // coincide: the shard frees at that boundary either way).
    double waitSec = suspendedTailSec;
    if (sh.executor.busy()) {
        if (urgent && preemption.enabled && !sh.hasSuspended)
            waitSec +=
                std::max(0.0, sh.executor.nextBoundarySec() - nowSec);
        else
            waitSec += std::max(0.0, sh.busyUntilSec - nowSec);
    } else if (sh.hasPending) {
        waitSec += std::max(0.0, sh.pendingEndSec - nowSec);
    }

    // The replay running right before this dispatch would be the
    // current one when busy, the parked one when a dispatch waits for
    // its solve, and the last finished one otherwise.
    const std::string& prevKey =
        sh.executor.busy()
            ? sh.lastKey
            : (sh.hasPending ? sh.pendingKey : sh.lastKey);
    double switchSec = 0.0;
    if (!prevKey.empty() && prevKey != quote.key)
        switchSec = options_.serving.switchOverheadSec;

    double solveSec = 0.0;
    if (quote.peek.inFlight) {
        // An in-flight solve lands while the backlog drains; only
        // the part outlasting the wait delays this dispatch.
        solveSec =
            std::max(0.0, quote.peek.readySec - nowSec - waitSec);
    } else if (quote.peek.schedule == nullptr) {
        solveSec = options_.serving.modeledSolveSec;
    }
    return waitSec + switchSec + solveSec + quote.makespanSec;
}

bool
FleetSimulator::routeCandidate(std::size_t s, bool urgent) const
{
    // A shard parking a suspended replay is reserved for its resume:
    // only urgent dispatches (the reason it was preempted at all) may
    // claim it first — otherwise arbitrary ready batches could starve
    // the preempted requests indefinitely.
    const Shard& sh = shards_[s];
    return !sh.executor.busy() && !sh.hasPending &&
           (urgent || !sh.hasSuspended);
}

int
FleetSimulator::routeDispatch(const std::string& mixSig,
                              const Scenario& mix, double nowSec,
                              bool allowDefer, bool urgent)
{
    const std::size_t n = shards_.size();
    auto isCandidate = [&](std::size_t s) {
        return routeCandidate(s, urgent);
    };
    // Per-shard completion costs, computed at most once per routing
    // decision off the package quotes and shared between BestFit's
    // pick and the routing-quality accounting below.
    Quotes quotes(numPackages_);
    std::vector<double> costSec;
    auto costs = [&]() -> const std::vector<double>& {
        if (costSec.empty()) {
            costSec.reserve(n);
            for (std::size_t s = 0; s < n; ++s)
                costSec.push_back(dispatchCostSec(
                    s, quoteFor(quotes, s, mixSig, mix), nowSec,
                    urgent));
        }
        return costSec;
    };
    auto leastLoaded = [&]() {
        int best = -1;
        for (std::size_t s = 0; s < n; ++s) {
            if (!isCandidate(s))
                continue;
            if (best < 0 || shards_[s].busySec < shards_[best].busySec)
                best = static_cast<int>(s);
        }
        return best;
    };
    auto bestFit = [&]() {
        // Lowest estimated completion cost; with allowDefer the
        // occupied shards compete too, charged their backlog. Ties
        // go to the idle shard, then the least-loaded, then the
        // lowest index — the homogeneous-fleet degeneration of
        // BestFit. When the cheapest shard is occupied, return -1:
        // the dispatch defers until that shard frees rather than
        // starting sooner on a package that would finish later.
        // Deferral is myopic about the queue behind this dispatch,
        // so the caller disables it under overflow — otherwise a
        // saturated preferred shard would starve the rest of the
        // fleet while the backlog compounds.
        int best = -1;
        double bestCost = kInf;
        for (std::size_t s = 0; s < n; ++s) {
            if (!allowDefer && !isCandidate(s))
                continue;
            const double cost = costs()[s];
            bool better = best < 0 || cost < bestCost - kCostTieEps;
            if (!better && cost < bestCost + kCostTieEps) {
                const bool candidate = isCandidate(s);
                const bool bestCandidate = isCandidate(best);
                better = (candidate && !bestCandidate) ||
                         (candidate == bestCandidate &&
                          shards_[s].busySec < shards_[best].busySec);
            }
            if (better) {
                best = static_cast<int>(s);
                bestCost = cost;
            }
        }
        if (best < 0)
            return -1;
        if (isCandidate(best))
            return best;
        // An occupied shard won: defer only while its backlog fits
        // the deferral horizon (next boundary / solve-ready plus one
        // makespan of this mix); past it, the batch takes the best
        // idle candidate instead of waiting out a long replay.
        const std::size_t occupied = static_cast<std::size_t>(best);
        if (deferralWithinHorizon(
                occupied, quoteFor(quotes, occupied, mixSig, mix),
                nowSec))
            return -1;
        int cbest = -1;
        double cbestCost = kInf;
        for (std::size_t s = 0; s < n; ++s) {
            if (!isCandidate(s))
                continue;
            const double cost = costs()[s];
            bool better =
                cbest < 0 || cost < cbestCost - kCostTieEps;
            if (!better && cost < cbestCost + kCostTieEps)
                better = shards_[s].busySec <
                         shards_[cbest].busySec;
            if (better) {
                cbest = static_cast<int>(s);
                cbestCost = cost;
            }
        }
        return cbest;
    };

    int chosen = -1;
    switch (options_.routing) {
      case RoutingPolicy::RoundRobin:
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t s = (rrNext_ + k) % n;
            if (isCandidate(s)) {
                rrNext_ = s + 1;
                chosen = static_cast<int>(s);
                break;
            }
        }
        break;
      case RoutingPolicy::LeastLoaded:
        chosen = leastLoaded();
        break;
      case RoutingPolicy::MixAffinity: {
        const std::size_t target = fnv1a(mixSig) % n;
        chosen = isCandidate(target) ? static_cast<int>(target)
                                     : leastLoaded();
        break;
      }
      case RoutingPolicy::BestFit:
        chosen = bestFit();
        break;
    }
    if (chosen < 0)
        return -1;

    // Routing-quality accounting: when the policy actually had a
    // choice, did it pick a candidate the cost model also ranks
    // cheapest? (BestFit is cost-optimal by construction; the others
    // reveal how much completion time their heuristic leaves behind.)
    std::size_t candidates = 0;
    for (std::size_t s = 0; s < n; ++s)
        candidates += isCandidate(s) ? 1 : 0;
    if (candidates >= 2) {
        ++contestedRoutes_;
        double minCost = kInf;
        for (std::size_t s = 0; s < n; ++s) {
            if (isCandidate(s))
                minCost = std::min(minCost, costs()[s]);
        }
        if (costs()[chosen] <= minCost + kCostTieEps)
            ++costOptimalRoutes_;
    }
    return chosen;
}

int
FleetSimulator::speculationTarget(const std::string& mixSig,
                                  const Scenario& mix, double nowSec,
                                  bool urgent)
{
    const std::size_t n = shards_.size();
    int target = -1;
    switch (options_.routing) {
      case RoutingPolicy::MixAffinity:
        target = static_cast<int>(fnv1a(mixSig) % n);
        break;
      case RoutingPolicy::BestFit: {
        // Predict with the dispatch cost model itself, availability
        // waits included: the shard BestFit would pick once free.
        // For an urgent mix the costs see boundary-preemption waits,
        // so the solve warms the shard the preemptor will suspend.
        Quotes quotes(numPackages_);
        double bestCost = kInf;
        for (std::size_t s = 0; s < n; ++s) {
            const double cost = dispatchCostSec(
                s, quoteFor(quotes, s, mixSig, mix), nowSec, urgent);
            if (target < 0 || cost < bestCost - kCostTieEps) {
                target = static_cast<int>(s);
                bestCost = cost;
            }
        }
        break;
      }
      case RoutingPolicy::RoundRobin:
      case RoutingPolicy::LeastLoaded: {
        // The dispatch will consult whichever shard becomes available
        // first — mid-replay (busyUntilSec) or parked waiting on a
        // solve (pendingReadySec) — so warm that shard's cache.
        double freeAt = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            double availableAt;
            if (shards_[s].executor.busy())
                availableAt = shards_[s].busyUntilSec;
            else if (shards_[s].hasPending)
                availableAt = shards_[s].pendingReadySec;
            else
                continue;
            if (target < 0 || availableAt < freeAt) {
                target = static_cast<int>(s);
                freeAt = availableAt;
            }
        }
        break;
      }
    }
    return target < 0 ? 0 : target;
}

void
FleetSimulator::resumeSuspended(Shard& shard, double nowSec)
{
    SCAR_REQUIRE(shard.hasSuspended && !shard.executor.busy() &&
                     !shard.hasPending,
                 "fleet: resume on a shard not parking a suspended "
                 "replay");
    const double overheadSec =
        options_.serving.preemption.resumeOverheadSec;
    const double startSec = nowSec + overheadSec;
    shard.resumeOverheadSec += overheadSec;
    if (obs::FlightRecorder* const rec = options_.recorder) {
        const int tid =
            static_cast<int>(&shard - shards_.data()) + 1;
        rec->trace().instantVirtual(
            tid, "resume", "preemption", nowSec,
            {obs::argNum("remaining_sec",
                         shard.suspended.remainingSec)});
        if (overheadSec > 0.0)
            rec->trace().completeVirtual(tid, "resume-overhead",
                                         "overhead", nowSec,
                                         overheadSec);
        rec->metrics().counter("preemption.resumes").inc();
    }
    // Add back the remainder that suspension subtracted; the replay
    // continues from its saved cursor, never re-solved (the
    // SuspendedReplay pins the schedule, so even an LRU-evicted
    // cache entry stays valid).
    shard.busySec += shard.suspended.remainingSec;
    shard.busyUntilSec = startSec + shard.suspended.remainingSec;
    shard.traceWindowStartSec = startSec;
    shard.lastKey = shard.suspendedKey;
    shard.hasSuspended = false;
    shard.executor.resume(std::move(shard.suspended), startSec);
    shard.suspended = SuspendedReplay{};
    shard.suspendedKey.clear();
}

void
FleetSimulator::syncShard(std::size_t s)
{
    Shard& sh = shards_[s];
    ShardIndexKeys& k = idx_[s];
    const int si = static_cast<int>(s);

    // Retract the keys the shard is registered under. Every calendar
    // mutation flows through this function, so the stored snapshot
    // keys are exact.
    if (k.inBoundary)
        boundaryQueue_.erase({k.boundarySec, si});
    if (k.inPendingQ)
        pendingQueue_.erase({k.pendingSec, si});
    if (k.inBusyEnd)
        busyEndQueue_.erase({k.busyEndSec, si});
    if (k.inFree)
        --freeCount_;
    if (k.suspendedAny)
        --suspendedCount_;
    if (k.suspendedIdle)
        --suspendedIdleCount_;

    // Re-derive from the shard's current state.
    const bool busy = sh.executor.busy();
    k.inBoundary = busy;
    k.inBusyEnd = busy;
    if (busy) {
        k.boundarySec = sh.executor.nextBoundarySec();
        boundaryQueue_.insert({k.boundarySec, si});
        // The quiet-interval bound keys on the executor's accumulated
        // final boundary, not busyUntilSec: the two can differ by
        // ulps and a drain must never admit a dispatch-done tick.
        k.busyEndSec = sh.executor.finalBoundarySec();
        busyEndQueue_.insert({k.busyEndSec, si});
    }
    k.inPendingQ = sh.hasPending && !busy;
    if (k.inPendingQ) {
        k.pendingSec = sh.pendingReadySec;
        pendingQueue_.insert({k.pendingSec, si});
    }
    k.suspendedAny = sh.hasSuspended;
    if (k.suspendedAny)
        ++suspendedCount_;
    k.suspendedIdle = sh.hasSuspended && !busy && !sh.hasPending;
    if (k.suspendedIdle)
        ++suspendedIdleCount_;

    // Candidate rule of routeDispatch's non-urgent path.
    k.inFree = !busy && !sh.hasPending && !sh.hasSuspended;
    if (k.inFree)
        ++freeCount_;
}

void
FleetSimulator::rebuildCalendar()
{
    boundaryQueue_.clear();
    pendingQueue_.clear();
    busyEndQueue_.clear();
    freeCount_ = 0;
    suspendedCount_ = 0;
    suspendedIdleCount_ = 0;
    idx_.assign(shards_.size(), ShardIndexKeys{});
    for (std::size_t s = 0; s < shards_.size(); ++s)
        syncShard(s);
}

bool
FleetSimulator::deferralWithinHorizon(std::size_t s,
                                      const PackageQuote& quote,
                                      double nowSec) const
{
    const Shard& sh = shards_[s];
    // The shard's next chance to take work: its next window boundary
    // while replaying (the instant preemption could cut in), or its
    // parked solve's ready instant.
    const double nextFreeSec = sh.executor.busy()
                                   ? sh.executor.nextBoundarySec()
                                   : sh.pendingReadySec;
    const double horizonSec =
        std::max(0.0, nextFreeSec - nowSec) + quote.makespanSec;
    const double occWaitSec = std::max(
        0.0, (sh.executor.busy() ? sh.busyUntilSec : sh.pendingEndSec) -
                 nowSec);
    return occWaitSec <= horizonSec + kCostTieEps;
}

/** Mutable state of one run(), shared by the event handlers. */
struct FleetSimulator::RunState
{
    RunState(const std::vector<Request>& trace_,
             const std::vector<ServedModel>& catalog,
             const AdmissionOptions& admissionOptions,
             obs::FlightRecorder* recorder)
        : trace(trace_), admission(catalog, admissionOptions),
          rec(recorder)
    {
    }

    const std::vector<Request>& trace;
    AdmissionController admission;
    // Flight recorder: rec == nullptr is the disabled state, and every
    // hook sits behind that check — a disabled run does no
    // observability work and stays byte-identical to an uninstrumented
    // build. All recorded events carry virtual timestamps and are
    // emitted from this single-threaded loop, so an enabled trace is
    // deterministic at any solver thread count.
    obs::FlightRecorder* const rec;
    /** One compute closure per shard: a schedule is only meaningful
     *  for the package it was searched on. */
    std::vector<ComputeFn> computes;
    ScheduleCacheStats cacheBefore; ///< cache counters at run start
    std::size_t next = 0;           ///< next arrival to admit
    double nowSec = 0.0;
    // The speculative peek only changes when the queues do; skip the
    // Scenario/signature rebuild on the (frequent) other events.
    long queueEpoch = 0;
    long lastSpeculativeEpoch = -1;
    long paddedSlots = 0;
    /** Some queued request is urgent (refreshed once per iteration:
     *  nothing before the next event changes the queues). */
    bool urgent = false;
    /** BestFit deferred this iteration's ready batch. */
    bool deferred = false;
};

struct FleetSimulator::NextEvent
{
    double tArrival = kInf;
    double tBoundary = kInf;
    int boundaryShard = -1;
    double tPending = kInf;
    double tTimer = kInf;
    double tUrgent = kInf;
    double tNext = kInf; ///< the min of the above
};

ServingReport
FleetSimulator::run(const std::vector<Request>& trace)
{
    for (std::size_t i = 1; i < trace.size(); ++i)
        SCAR_REQUIRE(trace[i - 1].arrivalSec <= trace[i].arrivalSec,
                     "fleet: trace not sorted by arrival time");

    RunState st(trace, catalog_, options_.serving.admission,
                options_.recorder);
    beginRun(st);
    while (st.next < trace.size() || st.admission.queuedCount() > 0 ||
           (llmEnabled_ && st.admission.decodeQueuedCount() > 0) ||
           !boundaryQueue_.empty() || !pendingQueue_.empty() ||
           suspendedCount_ > 0) {
        fireSamples(st);
        st.urgent = urgentQueued(st);
        st.deferred = false;
        if (resumeIdleSuspended(st) || startDueParked(st) ||
            formDecodeRound(st) || routeReadyBatch(st))
            continue;
        if (st.deferred && st.rec)
            st.rec->metrics().counter("routing.deferrals").inc();
        speculate(st);

        const NextEvent ev = pickNextEvent(st);
        st.nowSec = std::max(st.nowSec, ev.tNext);
        if (ev.tArrival <= ev.tBoundary && ev.tArrival <= ev.tPending &&
            ev.tArrival <= ev.tTimer && ev.tArrival <= ev.tUrgent) {
            commitArrival(st);
        } else if (ev.tBoundary <= ev.tPending &&
                   ev.tBoundary <= ev.tTimer &&
                   ev.tBoundary <= ev.tUrgent) {
            if (!drainQuietInterval(st, ev))
                boundaryTick(st, ev.boundaryShard);
        }
        // Pending-ready, timer, and urgency events need no action
        // beyond advancing the clock: the loop head fires next
        // iteration.
    }
    return summarize(st);
}

void
FleetSimulator::beginRun(RunState& st)
{
    // Per-run accounting reset; the cache persists across runs.
    st.cacheBefore = cache_.stats();
    for (Shard& shard : shards_) {
        SCAR_REQUIRE(!shard.executor.busy() && !shard.hasPending &&
                         !shard.hasSuspended,
                     "fleet: run() while a shard is mid-dispatch");
        shard.dispatchesBefore = shard.executor.dispatchCount();
        shard.busySec = 0.0;
        shard.solveStallSec = 0.0;
        shard.switchOverheadSec = 0.0;
        shard.preemptions = 0;
        shard.resumeOverheadSec = 0.0;
        shard.lastKey.clear();
        shard.llmWindowsPerStep = 1;
    }
    contestedRoutes_ = 0;
    costOptimalRoutes_ = 0;
    llmDecodeRounds_ = 0;
    llmJoins_ = 0;
    llmBoardedSum_ = 0;
    std::fill(llmStreams_.begin(), llmStreams_.end(), 0);
    if (obs::FlightRecorder* const rec = st.rec) {
        rec->trace().setThreadName(0, "fleet");
        for (std::size_t s = 0; s < shards_.size(); ++s)
            rec->trace().setThreadName(
                static_cast<int>(s) + 1,
                "shard " + std::to_string(s) + " (" +
                    templates_[s].name() + ")");
        std::vector<std::string> columns{"queue_depth", "busy_shards",
                                         "cache_hit_rate"};
        for (std::size_t s = 0; s < shards_.size(); ++s)
            columns.push_back("shard" + std::to_string(s) + "_busy");
        for (const ServedModel& sm : catalog_)
            columns.push_back("queue_" + sm.model.name);
        rec->samples().reset();
        rec->samples().setColumns(std::move(columns));
    }
    records_.clear();
    records_.reserve(st.trace.size());

    st.computes.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Mcm* tpl = &templates_[s];
        st.computes.push_back([this, tpl](const Scenario& mix) {
            Scar scar(mix, *tpl, options_.serving.scar);
            return scar.run();
        });
    }

    // Derive every calendar entry from the reset shards before the
    // loop reads them.
    rebuildCalendar();
}

bool
FleetSimulator::urgentQueued(const RunState& st) const
{
    // Preemption-eligibility: some queued request's slack has shrunk
    // to the threshold. Gated on `enabled` first so a disabled run
    // never evaluates the urgency predicates (bit-identical to the
    // non-preemptive runtime).
    const PreemptionOptions& preemption = options_.serving.preemption;
    return preemption.enabled &&
           st.admission.urgentQueued(st.nowSec,
                                     preemption.slackThresholdSec);
}

bool
FleetSimulator::anyCandidate(bool urgent) const
{
    // Mirrors routeCandidate: a shard parking a suspended replay only
    // counts for urgent dispatches.
    return freeCount_ > 0 || (urgent && suspendedIdleCount_ > 0);
}

bool
FleetSimulator::resumeIdleSuspended(RunState& st)
{
    // Resume suspended replays on idle shards. While an urgent
    // request is queued the shard stays reserved for it (that is
    // what it was preempted for — and serving a back-to-back urgent
    // batch before resuming avoids a pointless resume/re-preempt
    // cycle); the moment urgency clears, the preempted replay
    // continues from its cursor.
    bool resumed = false;
    if (suspendedCount_ > 0) {
        for (Shard& shard : shards_) {
            if (!shard.hasSuspended || shard.executor.busy() ||
                shard.hasPending || st.urgent)
                continue;
            resumeSuspended(shard, st.nowSec);
            syncShard(static_cast<std::size_t>(&shard -
                                               shards_.data()));
            resumed = true;
        }
    }
    return resumed;
}

bool
FleetSimulator::startDueParked(RunState& st)
{
    // Start parked dispatches whose schedule is usable now. The
    // pending queue holds exactly the parked-idle shards keyed by
    // ready instant, so the due set is its prefix; the serial loop
    // visited shards in index order, so sort the due indices before
    // starting them (start order fixes the trace event order and the
    // switch-overhead charging instant).
    bool started = false;
    std::vector<int> dueIdx;
    for (const auto& [readySec, si] : pendingQueue_) {
        if (readySec > st.nowSec)
            break;
        dueIdx.push_back(si);
    }
    std::sort(dueIdx.begin(), dueIdx.end());
    for (const int si : dueIdx) {
        Shard& shard = shards_[si];
        // Wall-clock join: blocks only if the background solve is
        // still running; the virtual clock is unaffected. Cache hits
        // parked their schedule at lookup time.
        auto schedule = shard.pendingSchedule != nullptr
                            ? std::move(shard.pendingSchedule)
                            : cache_.join(shard.pendingKey);
        // A decode round replays the cached *one-step* schedule
        // llmDecodeSteps times by window index (ReplayExecutor); the
        // cache key stays the one-step signature so every round of
        // the same (context bucket, batch) shares one cached solve.
        // llmWindowsPerStep marks the step-aligned boundaries for the
        // join cut.
        shard.llmWindowsPerStep =
            shard.pending.llmDecodeSteps > 0
                ? static_cast<int>(schedule->windowSec.size())
                : 1;
        double startSec = st.nowSec;
        if (!shard.lastKey.empty() &&
            shard.lastKey != shard.pendingKey &&
            options_.serving.switchOverheadSec > 0.0) {
            startSec += options_.serving.switchOverheadSec;
            shard.switchOverheadSec +=
                options_.serving.switchOverheadSec;
            if (st.rec)
                st.rec->trace().completeVirtual(
                    si + 1, "switch", "overhead", st.nowSec,
                    options_.serving.switchOverheadSec);
        }
        if (st.rec) {
            for (const BatchGroup& group : shard.pending.groups)
                for (const Request& req : group.requests)
                    st.rec->trace().asyncInstantVirtual(
                        static_cast<std::uint64_t>(req.id),
                        "dispatch", "request", startSec);
        }
        shard.executor.start(std::move(schedule),
                             std::move(shard.pending), startSec);
        shard.busySec += shard.executor.makespanSec();
        shard.busyUntilSec = startSec + shard.executor.makespanSec();
        shard.traceWindowStartSec = startSec;
        shard.lastKey = shard.pendingKey;
        shard.hasPending = false;
        shard.pendingKey.clear();
        shard.pendingSchedule.reset();
        syncShard(static_cast<std::size_t>(si));
        started = true;
    }
    return started;
}

bool
FleetSimulator::formDecodeRound(RunState& st)
{
    // Decode rounds: a free shard and decode-queue waiters form a
    // single-model decode dispatch with no batching timer
    // (generation cadence dominates; a waiting sequence is never
    // better off idle). Runs before routeReadyBatch so decode streams
    // keep their cadence against competing prefill batches. Waiters
    // appear only at commitTick (prefill completion, round end) or a
    // join cut, so the very next loop iteration sees them here — the
    // event calendar needs no extra timer for decode work.
    if (!llmEnabled_ || freeCount_ == 0 ||
        st.admission.decodeQueuedCount() == 0)
        return false;
    const bool continuous = options_.serving.admission.llmBatching ==
                            LlmBatchingMode::Continuous;
    int decodeModel = -1;
    for (std::size_t m = 0; m < catalog_.size(); ++m) {
        const int waiters =
            st.admission.decodeQueuedCount(static_cast<int>(m));
        if (waiters == 0)
            continue;
        // Continuous batching holds waiters for the running stream's
        // next step boundary (join cut) instead of opening a rival
        // round — unless a full batch is already waiting, which earns
        // its own stream.
        if (continuous && llmStreams_[m] > 0 &&
            waiters < catalog_[m].model.batch)
            continue;
        decodeModel = static_cast<int>(m);
        break;
    }
    if (decodeModel < 0)
        return false;
    // The peeked mix and its signature are memoized per (model,
    // context bucket, batch), so routing a round rebuilds nothing.
    const DecodeMix& peeked = st.admission.peekDecodeMix(decodeModel);
    const int target = routeDispatch(peeked.signature, peeked.mix,
                                     st.nowSec, /*allowDefer=*/false,
                                     /*urgent=*/false);
    SCAR_ASSERT(target >= 0, "fleet: decode round found no shard with "
                             "free shards available");
    ++st.queueEpoch;
    Dispatch dispatch = st.admission.formDecodeDispatch(decodeModel);
    // The signature is a pure function of the memo keys, so matching
    // keys prove the formed mix is the routed one.
    SCAR_ASSERT(dispatch.catalogIdx.front() == peeked.model &&
                    dispatch.llmCtxBucket == peeked.ctxBucket &&
                    dispatch.groups.front().batch == peeked.batch,
                "fleet: decode dispatch mix diverged from the routed "
                "peek");
    // Decode rounds do not add padded slots: occupancy stays a
    // prefill-batching metric, and each request would otherwise be
    // charged once per round. Decode batch fill is reported as
    // llmMeanDecodeBatch.
    ++llmStreams_[decodeModel];
    ++llmDecodeRounds_;
    llmBoardedSum_ +=
        static_cast<long>(dispatch.groups.front().requests.size());
    parkDispatch(st, target, std::move(dispatch), peeked.signature,
                 "dispatches.decode");
    return true;
}

bool
FleetSimulator::routeReadyBatch(RunState& st)
{
    // Free shard + ready batch: route, then form and park a dispatch.
    // Routing happens on the peeked mix *before* the queues are
    // consumed so BestFit can defer: when an occupied shard's
    // projected completion beats every idle candidate, the batch
    // stays queued and is re-routed at the next event (typically when
    // the preferred shard frees up).
    const PreemptionOptions& preemption = options_.serving.preemption;
    AdmissionController& admission = st.admission;
    const bool urgent = st.urgent;
    // Speculative partial dispatch: with the flag set, a shard that
    // would otherwise idle claims whatever is queued right now
    // instead of waiting out the batching timer.
    const bool partialReady =
        options_.serving.admission.speculativePartialDispatch &&
        admission.queuedCount() > 0 && freeCount_ > 0;
    if (!(admission.ready(st.nowSec) || urgent || partialReady) ||
        !anyCandidate(urgent))
        return false;
    // An urgent batch boards only the models holding an urgent
    // request (shortest possible fast lane) and is dispatchable
    // regardless of batch-fill / aging state.
    const Scenario peeked =
        urgent ? admission.peekUrgentMix(st.nowSec,
                                         preemption.slackThresholdSec)
               : admission.peekMix();
    const std::string sig = peeked.signature();
    // Overflow check: padded dispatch batches cover every queued
    // request unless some queue exceeded its cap, in which case
    // requests stay behind and deferral would starve the fleet's
    // throughput.
    int batchSlots = 0;
    for (const Model& model : peeked.models)
        batchSlots += model.batch;
    // Never defer an urgent dispatch: it exists because some request
    // cannot afford to wait for a better package.
    const bool allowDefer = options_.bestFitDefer && !urgent &&
                            admission.queuedCount() <= batchSlots;
    const int target =
        routeDispatch(sig, peeked, st.nowSec, allowDefer, urgent);
    if (target < 0) {
        st.deferred = true;
        return false;
    }
    ++st.queueEpoch;
    Dispatch dispatch =
        urgent ? admission.formUrgentDispatch(
                     st.nowSec, preemption.slackThresholdSec)
               : admission.formDispatch(st.nowSec);
    SCAR_ASSERT(dispatch.mix.signature() == sig,
                "fleet: dispatch mix diverged from the routed peek");
    for (const BatchGroup& group : dispatch.groups)
        st.paddedSlots += group.batch;
    parkDispatch(st, target, std::move(dispatch), sig,
                 urgent ? "dispatches.urgent" : "dispatches.regular");
    return true;
}

void
FleetSimulator::parkDispatch(RunState& st, int target,
                             Dispatch dispatch, const std::string& sig,
                             const char* counter)
{
    Shard& shard = shards_[target];
    const std::string key =
        cacheKey(sig, static_cast<std::size_t>(target));
    const AsyncLookup found = cache_.lookup(
        key, dispatch.mix, st.computes[target], st.nowSec,
        options_.serving.modeledSolveSec);
    double endSec = found.readySec;
    if (!shard.lastKey.empty() && shard.lastKey != key)
        endSec += options_.serving.switchOverheadSec;
    double makespanSec =
        found.schedule != nullptr
            ? found.schedule->makespanSec
            : estimateMakespanKeyed(
                  key, static_cast<std::size_t>(target), dispatch.mix);
    // A decode round replays its one-step schedule llmDecodeSteps
    // times.
    if (dispatch.llmDecodeSteps > 0)
        makespanSec *= dispatch.llmDecodeSteps;
    endSec += makespanSec;
    shard.hasPending = true;
    shard.pending = std::move(dispatch);
    shard.pendingKey = key;
    shard.pendingReadySec = found.readySec;
    shard.pendingEndSec = endSec;
    shard.pendingSchedule = found.schedule;
    syncShard(static_cast<std::size_t>(target));
    shard.solveStallSec += std::max(0.0, found.readySec - st.nowSec);
    if (obs::FlightRecorder* const rec = st.rec) {
        const int tid = target + 1;
        // lookup() counts joining an in-flight solve as a hit; only a
        // lookup that launched the solve is a miss (matches
        // ScheduleCacheStats).
        const bool hit = !found.startedSolve;
        rec->trace().instantVirtual(tid,
                                    hit ? "cache-hit" : "cache-miss",
                                    "cache", st.nowSec,
                                    {obs::argText("mix", sig)});
        rec->metrics()
            .counter(hit ? "cache.hits" : "cache.misses")
            .inc();
        rec->metrics().counter(counter).inc();
        if (found.readySec > st.nowSec)
            rec->trace().completeVirtual(
                tid, "solve-stall", "stall", st.nowSec,
                found.readySec - st.nowSec,
                {obs::argText("mix", sig)});
    }
}

void
FleetSimulator::speculate(RunState& st)
{
    // Ready batch but every shard occupied: solve the would-be mix in
    // the background so the search overlaps the replays. Only
    // worthwhile when solves cost virtual time — with a free
    // (modeledSolveSec = 0) solve there is no stall to hide, and
    // speculating on transient peek mixes would just burn extra
    // searches and distort the hit-rate counters.
    if (!options_.speculativeSolve ||
        options_.serving.modeledSolveSec <= 0.0 ||
        !(st.admission.ready(st.nowSec) || st.urgent) ||
        st.queueEpoch == st.lastSpeculativeEpoch)
        return;
    st.lastSpeculativeEpoch = st.queueEpoch;
    // Under urgency the next dispatch out is the urgent mix, so that
    // is the schedule worth warming.
    const Scenario peeked =
        st.urgent ? st.admission.peekUrgentMix(
                        st.nowSec,
                        options_.serving.preemption.slackThresholdSec)
                  : st.admission.peekMix();
    const std::string peekedSig = peeked.signature();
    const int target =
        speculationTarget(peekedSig, peeked, st.nowSec, st.urgent);
    // A schedule already resident (or already solving) for the
    // predicted target makes a speculative solve pure waste: the
    // dispatch-time lookup will hit, so prefetch launches nothing.
    const bool launched = cache_.prefetch(
        cacheKey(peekedSig, static_cast<std::size_t>(target)), peeked,
        st.computes[target],
        st.nowSec + options_.serving.modeledSolveSec);
    if (launched && st.rec) {
        st.rec->trace().instantVirtual(
            target + 1, "speculative-solve", "cache", st.nowSec,
            {obs::argText("mix", peekedSig)});
        st.rec->metrics().counter("solves.speculative").inc();
    }
}

FleetSimulator::NextEvent
FleetSimulator::pickNextEvent(const RunState& st) const
{
    // The calendar's ordered sets hand over each next-event time in
    // O(log N); the boundary head ties exactly like the old scan
    // (strict <, so the lowest shard index wins equal times — set
    // order is (time, idx)).
    const AdmissionController& admission = st.admission;
    const PreemptionOptions& preemption = options_.serving.preemption;
    NextEvent ev;
    if (st.next < st.trace.size())
        ev.tArrival = st.trace[st.next].arrivalSec;
    if (!boundaryQueue_.empty()) {
        ev.tBoundary = boundaryQueue_.begin()->first;
        ev.boundaryShard = boundaryQueue_.begin()->second;
    }
    if (!pendingQueue_.empty())
        ev.tPending = pendingQueue_.begin()->first;
    // The batching timer only matters while a shard can accept a
    // dispatch: busy shards dispatch as soon as they free up. A
    // deferred batch is already past its timer — its next chance is
    // a state change (boundary / solve-ready / arrival), and
    // re-arming the elapsed timer would spin the loop in place.
    if (!st.deferred && anyCandidate(false) &&
        admission.queuedCount() > 0)
        ev.tTimer = admission.nextForcedDispatchSec();
    // Urgency timer: the instant the next queued request's slack
    // crosses the preemption threshold, an urgent dispatch can claim
    // an idle shard without waiting for batch fill or the
    // forced-dispatch timer. Only armed while a candidate exists
    // (with none, the urgent batch's next chance is a window boundary
    // — where the preemptor acts — so boundary events already cover
    // it) and while not already urgent (routeReadyBatch either
    // dispatched or, with no candidate, boundaries drive progress;
    // re-arming an elapsed instant would spin).
    if (preemption.enabled && !st.urgent &&
        admission.queuedCount() > 0 && anyCandidate(true))
        ev.tUrgent = admission.earliestDeadlineSec() -
                     preemption.slackThresholdSec;
    ev.tNext = std::min(
        {ev.tArrival, ev.tBoundary, ev.tPending, ev.tTimer, ev.tUrgent});
    SCAR_REQUIRE(ev.tNext < kInf, "fleet: event loop stalled with ",
                 admission.queuedCount(), " queued requests");
    return ev;
}

void
FleetSimulator::commitArrival(RunState& st)
{
    // Timestamps come from the request itself, so the rendered trace
    // is identical whether the arrival is committed on its own event
    // or absorbed into a quiet-interval drain.
    const Request& req = st.trace[st.next];
    st.admission.enqueue(req);
    if (st.rec) {
        const std::string& model = catalog_[req.modelIdx].model.name;
        std::vector<obs::TraceArg> args{obs::argText("model", model)};
        if (req.deadlineSec < kInf)
            args.push_back(obs::argNum("deadline_sec", req.deadlineSec));
        st.rec->trace().asyncBeginVirtual(
            static_cast<std::uint64_t>(req.id), "req " + model,
            "request", req.arrivalSec, std::move(args));
        st.rec->metrics().counter("requests.arrived").inc();
    }
    ++st.next;
    ++st.queueEpoch;
}

void
FleetSimulator::commitTick(RunState& st, int shardIdx, WindowTick& tick)
{
    Shard& sh = shards_[shardIdx];
    obs::FlightRecorder* const rec = st.rec;
    if (rec)
        rec->trace().completeVirtual(
            shardIdx + 1, "w" + std::to_string(tick.windowIdx),
            "replay", sh.traceWindowStartSec,
            tick.timeSec - sh.traceWindowStartSec,
            {obs::argInt("window", tick.windowIdx)});
    sh.traceWindowStartSec = tick.timeSec;
    // Autoregressive transition. For an LLM request a "completion" at
    // a window boundary is the end of one prefill or one decode round,
    // not necessarily the end of the request: unfinished sequences
    // re-enter the decode queue, and tick.completed is filtered down
    // to the truly retiring requests before the generic record loop
    // below. Empty for non-LLM catalogs, so a run without LLM entries
    // takes the pre-LLM path bit-for-bit.
    if (llmEnabled_ && !tick.completed.empty()) {
        // A decode round carries riders stamped by formDecodeDispatch;
        // at least one is unfinished (a fully finished group retired
        // at its previous round).
        bool decodeRound = false;
        for (const Request& req : tick.completed) {
            if (req.ridingDecodeSteps > 0) {
                decodeRound = true;
                break;
            }
        }
        bool allFinished = true;
        if (decodeRound) {
            for (Request& req : tick.completed) {
                req.generatedTokens += req.ridingDecodeSteps;
                req.ridingDecodeSteps = 0;
                if (req.generatedTokens < req.outputTokens)
                    allFinished = false;
            }
            if (tick.dispatchDone)
                --llmStreams_[tick.completed.front().modelIdx];
        }
        const bool lockstep = options_.serving.admission.llmBatching ==
                              LlmBatchingMode::Static;
        std::vector<Request> retiring;
        retiring.reserve(tick.completed.size());
        for (Request& req : tick.completed) {
            if (!catalog_[req.modelIdx].llm.autoregressive) {
                retiring.push_back(std::move(req));
                continue;
            }
            if (!decodeRound) {
                // Prefill completion = the first output token.
                req.firstTokenSec = tick.timeSec;
                req.generatedTokens = 1;
                if (rec)
                    rec->trace().asyncInstantVirtual(
                        static_cast<std::uint64_t>(req.id),
                        "first-token", "request", tick.timeSec);
            }
            const bool finished =
                req.generatedTokens >= req.outputTokens;
            // Static decode batches retire in lockstep: finished
            // members ride as padding until the whole batch is done.
            if (finished && (!decodeRound || !lockstep || allFinished)) {
                retiring.push_back(std::move(req));
                continue;
            }
            req.completionSec = -1.0;
            st.admission.enqueueDecode(req);
            ++st.queueEpoch;
        }
        tick.completed = std::move(retiring);
    }
    for (Request& req : tick.completed) {
        records_.push_back(req);
        if (rec) {
            const std::string& model = catalog_[req.modelIdx].model.name;
            const double queueSec = req.dispatchSec - req.arrivalSec;
            const double execSec = req.completionSec - req.dispatchSec;
            rec->trace().asyncEndVirtual(
                static_cast<std::uint64_t>(req.id), "req " + model,
                "request", tick.timeSec,
                {obs::argNum("latency_sec", req.latencySec()),
                 obs::argNum("queue_sec", queueSec),
                 obs::argNum("exec_sec", execSec),
                 obs::argBool("slo_violated", req.sloViolated()),
                 obs::argBool("preempted", req.preempted)});
            rec->metrics().counter("requests.completed").inc();
            if (req.sloViolated())
                rec->metrics().counter("requests.slo_violations").inc();
            rec->metrics().histogram("latency_sec").record(
                req.latencySec());
            rec->metrics().histogram("queue_wait_sec").record(queueSec);
            rec->metrics().histogram("exec_sec").record(execSec);
        }
    }
}

double
FleetSimulator::quietIntervalBound(const RunState& st,
                                   const NextEvent& ev,
                                   bool absorbArrivals) const
{
    // The min over every next-possible-routing-decision term;
    // docs/ARCHITECTURE.md tabulates each with its proof sketch.
    const AdmissionController& admission = st.admission;
    const PreemptionOptions& preemption = options_.serving.preemption;
    double bound = ev.tPending;
    if (!busyEndQueue_.empty())
        bound = std::min(bound, busyEndQueue_.begin()->first);
    if (!absorbArrivals)
        bound = std::min(bound, ev.tArrival);
    bound = std::min(bound, ev.tTimer);
    if (options_.speculativeSolve &&
        options_.serving.modeledSolveSec > 0.0 &&
        admission.queuedCount() > 0 &&
        st.queueEpoch != st.lastSpeculativeEpoch)
        bound = std::min(bound, admission.nextForcedDispatchSec());
    // Preemption-aware term: the next urgency crossing, on the same
    // FP expression as the urgency timer — unconditioned on candidate
    // availability, because a crossing is a routing decision either
    // way (with a candidate routeReadyBatch dispatches the urgent
    // batch; with none the next boundary tick suspends a replay).
    if (preemption.enabled && admission.queuedCount() > 0)
        bound = std::min(bound, admission.earliestDeadlineSec() -
                                    preemption.slackThresholdSec);
    if (!llmEnabled_)
        return bound;
    // Join-aware LLM terms, per busy shard.
    const bool continuous = options_.serving.admission.llmBatching ==
                            LlmBatchingMode::Continuous;
    for (const auto& [tb, si] : boundaryQueue_) {
        (void)tb;
        const Shard& sh = shards_[si];
        const Dispatch& running = sh.executor.dispatch();
        if (running.llmDecodeSteps > 0) {
            // Decode round: riders retire only at the round's final
            // boundary — the replay-end term already covers that slot
            // release — so the in-interval hazard is a join cut at the
            // next step-aligned boundary once waiters are queued for
            // the round's model.
            if (continuous &&
                admission.decodeQueuedCount(
                    running.catalogIdx.front()) > 0)
                bound = std::min(bound, sh.executor.nextStepBoundarySec(
                                            sh.llmWindowsPerStep));
        } else {
            // Prefill/mixed replay: an autoregressive group completing
            // mid-replay enqueues decode waiters (commitTick bumps the
            // decode queue and the queue epoch — a routing-decision
            // source), so the bound stops strictly before the earliest
            // such completion.
            bound = std::min(
                bound, sh.executor.earliestGroupEndSec(
                           [&](std::size_t m) {
                               return catalog_[running.catalogIdx[m]]
                                   .llm.autoregressive;
                           }));
        }
    }
    return bound;
}

bool
FleetSimulator::drainQuietInterval(RunState& st, const NextEvent& ev)
{
    // Quiet-interval drain. The loop's routing steps are provably
    // no-ops strictly before the bound B:
    //  - no suspension is parked (the gate below), so
    //    resumeIdleSuspended never fires;
    //  - no parked schedule comes due before tPending >= B;
    //  - no shard frees inside the interval (a dispatch-done tick
    //    lands at its final boundary >= B), so the candidate set is
    //    frozen and no dispatch forms before the timer or an
    //    arrival, both >= B;
    //  - speculate() already ran on the current queue epoch, or the
    //    speculation term caps B at the forced-dispatch instant where
    //    ready() could newly turn true;
    //  - under preemption, B <= the next urgency crossing U: for every
    //    tick t < U the per-tick urgency predicate (t >= deadline -
    //    slack, the same FP expression as U) is false bit-for-bit, so
    //    the preempt check after each tick is a no-op — and the
    //    queued deadlines cannot change inside the interval because
    //    arrivals are never absorbed under preemption;
    //  - on LLM fleets, B stops strictly before the earliest
    //    step-aligned boundary where a decode round with
    //    already-queued waiters could take a join cut, and before the
    //    earliest mid-replay autoregressive completion — so decode
    //    queues, llmStreams_, and the join-cut predicate stay frozen
    //    across every committed tick.
    // Per-event fallbacks: a deferred dispatch re-routes after every
    // tick, and a preemptive fleet with a parked suspension (resumes
    // re-check per tick) or an already-urgent queue (the very next
    // boundary suspends) stays on the per-tick path.
    const bool preemptive = options_.serving.preemption.enabled;
    if (perTickOnly_ || st.deferred ||
        (preemptive && (suspendedCount_ > 0 || st.urgent)))
        return false;
    // With no free shard (and none freeing before the bound), no
    // urgency, and speculation off, an arrival strictly inside the
    // interval can only enqueue — every routing decision needs a
    // candidate shard, and none appears until >= B — so arrivals are
    // absorbed (merged by timestamp, arrival wins ties like the loop's
    // branch order) instead of capping the interval at one
    // inter-arrival gap. Preemption disables absorption: an absorbed
    // arrival could carry an earlier deadline and move the urgency
    // crossing into the interval's past.
    const bool absorbArrivals = freeCount_ == 0 &&
                                !options_.speculativeSolve &&
                                !preemptive;
    const double bound = quietIntervalBound(st, ev, absorbArrivals);
    if (ev.tBoundary >= bound)
        return false;

    // Commit the ticks in (timeSec, shardIdx) order — the per-tick
    // loop's tie-break (strict <, lowest index wins) — off a min-heap
    // of the busy shards' next boundaries, firing due samples after
    // each tick as the loop head would. A shard's calendar entries
    // are re-synced once, when it leaves the heap: nothing in the
    // drain reads the calendar.
    std::vector<std::pair<double, int>> heads;
    for (const auto& head : boundaryQueue_) {
        if (head.first >= bound)
            break;
        heads.push_back(head);
    }
    const auto later = std::greater<std::pair<double, int>>();
    std::make_heap(heads.begin(), heads.end(), later);
    auto absorbable = [&]() {
        return absorbArrivals && st.next < st.trace.size() &&
               st.trace[st.next].arrivalSec < bound;
    };
    while (!heads.empty() || absorbable()) {
        if (absorbable() && (heads.empty() ||
                             st.trace[st.next].arrivalSec <=
                                 heads.front().first)) {
            st.nowSec = st.trace[st.next].arrivalSec;
            commitArrival(st);
            fireSamples(st);
            continue;
        }
        std::pop_heap(heads.begin(), heads.end(), later);
        const int si = heads.back().second;
        ReplayExecutor& executor = shards_[si].executor;
        WindowTick tick = executor.advance();
        st.nowSec = tick.timeSec;
        commitTick(st, si, tick);
        fireSamples(st);
        if (executor.busy() && executor.nextBoundarySec() < bound) {
            heads.back().first = executor.nextBoundarySec();
            std::push_heap(heads.begin(), heads.end(), later);
        } else {
            heads.pop_back();
            syncShard(static_cast<std::size_t>(si));
        }
    }
    return true;
}

void
FleetSimulator::boundaryTick(RunState& st, int shardIdx)
{
    // Per-tick path: a pending deferral, a parked suspension or
    // already-urgent queue, or a quiet interval whose bound already
    // sits at the head boundary (e.g. a shard in its final window, a
    // join cut, a mid-replay LLM release, an urgency crossing).
    Shard& sh = shards_[shardIdx];
    obs::FlightRecorder* const rec = st.rec;
    WindowTick tick = sh.executor.advance();
    commitTick(st, shardIdx, tick);
    // Boundary preemption: an urgent request is waiting, no shard can
    // take it, and this replay just reached a cut point with windows
    // still ahead — suspend it here; the next loop iteration
    // dispatches the urgent batch onto the freed shard. When the tick
    // ended the dispatch the shard frees naturally (preempting at the
    // last window is the degenerate no-op), and a shard already
    // parking a suspended replay is never preempted again (depth 1).
    if (!tick.dispatchDone && !sh.hasSuspended && urgentQueued(st) &&
        !anyCandidate(true)) {
        sh.suspended = sh.executor.suspend();
        sh.hasSuspended = true;
        sh.suspendedKey = sh.lastKey;
        // The remaining windows will be re-charged at resume.
        sh.busySec -= sh.suspended.remainingSec;
        ++sh.preemptions;
        if (rec) {
            rec->trace().instantVirtual(
                shardIdx + 1, "preempt", "preemption", tick.timeSec,
                {obs::argInt("next_window", static_cast<long long>(
                                                sh.suspended.window)),
                 obs::argNum("remaining_sec",
                             sh.suspended.remainingSec)});
            // suspend() just marked every still-riding request
            // preempted; tag their lifecycle tracks.
            for (const BatchGroup& group : sh.suspended.dispatch.groups)
                for (const Request& req : group.requests)
                    if (req.preempted)
                        rec->trace().asyncInstantVirtual(
                            static_cast<std::uint64_t>(req.id),
                            "preempted", "request", tick.timeSec);
            rec->metrics().counter("preemption.suspends").inc();
        }
    }
    // Continuous-batching join cut: waiters queued for the model
    // decoding on this shard, and the replay just reached a
    // step-aligned boundary with steps still ahead — cut the round
    // here (suspend without the preemption mark), credit the riders
    // with the steps already replayed, and send everyone back to the
    // decode queue. The next iteration's formDecodeRound forms the
    // merged round on the freed shard. Riders cannot finish mid-round
    // (the round's step count never exceeds any rider's remaining
    // tokens), so all of them re-queue.
    if (llmEnabled_ && !tick.dispatchDone && !sh.hasSuspended &&
        sh.executor.busy() &&
        options_.serving.admission.llmBatching ==
            LlmBatchingMode::Continuous) {
        const Dispatch& running = sh.executor.dispatch();
        const int model = running.llmDecodeSteps > 0
                              ? running.catalogIdx.front()
                              : -1;
        if (model >= 0 && st.admission.decodeQueuedCount(model) > 0 &&
            (tick.windowIdx + 1) % sh.llmWindowsPerStep == 0) {
            const int stepsDone =
                (tick.windowIdx + 1) / sh.llmWindowsPerStep;
            SuspendedReplay cut = sh.executor.suspend(false);
            sh.busySec -= cut.remainingSec;
            --llmStreams_[model];
            ++llmJoins_;
            int riders = 0;
            for (BatchGroup& group : cut.dispatch.groups) {
                for (Request& req : group.requests) {
                    if (req.ridingDecodeSteps > 0)
                        req.generatedTokens += stepsDone;
                    req.ridingDecodeSteps = 0;
                    req.completionSec = -1.0;
                    st.admission.enqueueDecode(req);
                    ++riders;
                }
            }
            ++st.queueEpoch;
            if (rec) {
                rec->trace().instantVirtual(
                    shardIdx + 1, "decode-join", "llm", tick.timeSec,
                    {obs::argInt("riders",
                                 static_cast<long long>(riders)),
                     obs::argInt("steps_done",
                                 static_cast<long long>(stepsDone))});
                rec->metrics().counter("llm.joins").inc();
            }
        }
    }
    syncShard(static_cast<std::size_t>(shardIdx));
}

void
FleetSimulator::fireSamples(RunState& st)
{
    // Fixed-interval sampling on the virtual clock. The fleet state is
    // piecewise-constant between events (sample-and-hold), so the
    // value at each scheduled instant is the value now; rows are
    // stamped with the scheduled time, and the headline series double
    // as ph = C counter tracks in the trace. Fired at the loop head
    // and after each tick a quiet-interval drain commits (the per-tick
    // loop fires a tick's due samples at the head of the following
    // iteration, so the drain replays the same interleaving — the
    // sampled state is provably constant across the interval).
    obs::FlightRecorder* const rec = st.rec;
    while (rec && rec->samples().due(st.nowSec)) {
        const double atSec = rec->samples().nextSampleSec();
        const double queueDepth = st.admission.queuedCount();
        int busyShards = 0;
        for (const Shard& shard : shards_)
            busyShards += shard.executor.busy() ? 1 : 0;
        const long long cacheHits =
            rec->metrics().counter("cache.hits").value();
        const long long cacheMisses =
            rec->metrics().counter("cache.misses").value();
        const double hitRate =
            cacheHits + cacheMisses > 0
                ? static_cast<double>(cacheHits) /
                      static_cast<double>(cacheHits + cacheMisses)
                : 0.0;
        std::vector<double> row;
        row.reserve(3 + shards_.size() + catalog_.size());
        row.push_back(queueDepth);
        row.push_back(busyShards);
        row.push_back(hitRate);
        for (const Shard& shard : shards_)
            row.push_back(shard.executor.busy() ? 1.0 : 0.0);
        for (std::size_t m = 0; m < catalog_.size(); ++m)
            row.push_back(
                st.admission.queuedCount(static_cast<int>(m)));
        rec->samples().push(row);
        rec->trace().counterVirtual("queue_depth", atSec, queueDepth);
        rec->trace().counterVirtual("busy_shards", atSec, busyShards);
        rec->trace().counterVirtual("cache_hit_rate", atSec, hitRate);
    }
}

ServingReport
FleetSimulator::summarize(RunState& st)
{
    // Promote stray speculative solves so stats and the cache size
    // are settled (and no background work bleeds past the run).
    cache_.drainInFlight();

    ScheduleCacheStats delta = cache_.stats();
    const long cachedMixes = static_cast<long>(cache_.size());
    delta.hits -= st.cacheBefore.hits;
    delta.misses -= st.cacheBefore.misses;
    delta.evictions -= st.cacheBefore.evictions;

    long dispatches = 0;
    for (const Shard& shard : shards_)
        dispatches +=
            shard.executor.dispatchCount() - shard.dispatchesBefore;

    std::vector<std::string> modelNames;
    modelNames.reserve(catalog_.size());
    for (const ServedModel& sm : catalog_)
        modelNames.push_back(sm.model.name);
    ServingReport report = summarizeServing(
        records_, static_cast<long>(st.trace.size()), dispatches,
        st.paddedSlots, delta, cachedMixes, modelNames);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard& shard = shards_[s];
        ShardReport sr;
        sr.shardIdx = static_cast<int>(s);
        sr.mcmName = templates_[s].name();
        sr.dispatches =
            shard.executor.dispatchCount() - shard.dispatchesBefore;
        sr.busySec = shard.busySec;
        sr.utilization = report.horizonSec > 0.0
                             ? shard.busySec / report.horizonSec
                             : 0.0;
        sr.solveStallSec = shard.solveStallSec;
        sr.switchOverheadSec = shard.switchOverheadSec;
        sr.preemptions = shard.preemptions;
        report.solveStallSec += shard.solveStallSec;
        report.switchOverheadSec += shard.switchOverheadSec;
        report.preemptions += shard.preemptions;
        report.resumeOverheadSec += shard.resumeOverheadSec;
        report.shards.push_back(sr);
    }
    report.preemptionEnabled = options_.serving.preemption.enabled;
    report.llmEnabled = llmEnabled_;
    if (llmEnabled_) {
        report.llmDecodeRounds = llmDecodeRounds_;
        report.llmJoins = llmJoins_;
        report.llmMeanDecodeBatch =
            llmDecodeRounds_ > 0
                ? static_cast<double>(llmBoardedSum_) /
                      static_cast<double>(llmDecodeRounds_)
                : 0.0;
    }
    if (obs::FlightRecorder* const rec = st.rec) {
        rec->metrics().gauge("horizon_sec").set(report.horizonSec);
        rec->metrics()
            .gauge("throughput_rps")
            .set(report.throughputRps);
        rec->metrics()
            .gauge("slo_violation_rate")
            .set(report.sloViolationRate);
        rec->metrics()
            .gauge("batch_occupancy")
            .set(report.batchOccupancy);
    }
    report.contestedRoutes = contestedRoutes_;
    report.costOptimalRoutes = costOptimalRoutes_;
    report.costOptimalRouteFrac =
        contestedRoutes_ > 0
            ? static_cast<double>(costOptimalRoutes_) /
                  static_cast<double>(contestedRoutes_)
            : 1.0;
    inform("fleet: ", report.completed, "/", report.offered,
           " requests over ", shards_.size(), " shard(s) (",
           routingPolicyName(options_.routing), ") in ",
           report.dispatches, " dispatches, ", delta.misses,
           " schedule solves (", cachedMixes, " mixes cached)");
    if (options_.serving.preemption.enabled)
        inform("fleet: ", report.preemptions,
               " boundary preemptions, ", report.preemptedRequests,
               " preempted requests resumed");
    if (llmEnabled_)
        inform("fleet: ", report.llmDecodeRounds, " decode rounds, ",
               report.llmJoins, " continuous-batching joins");
    return report;
}

} // namespace runtime
} // namespace scar
