/**
 * @file
 * Tests for the fleet serving layer: the asynchronous schedule cache
 * (exactly-once concurrent solves, virtual ready instants, LRU
 * bounds), EDF admission under overload, multi-MCM routing, and the
 * determinism contract — wall-clock solve concurrency must never
 * change virtual-time results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace runtime
{
namespace
{

std::vector<ServedModel>
smallCatalog()
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.05;
    return catalog;
}

Scenario
mixOf(std::vector<Model> models)
{
    Scenario sc;
    sc.name = "mix";
    sc.models = std::move(models);
    return sc;
}

/** A self-counting stub compute with an optional wall-clock delay. */
struct SlowCompute
{
    std::atomic<int> calls{0};
    int delayMs = 0;

    ComputeFn
    fn()
    {
        return [this](const Scenario& mix) {
            ++calls;
            if (delayMs > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delayMs));
            ScheduleResult result;
            ScheduledWindow sw;
            sw.cost.latencyCycles = 1000.0;
            for (int m = 0; m < mix.numModels(); ++m) {
                ModelPlacement mp;
                mp.modelIdx = m;
                mp.segments.push_back(
                    {LayerRange{0, mix.models[m].numLayers() - 1}, m});
                sw.placement.models.push_back(mp);
            }
            result.windows.push_back(sw);
            return result;
        };
    }
};

/** The dispatch path, blocking: lookup() the mix (launching its
 *  solve on a miss), then join() it. Keys by the mix signature. */
std::shared_ptr<const CachedSchedule>
fetch(AsyncScheduleCache& cache, const Scenario& mix,
      const ComputeFn& compute)
{
    const std::string key = mix.signature();
    cache.lookup(key, mix, compute, /*nowSec=*/0.0,
                 /*modeledSolveSec=*/0.0);
    return cache.join(key);
}

TEST(ScheduleCache, MissThenHitOnRepeatedMix)
{
    ThreadPool pool(1);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::eyeCod(4), zoo::handSP(2)});

    const auto first = fetch(cache, mix, compute.fn());
    EXPECT_EQ(compute.calls.load(), 1);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);

    const auto second = fetch(cache, mix, compute.fn());
    EXPECT_EQ(compute.calls.load(), 1)
        << "repeated mix must not recompute";
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(ScheduleCache, ChangedMixMisses)
{
    ThreadPool pool(1);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    fetch(cache, mixOf({zoo::eyeCod(4), zoo::handSP(2)}), compute.fn());
    // Different batch -> different signature.
    fetch(cache, mixOf({zoo::eyeCod(2), zoo::handSP(2)}), compute.fn());
    // Different subset -> different signature.
    fetch(cache, mixOf({zoo::handSP(2)}), compute.fn());
    EXPECT_EQ(compute.calls.load(), 3);
    EXPECT_EQ(cache.size(), 3u);
    // Model order does not matter.
    fetch(cache, mixOf({zoo::handSP(2), zoo::eyeCod(4)}), compute.fn());
    EXPECT_EQ(compute.calls.load(), 3);
    EXPECT_EQ(cache.stats().hits, 1);
}

TEST(AsyncScheduleCache, ConcurrentLookupJoinSolvesExactlyOnce)
{
    ThreadPool pool(4);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    compute.delayMs = 30;
    const Scenario mix = mixOf({zoo::eyeCod(4), zoo::handSP(2)});

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CachedSchedule>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = fetch(cache, mix, compute.fn());
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(compute.calls.load(), 1)
        << "racing callers must share one solve";
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, kThreads - 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(AsyncScheduleCache, PrefetchLookupJoinLifecycle)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::eyeCod(4)});

    const std::string key = mix.signature();
    // Speculative solve usable from virtual t = 5.
    EXPECT_TRUE(cache.prefetch(key, mix, compute.fn(), /*readySec=*/5.0));
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.size(), 0u) << "in flight, not yet stored";

    // A dispatch at t = 1 reuses the running solve and learns the
    // virtual instant it lands; no second solve starts.
    const AsyncLookup pending =
        cache.lookup(key, mix, compute.fn(), /*nowSec=*/1.0,
                     /*modeledSolveSec=*/0.5);
    EXPECT_EQ(pending.schedule, nullptr);
    EXPECT_DOUBLE_EQ(pending.readySec, 5.0);
    EXPECT_FALSE(pending.startedSolve);
    EXPECT_EQ(cache.stats().hits, 1);

    const auto joined = cache.join(key);
    ASSERT_NE(joined, nullptr);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(compute.calls.load(), 1);

    // Once stored, lookups are usable immediately.
    const AsyncLookup ready =
        cache.lookup(key, mix, compute.fn(), 6.0, 0.5);
    EXPECT_EQ(ready.schedule.get(), joined.get());
    EXPECT_DOUBLE_EQ(ready.readySec, 6.0);
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(AsyncScheduleCache, LookupMissLaunchesWithModeledLatency)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::handSP(2)});
    const AsyncLookup miss =
        cache.lookup(mix.signature(), mix, compute.fn(), /*nowSec=*/2.0,
                     /*modeledSolveSec=*/0.25);
    EXPECT_EQ(miss.schedule, nullptr);
    EXPECT_DOUBLE_EQ(miss.readySec, 2.25);
    EXPECT_TRUE(miss.startedSolve);
    EXPECT_EQ(cache.stats().misses, 1);
    cache.drainInFlight();
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(AsyncScheduleCache, FailedSolveIsErasedAndRetriable)
{
    ThreadPool pool(1); // inline solves: the failure is synchronous
    AsyncScheduleCache cache(pool);
    const Scenario mix = mixOf({zoo::eyeCod(4)});
    SlowCompute good;
    std::atomic<int> calls{0};
    const std::string key = mix.signature();
    const ComputeFn flaky =
        [&](const Scenario& m) -> ScheduleResult {
        if (++calls == 1)
            throw std::runtime_error("transient solver failure");
        return good.fn()(m);
    };

    cache.prefetch(key, mix, flaky, /*readySec=*/1.0);
    EXPECT_THROW(cache.join(key), std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);

    // The poisoned entry must be gone: a fresh lookup relaunches the
    // solve instead of rejoining the dead future.
    const AsyncLookup retry = cache.lookup(key, mix, flaky, 2.0, 0.1);
    EXPECT_TRUE(retry.startedSolve);
    EXPECT_NE(cache.join(key), nullptr);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(cache.size(), 1u);
}

/** Stored (not merely in flight) under its mix signature. */
bool
stored(const AsyncScheduleCache& cache, const Scenario& mix)
{
    return cache.peek(mix.signature()).schedule != nullptr;
}

TEST(ScheduleCache, LruEvictsBeyondCapacity)
{
    ThreadPool pool(1);
    AsyncScheduleCache cache(pool, /*capacity=*/2);
    SlowCompute compute;
    const Scenario a = mixOf({zoo::eyeCod(1)});
    const Scenario b = mixOf({zoo::eyeCod(2)});
    const Scenario c = mixOf({zoo::eyeCod(4)});

    const auto keepA = fetch(cache, a, compute.fn());
    const auto keepB = fetch(cache, b, compute.fn());
    EXPECT_EQ(cache.size(), 2u);
    fetch(cache, a, compute.fn()); // touch A: B becomes LRU
    EXPECT_EQ(compute.calls.load(), 2);

    fetch(cache, c, compute.fn()); // evicts B
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_FALSE(stored(cache, b));
    // The evicted entry stays valid for holders of its shared_ptr.
    EXPECT_EQ(keepB->mix.signature(), b.signature());
    EXPECT_FALSE(keepB->windowSec.empty());

    fetch(cache, b, compute.fn()); // re-solve B, evicts A
    EXPECT_EQ(compute.calls.load(), 4);
    EXPECT_EQ(cache.stats().evictions, 2);
    EXPECT_FALSE(stored(cache, a));
    EXPECT_TRUE(stored(cache, c));
    EXPECT_EQ(keepA->mix.signature(), a.signature());
}

/**
 * Only the dispatch path may reorder a bounded cache: routing peeks
 * at every package and speculation prefetches resident keys, and
 * neither may refresh a key the eviction order is about to drop.
 */
TEST(ScheduleCache, PeekAndNoOpPrefetchLeaveLruOrderAlone)
{
    ThreadPool pool(1);
    AsyncScheduleCache cache(pool, /*capacity=*/2);
    SlowCompute compute;
    const Scenario a = mixOf({zoo::eyeCod(1)});
    const Scenario b = mixOf({zoo::eyeCod(2)});
    const Scenario c = mixOf({zoo::eyeCod(4)});
    const Scenario d = mixOf({zoo::eyeCod(8)});
    const Scenario e = mixOf({zoo::handSP(2)});

    fetch(cache, a, compute.fn());
    fetch(cache, b, compute.fn()); // A is LRU
    EXPECT_TRUE(cache.peek(a.signature()).known());
    EXPECT_FALSE(cache.prefetch(a.signature(), a, compute.fn(), 0.0))
        << "a stored key launches no solve";
    EXPECT_EQ(compute.calls.load(), 2);
    fetch(cache, c, compute.fn());
    EXPECT_FALSE(stored(cache, a)) << "peek/prefetch refreshed A";
    EXPECT_TRUE(stored(cache, b));

    // lookup() touches: B becomes most recent, so D evicts C.
    cache.lookup(b.signature(), b, compute.fn(), 0.0, 0.0);
    fetch(cache, d, compute.fn());
    EXPECT_TRUE(stored(cache, b));
    EXPECT_FALSE(stored(cache, c));

    // join() of a stored key touches too: E evicts D, not B.
    cache.join(b.signature());
    fetch(cache, e, compute.fn());
    EXPECT_TRUE(stored(cache, b));
    EXPECT_FALSE(stored(cache, d));
    EXPECT_EQ(compute.calls.load(), 5);
}

TEST(Fleet, MultiShardCompletesEverythingDeterministically)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 400, 11);
    FleetOptions options;
    options.shards = 3;
    options.routing = RoutingPolicy::RoundRobin;
    options.serving.admission.maxQueueDelaySec = 0.005;

    FleetSimulator a(catalog,
                     templates::hetSides3x3(templates::kArvrPes),
                     options);
    const ServingReport ra = a.run(trace);
    EXPECT_EQ(ra.offered, 400);
    EXPECT_EQ(ra.completed, 400);
    ASSERT_EQ(ra.shards.size(), 3u);
    long shardDispatches = 0;
    for (const ShardReport& shard : ra.shards)
        shardDispatches += shard.dispatches;
    EXPECT_EQ(shardDispatches, ra.dispatches);

    FleetSimulator b(catalog,
                     templates::hetSides3x3(templates::kArvrPes),
                     options);
    const ServingReport rb = b.run(trace);
    EXPECT_DOUBLE_EQ(ra.p99LatencySec, rb.p99LatencySec);
    EXPECT_DOUBLE_EQ(ra.throughputRps, rb.throughputRps);
    EXPECT_EQ(ra.cache.misses, rb.cache.misses);
    for (std::size_t s = 0; s < ra.shards.size(); ++s) {
        EXPECT_EQ(ra.shards[s].dispatches, rb.shards[s].dispatches);
        EXPECT_DOUBLE_EQ(ra.shards[s].busySec, rb.shards[s].busySec);
    }
}

TEST(Fleet, WallClockConcurrencyDoesNotChangeResults)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 250, 5);

    auto runWith = [&](ThreadPool& pool) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::LeastLoaded;
        options.serving.pool = &pool;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace);
    };

    ThreadPool serial(1);
    ThreadPool wide(8);
    const ServingReport a = runWith(serial);
    const ServingReport b = runWith(wide);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.meanLatencySec, b.meanLatencySec);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.solveStallSec, b.solveStallSec);
    EXPECT_DOUBLE_EQ(a.switchOverheadSec, b.switchOverheadSec);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
}

TEST(Fleet, ShardsShareLoadUnderPressure)
{
    auto catalog = smallCatalog();
    catalog[0].rateRps = 2000.0; // saturate one package
    catalog[1].rateRps = 1000.0;
    const auto trace = poissonTrace(catalog, 600, 3);
    FleetOptions options;
    options.shards = 2;
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 600);
    for (const ShardReport& shard : report.shards) {
        EXPECT_GT(shard.dispatches, 0) << "shard " << shard.shardIdx;
        EXPECT_GT(shard.utilization, 0.0);
    }
}

TEST(Fleet, MoreShardsFinishSaturatedLoadSooner)
{
    auto catalog = smallCatalog();
    catalog[0].rateRps = 2000.0;
    catalog[1].rateRps = 1000.0;
    const auto trace = poissonTrace(catalog, 500, 9);

    auto horizonWith = [&](int shards) {
        FleetOptions options;
        options.shards = shards;
        options.routing = RoutingPolicy::LeastLoaded;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace).horizonSec;
    };

    const double one = horizonWith(1);
    const double four = horizonWith(4);
    EXPECT_LT(four, one)
        << "a saturated stream must drain faster on more packages";
}

TEST(Fleet, RoutingPoliciesAllServeTheStream)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 200, 17);
    for (const RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::MixAffinity, RoutingPolicy::BestFit}) {
        FleetOptions options;
        options.shards = 2;
        options.routing = policy;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        const ServingReport report = fleet.run(trace);
        EXPECT_EQ(report.completed, 200) << routingPolicyName(policy);
        EXPECT_GT(report.cache.hits, 0);
    }
}

TEST(Fleet, SolveStallIsReportedAndBounded)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 150, 2);
    FleetOptions options;
    options.shards = 1;
    options.serving.modeledSolveSec = 0.05;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 150);
    // The cold-start dispatch waits out one full modeled solve...
    EXPECT_GE(report.solveStallSec, 0.05 - 1e-9);
    // ...and no dispatch can stall longer than one modeled solve.
    EXPECT_LE(report.solveStallSec,
              0.05 * static_cast<double>(report.dispatches) + 1e-9);
}

TEST(Fleet, SpeculativeSolvesHideStallBehindReplay)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 200, 2);

    auto runWith = [&](bool speculative) {
        FleetOptions options;
        options.shards = 1;
        options.speculativeSolve = speculative;
        options.serving.modeledSolveSec = 0.05;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace);
    };

    const ServingReport blocking = runWith(false);
    const ServingReport async = runWith(true);
    EXPECT_EQ(blocking.completed, 200);
    EXPECT_EQ(async.completed, 200);
    // Overlapping solves with in-flight replay must strictly reduce
    // the time the package idles waiting on the search.
    EXPECT_LT(async.solveStallSec, blocking.solveStallSec);
    EXPECT_LE(async.p99LatencySec, blocking.p99LatencySec);
}

TEST(Fleet, SwitchOverheadChargedOnMixChanges)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(2);
    catalog[0].rateRps = 1.0;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 1.0;

    FleetOptions options;
    options.shards = 1;
    options.serving.switchOverheadSec = 0.01;
    options.serving.admission.maxQueueDelaySec = 0.005;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    // Four lone requests, alternating models, far enough apart that
    // each dispatches alone: sigs alternate, so every dispatch after
    // the first re-stages weights.
    const auto trace = traceFromArrivals(
        catalog, {{0.0, 0}, {10.0, 1}, {20.0, 0}, {30.0, 1}});
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.dispatches, 4);
    EXPECT_NEAR(report.switchOverheadSec, 3 * 0.01, 1e-9);
    EXPECT_EQ(report.cache.misses, 2);
    EXPECT_EQ(report.cache.hits, 2);
}

TEST(Fleet, BoundedCacheStillServesEverything)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 300, 23);
    FleetOptions options;
    options.shards = 2;
    options.serving.cacheCapacity = 1; // aggressive eviction
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 300);
    EXPECT_GT(report.cache.evictions, 0)
        << "capacity 1 must evict under multiple mixes";
    EXPECT_LE(fleet.cache().size(), 1u);
}

/**
 * EDF boarding order, unit level: the oldest request always boards
 * (the no-starvation guarantee), and among the rest an aged request
 * outranks a fresh one with a tighter deadline.
 */
TEST(Admission, EdfBoardsOldestThenAgedBeforeFreshTightDeadlines)
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::handSP(2); // batch cap 2 => take = 2
    AdmissionOptions options;
    options.maxQueueDelaySec = 0.05;
    options.order = QueueOrder::EarliestDeadline;
    AdmissionController admission(catalog, options);

    auto enqueue = [&](std::int64_t id, double arrival,
                       double deadline) {
        Request req;
        req.id = id;
        req.modelIdx = 0;
        req.arrivalSec = arrival;
        req.deadlineSec = deadline;
        admission.enqueue(req);
    };
    // A and B will be aged at dispatch time (waited > 0.05 s); C and
    // D are fresh with far tighter deadlines.
    enqueue(0, 0.000, /*deadline=*/100.0); // A: oldest, loose
    enqueue(1, 0.005, /*deadline=*/90.0);  // B: aged, loose
    enqueue(2, 0.055, /*deadline=*/0.10);  // C: fresh, tight
    enqueue(3, 0.056, /*deadline=*/0.11);  // D: fresh, tight

    const double nowSec = 0.057;
    ASSERT_TRUE(admission.ready(nowSec));
    Dispatch dispatch =
        admission.commit(admission.plan(false, nowSec, 0.0));
    ASSERT_EQ(dispatch.groups.size(), 1u);
    ASSERT_EQ(dispatch.groups[0].requests.size(), 2u);
    // Slot 1: the oldest request, despite the loosest deadline.
    EXPECT_EQ(dispatch.groups[0].requests[0].id, 0);
    // Slot 2: the aged request beats the fresh tight deadlines.
    EXPECT_EQ(dispatch.groups[0].requests[1].id, 1);
    // The fresh pair stays queued, in arrival order.
    EXPECT_EQ(admission.queuedCount(), 2);
    Dispatch rest =
        admission.commit(admission.plan(false, nowSec, 0.0));
    ASSERT_EQ(rest.groups[0].requests.size(), 2u);
    EXPECT_EQ(rest.groups[0].requests[0].id, 2);
    EXPECT_EQ(rest.groups[0].requests[1].id, 3);
}

/**
 * EDF admission under overload: a backlog of 12 same-model requests
 * drains in three batch-4 dispatches. Half the requests carry a
 * deadline only the first two dispatches can meet; FIFO boarding
 * strands some of them in the last dispatch, EDF boards them first.
 */
TEST(Admission, EdfLowersTailViolationsUnderOverload)
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 1.0;

    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    FleetOptions probeOptions;
    probeOptions.serving.admission.maxQueueDelaySec = 0.01;

    // Probe the two makespans: a lone (batch-1) dispatch and a full
    // batch-4 dispatch.
    FleetSimulator probe(catalog, mcm, probeOptions);
    probe.run(traceFromArrivals(catalog, {{0.0, 0}}));
    ASSERT_EQ(probe.records().size(), 1u);
    const double soloMakespan = probe.records()[0].completionSec -
                                probe.records()[0].dispatchSec;
    FleetSimulator probe4(catalog, mcm, probeOptions);
    probe4.run(traceFromArrivals(
        catalog, {{0.0, 0}, {0.0001, 0}, {0.0002, 0}, {0.0003, 0}}));
    ASSERT_EQ(probe4.records().size(), 4u);
    const double batchMakespan = probe4.records()[0].completionSec -
                                 probe4.records()[0].dispatchSec;
    ASSERT_GT(soloMakespan, 0.0);
    ASSERT_GT(batchMakespan, 0.0);

    // Warmup request at t=0 occupies the package from the forced
    // dispatch at 0.01 until tBusy; 12 requests arrive while it is
    // busy and drain as three batch-4 dispatches from tBusy.
    const double tBusy = 0.01 + soloMakespan;
    std::vector<std::pair<double, int>> arrivals = {{0.0, 0}};
    for (int i = 0; i < 12; ++i)
        arrivals.push_back({0.01 + soloMakespan * (0.4 + 0.01 * i), 0});
    auto makeTrace = [&]() {
        auto trace = traceFromArrivals(catalog, arrivals);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            // Even-indexed backlog requests are deadline-critical:
            // reachable from the first two dispatches only.
            trace[i].deadlineSec =
                (i % 2 == 0) ? tBusy + 2.5 * batchMakespan
                             : trace[i].arrivalSec + 1000.0;
        }
        return trace;
    };

    auto violationsWith = [&](QueueOrder order) {
        FleetOptions options = probeOptions;
        options.serving.admission.order = order;
        FleetSimulator sim(catalog, mcm, options);
        const ServingReport report = sim.run(makeTrace());
        EXPECT_EQ(report.completed, 13);
        return report;
    };

    const ServingReport fifo = violationsWith(QueueOrder::FifoArrival);
    const ServingReport edf =
        violationsWith(QueueOrder::EarliestDeadline);
    EXPECT_GT(fifo.sloViolations, 0)
        << "the overload must strand deadline-critical requests in "
           "arrival order";
    EXPECT_LT(edf.sloViolations, fifo.sloViolations);
    EXPECT_LT(edf.sloViolationRate, fifo.sloViolationRate);
}

} // namespace
} // namespace runtime
} // namespace scar
