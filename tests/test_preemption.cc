/**
 * @file
 * Tests for request-level boundary preemption: the executor's
 * suspend/resume cursor mechanics, the admission urgency policy, and
 * the fleet-level behavior — an urgent AR/VR request interrupting a
 * long datacenter replay at a window boundary, the degenerate
 * no-op cases, resume safety under LRU eviction, the byte-identical
 * disabled path, and determinism across worker-pool sizes.
 */

#include <gtest/gtest.h>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "common/units.h"
#include "eval/reporter.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace runtime
{
namespace
{

Scenario
mixOf(std::vector<Model> models)
{
    Scenario sc;
    sc.name = "mix";
    sc.models = std::move(models);
    return sc;
}

/**
 * A hand-built 3-window schedule (1000 cycles per window): model 0
 * completes in window 0, model 1 in window 2. Small enough to reason
 * about every boundary instant exactly.
 */
std::shared_ptr<const CachedSchedule>
threeWindowSchedule(const Scenario& mix)
{
    return makeCachedSchedule(mix, [](const Scenario& m) {
        ScheduleResult result;
        for (int w = 0; w < 3; ++w) {
            ScheduledWindow sw;
            sw.cost.latencyCycles = 1000.0;
            const int model = w == 0 ? 0 : 1;
            ModelPlacement mp;
            mp.modelIdx = model;
            mp.segments.push_back(
                {LayerRange{0, m.models[model].numLayers() - 1}, 0});
            sw.placement.models.push_back(mp);
            result.windows.push_back(sw);
        }
        return result;
    });
}

Dispatch
twoModelDispatch(const Scenario& mix)
{
    Dispatch dispatch;
    dispatch.mix = mix;
    for (int m = 0; m < mix.numModels(); ++m) {
        Request req;
        req.id = m;
        req.modelIdx = m;
        req.arrivalSec = 0.0;
        BatchGroup group;
        group.catalogIdx = m;
        group.batch = 1;
        group.requests.push_back(req);
        dispatch.catalogIdx.push_back(m);
        dispatch.groups.push_back(std::move(group));
    }
    return dispatch;
}

TEST(Executor, WindowBoundariesExposeStableCutPoints)
{
    const Scenario mix = mixOf({zoo::eyeCod(2), zoo::handSP(2)});
    const auto schedule = threeWindowSchedule(mix);
    const auto boundaries = windowBoundaries(schedule->result);
    ASSERT_EQ(boundaries.size(), 3u);
    for (int w = 0; w < 3; ++w) {
        EXPECT_EQ(boundaries[w].windowIdx, w);
        EXPECT_DOUBLE_EQ(boundaries[w].windowCycles, 1000.0);
        EXPECT_DOUBLE_EQ(boundaries[w].startCycles, w * 1000.0);
        EXPECT_DOUBLE_EQ(boundaries[w].endCycles, (w + 1) * 1000.0);
        EXPECT_EQ(boundaries[w].segments, 1);
        EXPECT_EQ(boundaries[w].last, w == 2);
    }
    // The replay view derives its timings from the same metadata.
    ASSERT_EQ(schedule->windowSec.size(), 3u);
    for (int w = 0; w < 3; ++w)
        EXPECT_DOUBLE_EQ(schedule->windowSec[w],
                         cyclesToSeconds(1000.0));
}

TEST(Executor, SuspendResumeContinuesFromSavedCursor)
{
    const Scenario mix = mixOf({zoo::eyeCod(2), zoo::handSP(2)});
    const auto schedule = threeWindowSchedule(mix);
    const double w = schedule->windowSec[0];

    ReplayExecutor executor;
    executor.start(schedule, twoModelDispatch(mix), /*startSec=*/0.0);
    EXPECT_EQ(executor.windowsRemaining(), 3u);

    // Crossing window 0 completes model 0's request, unpreempted.
    WindowTick tick = executor.advance();
    ASSERT_EQ(tick.completed.size(), 1u);
    EXPECT_EQ(tick.completed[0].modelIdx, 0);
    EXPECT_FALSE(tick.completed[0].preempted);
    EXPECT_FALSE(tick.dispatchDone);
    EXPECT_EQ(executor.windowsRemaining(), 2u);

    // Suspend at the boundary: two windows detach, the still-riding
    // request is marked preempted, and the executor frees up.
    SuspendedReplay suspended = executor.suspend();
    EXPECT_FALSE(executor.busy());
    EXPECT_EQ(suspended.window, 1u);
    EXPECT_DOUBLE_EQ(suspended.remainingSec, 2.0 * w);
    const long dispatchesAfterSuspend = executor.dispatchCount();

    // Resume later: the next boundary lands one window after the
    // resume instant, the cursor picks up where it left off, and no
    // new dispatch is counted.
    executor.resume(std::move(suspended), /*startSec=*/5.0);
    EXPECT_TRUE(executor.busy());
    EXPECT_EQ(executor.dispatchCount(), dispatchesAfterSuspend);
    EXPECT_DOUBLE_EQ(executor.nextBoundarySec(), 5.0 + w);

    tick = executor.advance(); // window 1: nothing completes
    EXPECT_TRUE(tick.completed.empty());
    tick = executor.advance(); // window 2: model 1, preempted
    ASSERT_EQ(tick.completed.size(), 1u);
    EXPECT_EQ(tick.completed[0].modelIdx, 1);
    EXPECT_TRUE(tick.completed[0].preempted);
    EXPECT_DOUBLE_EQ(tick.completed[0].completionSec, 5.0 + 2.0 * w);
    // The original dispatch instant survives the round trip.
    EXPECT_DOUBLE_EQ(tick.completed[0].dispatchSec, 0.0);
    EXPECT_TRUE(tick.dispatchDone);
    EXPECT_FALSE(executor.busy());
}

TEST(Admission, UrgentDispatchBoardsOnlyUrgentModels)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::bertLarge(8); // loose deadline
    catalog[1].model = zoo::googleNet(4); // tight deadline
    AdmissionController admission(catalog);

    auto enqueue = [&](int model, double arrival, double deadline) {
        Request req;
        req.modelIdx = model;
        req.arrivalSec = arrival;
        req.deadlineSec = deadline;
        admission.enqueue(req);
    };
    enqueue(0, 0.0, 10.0);   // datacenter, hours of slack
    enqueue(1, 0.0, 0.05);   // XR frame, 50 ms

    // Urgency crosses at deadline - slack (same expression as the
    // fleet's urgency timer; probe just off the FP knife edge).
    EXPECT_DOUBLE_EQ(admission.earliestDeadlineSec(), 0.05);
    EXPECT_FALSE(admission.urgentQueued(0.029, 0.02));
    EXPECT_TRUE(admission.urgentQueued(0.031, 0.02));

    DispatchPlan plan = admission.plan(/*urgent=*/true, 0.031, 0.02);
    ASSERT_EQ(plan.mix().numModels(), 1);
    EXPECT_EQ(plan.mix().models[0].name, catalog[1].model.name);

    Dispatch dispatch = admission.commit(std::move(plan));
    ASSERT_EQ(dispatch.groups.size(), 1u);
    EXPECT_EQ(dispatch.catalogIdx[0], 1);
    // The datacenter request stays queued, still aging toward its
    // normal forced-dispatch timer.
    EXPECT_EQ(admission.queuedCount(), 1);
    EXPECT_FALSE(admission.urgentQueued(0.031, 0.02));
}

/**
 * The headline scenario: a lone XR frame request lands right after a
 * long 5-window BERT replay begins. Without preemption it waits out
 * the full ~86 ms replay and blows its 50 ms deadline; with boundary
 * preemption it cuts in at the next ~17 ms boundary and meets it,
 * while the preempted BERT batch still completes (resume from the
 * saved cursor, no re-solve).
 */
TEST(Preemption, UrgentRequestPreemptsLongReplay)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::bertLarge(8);
    catalog[0].sloSec = 1.0;
    catalog[1].model = zoo::googleNet(4);
    catalog[1].sloSec = 0.05; // 20 fps frame deadline

    std::vector<std::pair<double, int>> arrivals;
    for (int i = 0; i < 8; ++i)
        arrivals.push_back({0.0, 0}); // full BERT batch at t = 0
    arrivals.push_back({0.005, 1});   // XR frame mid-replay
    const auto trace = traceFromArrivals(catalog, arrivals);

    auto runWith = [&](bool enabled) {
        FleetOptions options;
        options.shards = 1;
        options.serving.preemption.enabled = enabled;
        options.serving.preemption.slackThresholdSec = 0.03;
        options.serving.preemption.resumeOverheadSec = 0.002;
        FleetSimulator fleet(catalog, templates::hetSides3x3(),
                             options);
        return fleet.run(trace);
    };

    const ServingReport off = runWith(false);
    EXPECT_EQ(off.completed, 9);
    EXPECT_GE(off.sloViolations, 1)
        << "the XR frame must miss behind the full BERT replay";
    EXPECT_EQ(off.preemptions, 0);
    EXPECT_FALSE(off.preemptionEnabled);

    const ServingReport on = runWith(true);
    EXPECT_EQ(on.completed, 9);
    EXPECT_EQ(on.sloViolations, 0)
        << "boundary preemption must rescue the XR frame";
    EXPECT_EQ(on.preemptions, 1);
    EXPECT_TRUE(on.preemptionEnabled);
    // All 8 BERT requests rode the suspended replay.
    EXPECT_EQ(on.preemptedRequests, 8);
    EXPECT_GT(on.preemptedP99Sec, 0.0);
    EXPECT_NEAR(on.resumeOverheadSec, 0.002, 1e-12);
    ASSERT_EQ(on.shards.size(), 1u);
    EXPECT_EQ(on.shards[0].preemptions, 1);
}

/**
 * Preempt-at-last-window degenerates to a no-op: a single-window
 * replay offers no interior boundary, so an urgent arrival during it
 * simply waits for the (imminent) natural completion — no suspension
 * is recorded and everything still completes.
 */
TEST(Preemption, SingleWindowReplayIsNeverPreempted)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::googleNet(4); // solo mix: 1 window
    catalog[0].sloSec = 1.0;
    catalog[1].model = zoo::eyeCod(2);
    catalog[1].sloSec = 0.05;

    std::vector<std::pair<double, int>> arrivals = {
        {0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}, // full googleNet batch
        {0.0005, 1},                            // urgent mid-replay
    };
    const auto trace = traceFromArrivals(catalog, arrivals);

    FleetOptions options;
    options.shards = 1;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.06; // instantly urgent
    options.serving.preemption.resumeOverheadSec = 0.002;
    FleetSimulator fleet(catalog, templates::hetSides3x3(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 5);
    EXPECT_EQ(report.preemptions, 0)
        << "a replay in its last window frees at that boundary "
           "anyway — suspending it would be pure overhead";
    EXPECT_EQ(report.preemptedRequests, 0);
    EXPECT_DOUBLE_EQ(report.resumeOverheadSec, 0.0);
}

/**
 * Resume safety under LRU pressure: with a capacity-1 cache, solving
 * the urgent mix evicts the preempted schedule's cache entry while
 * the replay sits suspended. The SuspendedReplay pins the schedule,
 * so the resume completes without re-solving or crashing; the *next*
 * dispatch of the evicted mix re-solves through the normal miss path.
 */
TEST(Preemption, ResumeSurvivesEvictionOfPreemptedScheduleEntry)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::bertLarge(8);
    catalog[0].sloSec = 10.0;
    catalog[1].model = zoo::googleNet(4);
    catalog[1].sloSec = 0.05;

    std::vector<std::pair<double, int>> arrivals;
    for (int i = 0; i < 8; ++i)
        arrivals.push_back({0.0, 0});
    arrivals.push_back({0.005, 1}); // preempts, evicts BERT's entry
    for (int i = 0; i < 8; ++i)
        arrivals.push_back({0.5, 0}); // BERT again: must re-solve
    const auto trace = traceFromArrivals(catalog, arrivals);

    FleetOptions options;
    options.shards = 1;
    options.serving.cacheCapacity = 1;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.03;
    options.serving.preemption.resumeOverheadSec = 0.002;
    FleetSimulator fleet(catalog, templates::hetSides3x3(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 17);
    EXPECT_EQ(report.preemptions, 1);
    EXPECT_GE(report.cache.evictions, 2);
    // BERT solved twice (initial + after eviction), XR once.
    EXPECT_EQ(report.cache.misses, 3);
    EXPECT_EQ(report.sloViolations, 0);
}

/**
 * The disabled path is the pre-preemption runtime, byte for byte:
 * even with every preemption knob set, enabled = false must render
 * the identical serving report (rows, columns, and numbers) as a
 * default-constructed configuration.
 */
TEST(Preemption, DisabledRendersByteIdenticalReports)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.02;
    const auto trace = poissonTrace(catalog, 300, 21);

    auto renderWith = [&](PreemptionOptions preemption) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        options.serving.preemption = preemption;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return describeServingReport(fleet.run(trace));
    };

    PreemptionOptions armedButDisabled;
    armedButDisabled.enabled = false;
    armedButDisabled.slackThresholdSec = 0.5; // would fire constantly
    armedButDisabled.resumeOverheadSec = 0.01;
    EXPECT_EQ(renderWith(PreemptionOptions{}),
              renderWith(armedButDisabled));
}

/** Virtual-time preemption behavior must not depend on wall-clock
 *  solve concurrency. */
TEST(Preemption, DeterministicAcrossThreadCounts)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 300.0;
    catalog[0].sloSec = 1.0;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 150.0;
    catalog[1].sloSec = 0.02; // tight: drives urgency regularly
    const auto trace = poissonTrace(catalog, 250, 5);

    auto runWith = [&](ThreadPool& pool) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::LeastLoaded;
        options.serving.pool = &pool;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = 0.01;
        options.serving.preemption.resumeOverheadSec = 0.002;
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
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.preemptedRequests, b.preemptedRequests);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.meanLatencySec, b.meanLatencySec);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.resumeOverheadSec, b.resumeOverheadSec);
    EXPECT_DOUBLE_EQ(a.preemptedP99Sec, b.preemptedP99Sec);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s].preemptions, b.shards[s].preemptions);
        EXPECT_DOUBLE_EQ(a.shards[s].busySec, b.shards[s].busySec);
    }
}

/**
 * Composition with cost-aware routing: with preemption enabled on a
 * BestFit fleet, urgent traffic and datacenter traffic coexist — the
 * run completes everything, preemption fires, and the preempted
 * datacenter batches still finish (their requests are flagged).
 */
TEST(Preemption, ComposesWithBestFitRouting)
{
    // Two heavy datacenter models (bertBase would free a shard
    // before urgency even triggers) and one XR frame model.
    std::vector<ServedModel> catalog(3);
    catalog[0].model = zoo::bertLarge(8);
    catalog[0].sloSec = 1.0;
    catalog[1].model = zoo::gptL(8);
    catalog[1].sloSec = 1.0;
    catalog[2].model = zoo::googleNet(4);
    catalog[2].sloSec = 0.05;

    // Both packages busy with BERT batches, then XR frames that must
    // preempt (no idle shard until ~86 ms).
    std::vector<std::pair<double, int>> arrivals;
    for (int i = 0; i < 8; ++i)
        arrivals.push_back({0.0, 0});
    for (int i = 0; i < 8; ++i)
        arrivals.push_back({0.0001, 1});
    arrivals.push_back({0.01, 2});
    arrivals.push_back({0.012, 2});
    const auto trace = traceFromArrivals(catalog, arrivals);

    FleetOptions options;
    options.shardTemplates = {
        templates::simba3x3(Dataflow::NvdlaWS),
        templates::hetSides3x3()};
    options.routing = RoutingPolicy::BestFit;
    // No deferral: with it on, BestFit parks the second BERT batch
    // waiting for the faster package and the XR frames find an idle
    // shard — a legitimate composition outcome, but this test forces
    // the both-shards-busy case where preemption must fire.
    options.bestFitDefer = false;
    options.serving.switchOverheadSec = 0.002;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.03;
    options.serving.preemption.resumeOverheadSec = 0.002;
    FleetSimulator fleet(catalog, templates::hetSides3x3(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 18);
    EXPECT_GE(report.preemptions, 1);
    EXPECT_GE(report.preemptedRequests, 8);
    // The XR frames made their deadlines through the fast lane.
    long xrViolations = 0;
    for (const Request& req : fleet.records()) {
        if (req.modelIdx == 2 && req.sloViolated())
            ++xrViolations;
    }
    EXPECT_EQ(xrViolations, 0);
}

} // namespace
} // namespace runtime
} // namespace scar
