/**
 * @file
 * Tests for the online serving runtime: deterministic arrival streams,
 * schedule replay views, admission batching, discrete-event
 * replay, and SLO accounting on hand-checkable traces.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "eval/reporter.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace runtime
{
namespace
{

/** Two small AR/VR models as a fast serving catalog. */
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

TEST(ScenarioSignature, CanonicalAcrossModelOrder)
{
    Scenario a;
    a.name = "a";
    a.models = {zoo::eyeCod(4), zoo::handSP(2)};
    Scenario b;
    b.name = "totally-different-name";
    b.models = {zoo::handSP(2), zoo::eyeCod(4)};
    EXPECT_EQ(a.signature(), b.signature());

    Scenario c;
    c.models = {zoo::eyeCod(8), zoo::handSP(2)};
    EXPECT_NE(a.signature(), c.signature()) << "batch must be keyed";
}

TEST(Arrival, SameSeedSameTrace)
{
    const auto catalog = smallCatalog();
    const auto a = poissonTrace(catalog, 200, 42);
    const auto b = poissonTrace(catalog, 200, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_EQ(a[i].modelIdx, b[i].modelIdx);
        EXPECT_DOUBLE_EQ(a[i].deadlineSec, b[i].deadlineSec);
    }
}

TEST(Arrival, DifferentSeedDifferentTrace)
{
    const auto catalog = smallCatalog();
    const auto a = poissonTrace(catalog, 200, 42);
    const auto b = poissonTrace(catalog, 200, 43);
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].arrivalSec != b[i].arrivalSec ||
                  a[i].modelIdx != b[i].modelIdx;
    EXPECT_TRUE(differs);
}

TEST(Arrival, SortedWithDeadlinesAndIds)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 500, 7);
    ASSERT_EQ(trace.size(), 500u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Request& req = trace[i];
        EXPECT_EQ(req.id, static_cast<std::int64_t>(i));
        if (i > 0) {
            EXPECT_GE(req.arrivalSec, trace[i - 1].arrivalSec);
        }
        EXPECT_GE(req.modelIdx, 0);
        EXPECT_LT(req.modelIdx, 2);
        EXPECT_DOUBLE_EQ(req.deadlineSec,
                         req.arrivalSec +
                             catalog[req.modelIdx].sloSec);
    }
}

TEST(Arrival, RatesShapeTheMix)
{
    auto catalog = smallCatalog();
    catalog[0].rateRps = 900.0;
    catalog[1].rateRps = 100.0;
    const auto trace = poissonTrace(catalog, 2000, 5);
    int first = 0;
    for (const Request& req : trace)
        first += req.modelIdx == 0 ? 1 : 0;
    // ~90% of arrivals should come from the 9x-rate model.
    EXPECT_GT(first, 1600);
    EXPECT_LT(first, 1990);
}

TEST(Arrival, TraceFromArrivalsSortsAndValidates)
{
    const auto catalog = smallCatalog();
    const auto trace = traceFromArrivals(
        catalog, {{0.3, 1}, {0.1, 0}, {0.2, 0}});
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_DOUBLE_EQ(trace[0].arrivalSec, 0.1);
    EXPECT_DOUBLE_EQ(trace[2].arrivalSec, 0.3);
    EXPECT_EQ(trace[2].modelIdx, 1);
    EXPECT_THROW(traceFromArrivals(catalog, {{0.0, 9}}), FatalError);
}

Scenario
mixOf(std::vector<Model> models)
{
    Scenario sc;
    sc.name = "mix";
    sc.models = std::move(models);
    return sc;
}

TEST(ScheduleCache, ReplayViewTracksLastWindows)
{
    CachedSchedule entry;
    entry.mix = mixOf({zoo::eyeCod(4), zoo::handSP(2)});

    // Window 0 holds both models, window 1 only model 1.
    ScheduledWindow w0;
    ModelPlacement mp0;
    mp0.modelIdx = 0;
    mp0.segments.push_back({LayerRange{0, 0}, 0});
    ModelPlacement mp1;
    mp1.modelIdx = 1;
    mp1.segments.push_back({LayerRange{0, 0}, 1});
    w0.placement.models = {mp0, mp1};
    w0.cost.latencyCycles = 500.0e6; // 1 s at the 500 MHz clock
    ScheduledWindow w1;
    ModelPlacement mp1b;
    mp1b.modelIdx = 1;
    mp1b.segments.push_back({LayerRange{1, 1}, 2});
    w1.placement.models = {mp1b};
    w1.cost.latencyCycles = 250.0e6; // 0.5 s
    entry.result.windows = {w0, w1};

    buildReplayView(entry);
    ASSERT_EQ(entry.windowSec.size(), 2u);
    EXPECT_NEAR(entry.windowSec[0], 1.0, 1e-12);
    EXPECT_NEAR(entry.windowSec[1], 0.5, 1e-12);
    EXPECT_NEAR(entry.makespanSec, 1.5, 1e-12);
    EXPECT_EQ(entry.lastWindow[0], 0);
    EXPECT_EQ(entry.lastWindow[1], 1);
}

TEST(Admission, FullBatchTriggersDispatch)
{
    const auto catalog = smallCatalog(); // batches 4 and 2
    AdmissionController admission(catalog, AdmissionOptions{});
    Request req;
    req.modelIdx = 0;
    for (int i = 0; i < 3; ++i) {
        req.id = i;
        req.arrivalSec = 0.001 * i;
        admission.enqueue(req);
        EXPECT_FALSE(admission.ready(req.arrivalSec));
    }
    req.id = 3;
    req.arrivalSec = 0.003;
    admission.enqueue(req);
    EXPECT_TRUE(admission.ready(0.003)) << "4 queued = a full batch";

    Dispatch dispatch =
        admission.commit(admission.plan(false, 0.003, 0.0));
    ASSERT_EQ(dispatch.groups.size(), 1u);
    EXPECT_EQ(dispatch.groups[0].batch, 4);
    EXPECT_EQ(dispatch.groups[0].requests.size(), 4u);
    EXPECT_EQ(dispatch.mix.models[0].batch, 4);
    EXPECT_EQ(admission.queuedCount(), 0);
}

TEST(Admission, TimeoutForcesQuantizedPartialBatch)
{
    const auto catalog = smallCatalog();
    AdmissionOptions options;
    options.maxQueueDelaySec = 0.01;
    AdmissionController admission(catalog, options);
    Request req;
    req.modelIdx = 0;
    req.arrivalSec = 0.0;
    admission.enqueue(req);
    req.modelIdx = 0;
    req.id = 1;
    req.arrivalSec = 0.002;
    admission.enqueue(req);
    req.modelIdx = 1;
    req.id = 2;
    req.arrivalSec = 0.005;
    admission.enqueue(req);

    EXPECT_FALSE(admission.ready(0.005));
    EXPECT_DOUBLE_EQ(admission.nextForcedDispatchSec(), 0.01);
    EXPECT_TRUE(admission.ready(admission.nextForcedDispatchSec()))
        << "ready() must agree with the timer instant";

    Dispatch dispatch =
        admission.commit(admission.plan(false, 0.01, 0.0));
    // Both queued models join the mix; 3 requests over 2 models.
    ASSERT_EQ(dispatch.groups.size(), 2u);
    EXPECT_EQ(dispatch.groups[0].batch, 2); // 2 queued -> pow2 = 2
    EXPECT_EQ(dispatch.groups[1].batch, 1);
    EXPECT_EQ(dispatch.mix.models[0].batch, 2);
    EXPECT_EQ(admission.queuedCount(), 0);
}

TEST(Executor, CompletesModelsAtTheirLastWindow)
{
    // Build the two-window cached schedule of the replay-view test.
    CachedSchedule entry;
    entry.mix = mixOf({zoo::eyeCod(1), zoo::handSP(1)});

    ScheduledWindow w0;
    ModelPlacement mp0;
    mp0.modelIdx = 0;
    mp0.segments.push_back({LayerRange{0, 0}, 0});
    ModelPlacement mp1;
    mp1.modelIdx = 1;
    mp1.segments.push_back({LayerRange{0, 0}, 1});
    w0.placement.models = {mp0, mp1};
    w0.cost.latencyCycles = 500.0e6; // 1 s
    ScheduledWindow w1;
    ModelPlacement mp1b;
    mp1b.modelIdx = 1;
    mp1b.segments.push_back({LayerRange{1, 1}, 2});
    w1.placement.models = {mp1b};
    w1.cost.latencyCycles = 500.0e6; // 1 s
    entry.result.windows = {w0, w1};
    buildReplayView(entry);

    Dispatch dispatch;
    dispatch.mix = entry.mix;
    dispatch.catalogIdx = {0, 1};
    BatchGroup g0;
    g0.catalogIdx = 0;
    g0.batch = 1;
    Request r0;
    r0.id = 0;
    r0.modelIdx = 0;
    r0.arrivalSec = 1.0;
    g0.requests = {r0};
    BatchGroup g1;
    g1.catalogIdx = 1;
    g1.batch = 1;
    Request r1;
    r1.id = 1;
    r1.modelIdx = 1;
    r1.arrivalSec = 1.5;
    g1.requests = {r1};
    dispatch.groups = {g0, g1};

    ReplayExecutor executor;
    EXPECT_FALSE(executor.busy());
    executor.start(std::make_shared<CachedSchedule>(entry), dispatch,
                   2.0);
    EXPECT_TRUE(executor.busy());
    EXPECT_DOUBLE_EQ(executor.nextBoundarySec(), 3.0);

    WindowTick tick0 = executor.advance();
    EXPECT_DOUBLE_EQ(tick0.timeSec, 3.0);
    ASSERT_EQ(tick0.completed.size(), 1u);
    EXPECT_EQ(tick0.completed[0].id, 0) << "model 0 ends in window 0";
    EXPECT_DOUBLE_EQ(tick0.completed[0].completionSec, 3.0);
    EXPECT_FALSE(tick0.dispatchDone);

    WindowTick tick1 = executor.advance();
    EXPECT_DOUBLE_EQ(tick1.timeSec, 4.0);
    ASSERT_EQ(tick1.completed.size(), 1u);
    EXPECT_EQ(tick1.completed[0].id, 1);
    EXPECT_TRUE(tick1.dispatchDone);
    EXPECT_FALSE(executor.busy());
}

TEST(ServingReport, PercentileNearestRank)
{
    const std::vector<double> sample = {0.4, 0.1, 0.3, 0.2};
    EXPECT_DOUBLE_EQ(percentileSec(sample, 50.0), 0.2);
    EXPECT_DOUBLE_EQ(percentileSec(sample, 100.0), 0.4);
    EXPECT_DOUBLE_EQ(percentileSec(sample, 1.0), 0.1);
    EXPECT_DOUBLE_EQ(percentileSec({}, 50.0), 0.0);
}

/**
 * Hand-checkable 2-request serving run: both requests target the same
 * single-model catalog, far enough apart that each is dispatched
 * alone. Request latencies must equal the batching delay plus the
 * cached schedule's makespan, and SLO accounting must separate the
 * request whose deadline admits that latency from the one whose
 * deadline does not.
 */
TEST(ServingSim, SloAccountingOnTwoRequestTrace)
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(2);
    catalog[0].rateRps = 1.0;
    FleetOptions options;
    options.serving.admission.maxQueueDelaySec = 0.01;
    FleetSimulator sim(catalog,
                       templates::hetSides3x3(templates::kArvrPes),
                       options);

    // Probe run: learn the single-request makespan of the mix.
    catalog[0].sloSec = std::numeric_limits<double>::infinity();
    ServingReport probe =
        sim.run(traceFromArrivals(catalog, {{0.0, 0}}));
    ASSERT_EQ(probe.completed, 1);
    const double makespan =
        sim.records().front().latencySec() - 0.01;
    ASSERT_GT(makespan, 0.0);

    // Request A's SLO absorbs timeout + makespan; request B's cannot.
    const double latency = 0.01 + makespan;
    catalog[0].sloSec = latency * 2.0;
    FleetSimulator sim2(catalog,
                        templates::hetSides3x3(templates::kArvrPes),
                        options);
    auto trace = traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});
    trace[1].deadlineSec = 10.0 + latency * 0.5; // unreachable
    const ServingReport report = sim2.run(trace);

    EXPECT_EQ(report.offered, 2);
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.dispatches, 2);
    ASSERT_EQ(sim2.records().size(), 2u);
    for (const Request& req : sim2.records())
        EXPECT_NEAR(req.latencySec(), latency, 1e-9)
            << "each lone request waits the timeout then replays "
               "the cached schedule";
    EXPECT_EQ(report.sloViolations, 1);
    EXPECT_DOUBLE_EQ(report.sloViolationRate, 0.5);
    // One mix, scheduled once, replayed once from cache.
    EXPECT_EQ(report.cache.misses, 1);
    EXPECT_EQ(report.cache.hits, 1);
}

TEST(ServingSim, DrainsEveryRequestAndCaches)
{
    const auto catalog = smallCatalog();
    FleetOptions options;
    options.serving.admission.maxQueueDelaySec = 0.005;
    FleetSimulator sim(catalog,
                       templates::hetSides3x3(templates::kArvrPes),
                       options);
    const auto trace = poissonTrace(catalog, 400, 11);
    const ServingReport report = sim.run(trace);

    EXPECT_EQ(report.offered, 400);
    EXPECT_EQ(report.completed, 400);
    EXPECT_GT(report.throughputRps, 0.0);
    EXPECT_GT(report.cache.hits, 0)
        << "repeated mixes must be served from cache";
    EXPECT_EQ(report.uniqueMixes,
              static_cast<long>(sim.cache().size()));
    EXPECT_LE(report.p50LatencySec, report.p95LatencySec);
    EXPECT_LE(report.p95LatencySec, report.p99LatencySec);
    EXPECT_LE(report.p99LatencySec, report.maxLatencySec);

    // Completion records are consistent with the input trace.
    ASSERT_EQ(sim.records().size(), 400u);
    for (const Request& req : sim.records()) {
        EXPECT_TRUE(req.completed());
        EXPECT_GE(req.dispatchSec, req.arrivalSec);
        EXPECT_GT(req.completionSec, req.dispatchSec);
    }

    // A second identical run is served entirely from the warm cache.
    const ServingReport warm = sim.run(trace);
    EXPECT_EQ(warm.cache.misses, 0);
    EXPECT_GT(warm.cache.hits, 0);
    EXPECT_DOUBLE_EQ(warm.p99LatencySec, report.p99LatencySec);
}

TEST(ServingSim, DeterministicForFixedSeed)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 200, 3);
    FleetSimulator a(catalog,
                     templates::hetSides3x3(templates::kArvrPes));
    FleetSimulator b(catalog,
                     templates::hetSides3x3(templates::kArvrPes));
    const ServingReport ra = a.run(trace);
    const ServingReport rb = b.run(trace);
    EXPECT_DOUBLE_EQ(ra.p99LatencySec, rb.p99LatencySec);
    EXPECT_DOUBLE_EQ(ra.throughputRps, rb.throughputRps);
    EXPECT_EQ(ra.cache.misses, rb.cache.misses);
}

TEST(ServingSim, RejectsDuplicateCatalogNames)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[1].model = zoo::eyeCod(2); // same name, different batch
    EXPECT_THROW(
        FleetSimulator(catalog,
                       templates::hetSides3x3(templates::kArvrPes)),
        FatalError)
        << "duplicate names would alias mix signatures";
}

TEST(ServingSim, ReportRendererMentionsKeyMetrics)
{
    const auto catalog = smallCatalog();
    FleetSimulator sim(catalog,
                       templates::hetSides3x3(templates::kArvrPes));
    const ServingReport report =
        sim.run(poissonTrace(catalog, 50, 1));
    const std::string text = describeServingReport(report);
    EXPECT_NE(text.find("Throughput"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
    EXPECT_NE(text.find("SLO violations"), std::string::npos);
    EXPECT_NE(text.find("cache hit rate"), std::string::npos);
}

} // namespace
} // namespace runtime
} // namespace scar
