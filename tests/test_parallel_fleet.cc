/**
 * @file
 * Tests for the fleet event loop's scale machinery: the quiet-interval
 * drain (a differential check of every observable artifact — report,
 * trace, metrics, samples — against the per-tick path on plain,
 * saturated, EDF with partial dispatch, preemptive, LLM
 * continuous/static, join-cut, and mixed LLM + vision fleets), the
 * ulp-exact boundary probes its bound keys on, BestFit's
 * routing-quality counters on a fleet whose packages hold several
 * shards (shared quotes), and the single-lock
 * AsyncScheduleCache (exactly one solve per key under concurrent
 * callers).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/thread_pool.h"
#include "eval/reporter.h"
#include "obs/flight_recorder.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace runtime
{

/** Reaches FleetSimulator's private per-tick test seam. */
class FleetSimulatorTestPeer
{
  public:
    /** Sends every window boundary through the per-tick path — the
     *  reference the quiet-interval drain must reproduce. */
    static void disableDrain(FleetSimulator& fleet)
    {
        fleet.perTickOnly_ = true;
    }
};

namespace
{

std::vector<ServedModel>
twoModelCatalog()
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

/** Every observable artifact of one fleet run, rendered to text so
 *  equality checks are byte-for-byte, not field-by-field. */
struct RunArtifacts
{
    std::string report;
    std::string traceJson;
    std::string metricsJson;
    std::string metricsCsv;
    std::string samplesCsv;
};

RunArtifacts
runFleet(FleetOptions options, const std::vector<ServedModel>& catalog,
         const std::vector<Request>& trace,
         ServingReport* reportOut = nullptr, bool perTickOnly = false)
{
    obs::FlightRecorder rec;
    options.recorder = &rec;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    if (perTickOnly)
        FleetSimulatorTestPeer::disableDrain(fleet);
    RunArtifacts out;
    const ServingReport report = fleet.run(trace);
    if (reportOut)
        *reportOut = report;
    out.report = describeServingReport(report);
    out.traceJson = rec.trace().toJson();
    out.metricsJson = rec.metrics().toJson();
    out.metricsCsv = rec.metrics().toCsv();
    out.samplesCsv = rec.samples().toCsv();
    return out;
}

/**
 * The differential check: the drained run and the per-tick reference
 * must agree on every artifact byte. Returns the drained run's report
 * so callers can assert the scenario exercised what it targets.
 */
ServingReport
expectDrainMatchesPerTick(const FleetOptions& options,
                          const std::vector<ServedModel>& catalog,
                          const std::vector<Request>& trace)
{
    ServingReport report;
    const RunArtifacts drained =
        runFleet(options, catalog, trace, &report);
    const RunArtifacts perTick =
        runFleet(options, catalog, trace, nullptr, true);
    EXPECT_EQ(drained.report, perTick.report);
    EXPECT_EQ(drained.traceJson, perTick.traceJson);
    EXPECT_EQ(drained.metricsJson, perTick.metricsJson);
    EXPECT_EQ(drained.metricsCsv, perTick.metricsCsv);
    EXPECT_EQ(drained.samplesCsv, perTick.samplesCsv);
    return report;
}

/** A 4-shard heterogeneous BestFit fleet exercising every drain
 *  hazard at once: deferral, speculation, solve stalls, switches. */
FleetOptions
hetFleetOptions()
{
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes),
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::NvdlaWS, 64)};
    options.routing = RoutingPolicy::BestFit;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.005;
    return options;
}

TEST(QuietIntervalDrain, MatchesPerTickOnHeterogeneousBestFit)
{
    const auto catalog = twoModelCatalog();
    const ServingReport report = expectDrainMatchesPerTick(
        hetFleetOptions(), catalog, poissonTrace(catalog, 400, 17));
    EXPECT_EQ(report.completed, 400);
}

TEST(QuietIntervalDrain, MatchesPerTickOnOneShard)
{
    // The golden serving scenario shape: one shard, RoundRobin.
    const auto catalog = twoModelCatalog();
    FleetOptions options;
    options.routing = RoutingPolicy::RoundRobin;
    options.serving.modeledSolveSec = 0.01;
    expectDrainMatchesPerTick(options, catalog,
                              poissonTrace(catalog, 250, 3));
}

TEST(QuietIntervalDrain, MatchesPerTickWithArrivalsAbsorbed)
{
    // Saturated and without speculation: every shard is busy most of
    // the time, so arrivals inside a quiet interval can only enqueue
    // and the drain absorbs them into its commit stream.
    auto catalog = twoModelCatalog();
    for (ServedModel& sm : catalog)
        sm.rateRps *= 4.0;
    FleetOptions options = hetFleetOptions();
    options.speculativeSolve = false;
    const ServingReport report = expectDrainMatchesPerTick(
        options, catalog, poissonTrace(catalog, 400, 19));
    EXPECT_GT(report.p99LatencySec, 0.05)
        << "the fleet must actually be saturated";
}

TEST(QuietIntervalDrain, MatchesPerTickUnderPreemption)
{
    const auto catalog = twoModelCatalog();
    FleetOptions options = hetFleetOptions();
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.004;
    const ServingReport report = expectDrainMatchesPerTick(
        options, catalog, poissonTrace(catalog, 300, 29));
    EXPECT_GT(report.preemptions, 0)
        << "the trace must exercise boundary preemption";
}

TEST(QuietIntervalDrain, MatchesPerTickAcrossUrgencyCrossings)
{
    // Tight SLOs put the deadline-slack crossing ahead of the next
    // replay end and the batching timer.
    auto catalog = twoModelCatalog();
    catalog[0].sloSec = 0.006;
    catalog[1].sloSec = 0.006;
    FleetOptions options = hetFleetOptions();
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.002;
    const ServingReport report = expectDrainMatchesPerTick(
        options, catalog, poissonTrace(catalog, 300, 29));
    EXPECT_GT(report.preemptions, 0);
}

TEST(QuietIntervalDrain, MatchesPerTickWithEdfAndPartialDispatch)
{
    // EDF boarding under overload and partial dispatch onto every
    // idle shard both change which plan a dispatch commits; the drain
    // must still reproduce the per-tick routing decisions.
    auto catalog = twoModelCatalog();
    for (ServedModel& sm : catalog)
        sm.rateRps *= 2.5;
    FleetOptions options = hetFleetOptions();
    options.serving.admission.order = QueueOrder::EarliestDeadline;
    options.serving.admission.speculativePartialDispatch = true;
    auto trace = poissonTrace(catalog, 400, 23);
    // Every third request is interactive: a deadline tighter than its
    // model's SLO, so one queue holds deadlines EDF can reorder.
    for (std::size_t i = 0; i < trace.size(); i += 3)
        trace[i].deadlineSec = trace[i].arrivalSec + 0.01;
    const ServingReport report =
        expectDrainMatchesPerTick(options, catalog, trace);
    EXPECT_EQ(report.completed, 400);
    // Each option must matter on this trace, or the case covers less
    // than it claims.
    FleetOptions fifo = options;
    fifo.serving.admission.order = QueueOrder::FifoArrival;
    FleetOptions timed = options;
    timed.serving.admission.speculativePartialDispatch = false;
    const std::string edfRun = runFleet(options, catalog, trace).report;
    EXPECT_NE(runFleet(fifo, catalog, trace).report, edfRun);
    EXPECT_NE(runFleet(timed, catalog, trace).report, edfRun);
}

/** A long multi-window handSP replay and a lone eyeCod request that
 *  arrives while it runs — nothing else happens before the replay
 *  ends, so one bound term alone must stop the drain. */
std::vector<ServedModel>
midReplayCatalog()
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::handSP(2);
    catalog[0].sloSec = 1.0;
    catalog[1].model = zoo::eyeCod(4);
    catalog[1].sloSec = 0.03;
    return catalog;
}

TEST(QuietIntervalDrain, MatchesPerTickWhenUrgencyCrossesMidReplay)
{
    // Solves are free (no speculation guard), so only the urgency
    // term keeps the drain from committing the boundary where the
    // per-tick path preempts the replay.
    const auto catalog = midReplayCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {0.02, 1}});
    FleetOptions options;
    options.serving.admission.maxQueueDelaySec = 0.001;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.005;
    const ServingReport report =
        expectDrainMatchesPerTick(options, catalog, trace);
    EXPECT_EQ(report.preemptions, 1);
}

TEST(QuietIntervalDrain, MatchesPerTickWhenTheBatchTimerMaturesMidReplay)
{
    // The eyeCod batch is not ready on arrival, and no shard is free
    // for the batching-timer term; only the speculation term stops
    // the drain at the timer instant, where the per-tick path starts
    // the speculative solve.
    const auto catalog = midReplayCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {0.025, 1}});
    FleetOptions options;
    options.serving.modeledSolveSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.01;
    expectDrainMatchesPerTick(options, catalog, trace);
}

/** One-model LLM catalog around a deliberately small decoder. */
std::vector<ServedModel>
llmChatCatalog(int batchCap)
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    std::vector<ServedModel> catalog(1);
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = batchCap;
    catalog[0].rateRps = 100.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 32;
    return catalog;
}

TEST(QuietIntervalDrain, MatchesPerTickOnLlmFleets)
{
    const auto catalog = llmChatCatalog(/*batchCap=*/4);
    const auto trace = llmPoissonTrace(catalog, 80, 7);
    for (const LlmBatchingMode mode :
         {LlmBatchingMode::Continuous, LlmBatchingMode::Static}) {
        FleetOptions options;
        options.shards = 2;
        options.serving.modeledSolveSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.001;
        options.serving.admission.llmBatching = mode;
        const ServingReport report =
            expectDrainMatchesPerTick(options, catalog, trace);
        EXPECT_GT(report.llmDecodeRounds, 0);
    }
}

TEST(QuietIntervalDrain, MatchesPerTickAroundTheJoinCut)
{
    // B's prefill finishes while A decodes a long stream, so B must
    // join on a step-aligned boundary of A's in-flight round. A join
    // probe one ulp off would either drain the cut tick (losing the
    // join) or cut a step early.
    auto catalog = llmChatCatalog(/*batchCap=*/4);
    auto trace = traceFromArrivals(catalog, {{0.0, 0}, {0.001, 0}});
    trace[0].promptTokens = 16;
    trace[0].outputTokens = 200; // long generation: many rounds
    trace[1].promptTokens = 16;
    trace[1].outputTokens = 8;

    FleetOptions options;
    options.shards = 2;
    options.serving.admission.llmBatching = LlmBatchingMode::Continuous;
    options.serving.admission.maxQueueDelaySec = 0.0002;
    const ServingReport report =
        expectDrainMatchesPerTick(options, catalog, trace);
    EXPECT_GE(report.llmJoins, 1)
        << "B must join A's in-flight decode stream";
}

TEST(QuietIntervalDrain, MatchesPerTickOnMixedLlmAndVision)
{
    // A chat prompt and a hand-tracking frame board one mix; the
    // chat prefill finishes windows before the mix's replay ends, and
    // its decode round starts on the idle second shard right away.
    // Only the release term stops the drain before that completion.
    auto catalog = llmChatCatalog(/*batchCap=*/4);
    ServedModel vision;
    vision.model = zoo::handSP(2);
    vision.sloSec = 1.0;
    catalog.push_back(std::move(vision));
    auto trace = traceFromArrivals(catalog, {{0.0, 0}, {0.0, 1}});
    trace[0].promptTokens = 16;
    trace[0].outputTokens = 8;
    FleetOptions options;
    options.shards = 2;
    options.serving.admission.maxQueueDelaySec = 0.001;
    options.serving.admission.llmBatching = LlmBatchingMode::Continuous;
    const ServingReport report =
        expectDrainMatchesPerTick(options, catalog, trace);
    EXPECT_EQ(report.llmDecodeRounds, 1);
    EXPECT_LT(report.p99TtftSec, report.p99LatencySec);
}

/** Crosses every boundary strictly before boundSec, as the drain
 *  does; returns the number of ticks. */
int
advanceBefore(ReplayExecutor& executor, double boundSec)
{
    int ticks = 0;
    while (executor.busy() && executor.nextBoundarySec() < boundSec) {
        executor.advance();
        ++ticks;
    }
    return ticks;
}

TEST(ParallelFleet, BoundaryProbesAreUlpExact)
{
    // The join/release bound terms only work if the probes reproduce
    // advance()'s boundary instants bit for bit: a probe one ulp
    // early drains the cut tick, one ulp late cuts a window short.
    // Awkward window durations make naive start-plus-prefix-sum
    // arithmetic diverge from the executor's left-to-right
    // accumulation.
    CachedSchedule entry;
    Scenario mix;
    mix.name = "mix";
    mix.models = {zoo::eyeCod(1)};
    entry.mix = mix;
    ModelPlacement mp;
    mp.modelIdx = 0;
    mp.segments.push_back(
        {LayerRange{0, mix.models[0].numLayers() - 1}, 0});
    for (const double cycles :
         {333.3e6, 77.7e6, 123.456e6, 98.7e6, 55.5e6, 222.2e6}) {
        ScheduledWindow w;
        w.placement.models = {mp};
        w.cost.latencyCycles = cycles;
        entry.result.windows.push_back(w);
    }
    buildReplayView(entry);

    Dispatch dispatch;
    dispatch.mix = entry.mix;
    dispatch.catalogIdx = {0};
    BatchGroup g;
    g.catalogIdx = 0;
    g.batch = 1;
    Request r;
    r.id = 0;
    r.modelIdx = 0;
    r.arrivalSec = 0.0;
    g.requests = {r};
    dispatch.groups = {g};

    ReplayExecutor executor;
    executor.start(std::make_shared<CachedSchedule>(entry), dispatch,
                   0.1234567);

    // With 2 windows per step, the step-aligned cuts follow windows 1
    // and 3; window 5 is the final boundary and must never be a cut.
    const double cut1 = executor.nextStepBoundarySec(2);
    EXPECT_EQ(advanceBefore(executor, cut1), 1)
        << "the cut tick itself must stay outside the drain";
    WindowTick tick = executor.advance();
    EXPECT_EQ(tick.windowIdx, 1);
    EXPECT_EQ(tick.timeSec, cut1)
        << "join probe must match the tick instant bit for bit";

    const double cut2 = executor.nextStepBoundarySec(2);
    EXPECT_GT(cut2, cut1);
    EXPECT_EQ(advanceBefore(executor, cut2), 1);
    tick = executor.advance();
    EXPECT_EQ(tick.windowIdx, 3);
    EXPECT_EQ(tick.timeSec, cut2);

    // Past the last step-aligned cut only the final (dispatch-done)
    // boundary remains, which the replay-end term already covers.
    EXPECT_EQ(executor.nextStepBoundarySec(2),
              std::numeric_limits<double>::infinity());

    // The release probe lands on the group's last-window boundary on
    // the same exact clock, and an empty predicate selects nothing.
    EXPECT_EQ(executor.earliestGroupEndSec(
                  [](std::size_t) { return true; }),
              executor.finalBoundarySec());
    EXPECT_EQ(executor.earliestGroupEndSec(
                  [](std::size_t) { return false; }),
              std::numeric_limits<double>::infinity());

    // The replay-end term: a drain bounded at the final boundary
    // leaves the dispatch-done tick, which lands on it exactly.
    const double end = executor.finalBoundarySec();
    EXPECT_EQ(advanceBefore(executor, end), 1);
    tick = executor.advance();
    EXPECT_TRUE(tick.dispatchDone);
    EXPECT_EQ(tick.timeSec, end);
}

TEST(ParallelFleet, BestFitIsCostOptimalOnSharedQuotes)
{
    // hetFleetOptions() puts two identical shards behind the shared
    // cache, so one package quote prices both of them.
    const auto catalog = twoModelCatalog();
    FleetOptions options = hetFleetOptions();
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const auto trace = poissonTrace(catalog, 400, 31);
    const ServingReport report = fleet.run(trace);
    // BestFit is cost-optimal by construction: every contested pick
    // must be one the cost model ranks cheapest.
    EXPECT_GT(report.contestedRoutes, 0);
    EXPECT_EQ(report.costOptimalRoutes, report.contestedRoutes);
    EXPECT_DOUBLE_EQ(report.costOptimalRouteFrac, 1.0);
}

// ---- single-lock AsyncScheduleCache --------------------------------

Scenario
mixNamed(const std::string& name, int batch)
{
    Scenario sc;
    sc.name = name;
    sc.models = {zoo::eyeCod(batch)};
    return sc;
}

ScheduleResult
stubSchedule(const Scenario& mix)
{
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
}

TEST(AsyncScheduleCache, RacingLookupJoinSolvesExactlyOncePerKey)
{
    ThreadPool pool(4);
    AsyncScheduleCache cache(pool);
    std::atomic<int> solves{0};
    const auto compute = [&](const Scenario& mix) {
        ++solves;
        return stubSchedule(mix);
    };

    // 8 distinct keys, 4 racing lookup()+join() callers per key:
    // each key must solve exactly once and every caller must see the
    // same entry.
    constexpr int kKeys = 8;
    constexpr int kCallers = 4;
    std::vector<std::shared_ptr<const CachedSchedule>> seen(
        kKeys * kCallers);
    std::vector<std::thread> callers;
    for (int i = 0; i < kKeys * kCallers; ++i) {
        callers.emplace_back([&, i] {
            const int k = i % kKeys;
            const Scenario mix =
                mixNamed("mix" + std::to_string(k), k + 1);
            const std::string key = mix.signature();
            cache.lookup(key, mix, compute, 0.0, 0.0);
            seen[i] = cache.join(key);
        });
    }
    for (std::thread& caller : callers)
        caller.join();
    EXPECT_EQ(solves.load(), kKeys);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
    for (int key = 0; key < kKeys; ++key)
        for (int c = 1; c < kCallers; ++c)
            EXPECT_EQ(seen[key], seen[c * kKeys + key])
                << "caller " << c << " of key " << key
                << " saw a different entry";

    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, kKeys);
    EXPECT_EQ(stats.hits + stats.misses, kKeys * kCallers);
}

TEST(AsyncScheduleCache, PrefetchIsIdempotentPerKey)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    std::atomic<int> solves{0};
    const auto compute = [&](const Scenario& mix) {
        ++solves;
        return stubSchedule(mix);
    };

    const auto mixOf = [](int k) {
        return mixNamed("pf" + std::to_string(k), k + 1);
    };
    for (int k = 0; k < 6; ++k)
        EXPECT_TRUE(cache.prefetch(mixOf(k).signature(), mixOf(k),
                                   compute, 0.5));
    // Idempotent per key, in flight or stored.
    for (int k = 0; k < 3; ++k)
        EXPECT_FALSE(cache.prefetch(mixOf(k).signature(), mixOf(k),
                                    compute, 0.5));
    cache.drainInFlight();
    for (int k = 3; k < 6; ++k)
        EXPECT_FALSE(cache.prefetch(mixOf(k).signature(), mixOf(k),
                                    compute, 0.5));
    EXPECT_EQ(solves.load(), 6);
    EXPECT_EQ(cache.size(), 6u);

    // lookup() joins the stored entries as hits.
    for (int k = 0; k < 6; ++k) {
        const Scenario mix = mixOf(k);
        const AsyncLookup found =
            cache.lookup(mix.signature(), mix, compute, 1.0, 0.25);
        EXPECT_NE(found.schedule, nullptr);
        EXPECT_FALSE(found.startedSolve);
        EXPECT_DOUBLE_EQ(found.readySec, 1.0);
    }
    EXPECT_EQ(solves.load(), 6);
    EXPECT_EQ(cache.stats().hits, 6);
}

} // namespace
} // namespace runtime
} // namespace scar
