/**
 * @file
 * Tests for heterogeneous multi-MCM fleets: per-shard package
 * templates, (mix, package)-keyed schedule caches (different
 * templates must never share a cached schedule; identical shards
 * behind a shared cache must still deduplicate), the cost-aware
 * BestFit routing policy and its WindowEvaluator-based completion
 * estimates, and the no-wasted-speculative-solve contract.
 */

#include <gtest/gtest.h>

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

/** One tiny model at batch cap 1: every dispatch forms the same mix,
 *  so cache sharing is decided purely by the package half of the key. */
std::vector<ServedModel>
singleModelCatalog()
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(1);
    catalog[0].rateRps = 100.0;
    catalog[0].sloSec = 0.5;
    return catalog;
}

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

/** A fast (many-PE) and a slow (few-PE) package of the same shape. */
Mcm
fastPackage()
{
    return templates::simba3x3(Dataflow::NvdlaWS, 1024);
}

Mcm
slowPackage()
{
    return templates::simba3x3(Dataflow::NvdlaWS, 64);
}

TEST(HetFleet, PerShardTemplatesServeAndReportTheirNames)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 300, 31);
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes)};
    options.routing = RoutingPolicy::RoundRobin;
    options.serving.admission.maxQueueDelaySec = 0.005;

    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    ASSERT_EQ(fleet.shardCount(), 2);
    EXPECT_EQ(fleet.mcm(0).name(),
              templates::hetSides3x3(templates::kArvrPes).name());
    EXPECT_EQ(fleet.mcm(1).name(),
              templates::simba3x3(Dataflow::ShiOS,
                                  templates::kArvrPes)
                  .name());

    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 300);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].mcmName, fleet.mcm(0).name());
    EXPECT_EQ(report.shards[1].mcmName, fleet.mcm(1).name());
    for (const ShardReport& shard : report.shards)
        EXPECT_GT(shard.dispatches, 0) << "shard " << shard.shardIdx;
}

TEST(HetFleet, HeterogeneousRunsAreDeterministic)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 200, 13);
    auto runOnce = [&]() {
        FleetOptions options;
        options.shardTemplates = {
            templates::hetSides3x3(templates::kArvrPes),
            templates::simba3x3(Dataflow::ShiOS,
                                templates::kArvrPes)};
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace);
    };
    const ServingReport a = runOnce();
    const ServingReport b = runOnce();
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    for (std::size_t s = 0; s < a.shards.size(); ++s)
        EXPECT_EQ(a.shards[s].dispatches, b.shards[s].dispatches);
}

TEST(HetFleet, ShardsCountConflictingWithTemplatesIsRejected)
{
    FleetOptions options;
    options.shards = 3;
    options.shardTemplates = {fastPackage(), slowPackage()};
    EXPECT_THROW(FleetSimulator(singleModelCatalog(), fastPackage(),
                                options),
                 FatalError);
}

/**
 * The cache-key regression of the issue: the same mix dispatched on
 * two different package templates must be solved once per template —
 * a schedule searched for one package is meaningless on another —
 * even though every shard shares the fleet's one cache.
 */
TEST(HetFleet, DifferentTemplatesNeverShareACachedSchedule)
{
    const auto catalog = singleModelCatalog();
    // Two lone requests far apart: each dispatches alone with the
    // identical mix signature; round-robin sends them to shards 0
    // and 1 in turn.
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shardTemplates = {fastPackage(), slowPackage()};
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog, fastPackage(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 2)
        << "one solve per (mix, package) pair";
    EXPECT_EQ(report.cache.hits, 0);
    EXPECT_EQ(report.uniqueMixes, 2)
        << "the store holds one entry per package";
}

/**
 * Interconnect-only variants must never alias. The four Het-Sides
 * packages share every chiplet spec and memory-interface position —
 * they differ in nothing but the topology (torus wrap links, express
 * diagonals, a broadcast plane) — so only the topology prefix of
 * Mcm::signature() keeps their schedule-cache keys apart.
 */
TEST(HetFleet, InterconnectVariantsGetDistinctSignatures)
{
    const std::vector<Mcm> variants = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::hetSidesTorus3x3(templates::kArvrPes),
        templates::hetSidesExpress3x3(templates::kArvrPes),
        templates::hetSidesBroadcast3x3(templates::kArvrPes)};
    for (std::size_t a = 0; a < variants.size(); ++a) {
        for (std::size_t b = a + 1; b < variants.size(); ++b)
            EXPECT_NE(variants[a].signature(), variants[b].signature())
                << variants[a].name() << " vs " << variants[b].name();
    }
}

/**
 * The fleet-level consequence: two shards whose packages differ only
 * in interconnect must each get their own solve in the fleet's cache
 * — a schedule searched on the mesh is wrong on the torus even
 * though every chiplet matches.
 */
TEST(HetFleet, InterconnectOnlyShardsNeverShareACachedSchedule)
{
    const auto catalog = singleModelCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::hetSidesTorus3x3(templates::kArvrPes)};
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 2)
        << "mesh and torus shards must solve separately";
    EXPECT_EQ(report.cache.hits, 0);
    EXPECT_EQ(report.uniqueMixes, 2)
        << "one store entry per interconnect";
}

/** The homogeneous counterpart: identical shards deduplicate — the
 *  second shard replays the first shard's schedule. */
TEST(HetFleet, SharedCacheStillDeduplicatesAcrossIdenticalShards)
{
    const auto catalog = singleModelCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shards = 2; // homogeneous copies of the ctor template
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog, fastPackage(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 1)
        << "identical packages share one schedule";
    EXPECT_EQ(report.cache.hits, 1);
    EXPECT_EQ(report.uniqueMixes, 1);
}

TEST(HetFleet, MakespanEstimateRanksFastPackageBelowSlow)
{
    const auto catalog = singleModelCatalog();
    FleetOptions options;
    options.shardTemplates = {fastPackage(), slowPackage()};
    FleetSimulator fleet(catalog, fastPackage(), options);

    Scenario mix;
    mix.name = "probe";
    mix.models = {catalog[0].model};

    const double fast = fleet.estimateMakespanSec(0, mix);
    const double slow = fleet.estimateMakespanSec(1, mix);
    EXPECT_GT(fast, 0.0);
    EXPECT_LT(fast, slow)
        << "a 16x-PE package must estimate a shorter makespan";
    // Memoized: re-estimating is exact, not merely close.
    EXPECT_DOUBLE_EQ(fast, fleet.estimateMakespanSec(0, mix));
}

/** BestFit with every shard idle routes to the package the cost
 *  model ranks fastest for the mix — not to shard 0 by convention. */
TEST(HetFleet, BestFitPicksTheCheaperTemplate)
{
    const auto catalog = singleModelCatalog();
    const auto trace = traceFromArrivals(catalog, {{0.0, 0}});

    for (const bool fastFirst : {true, false}) {
        FleetOptions options;
        options.routing = RoutingPolicy::BestFit;
        if (fastFirst)
            options.shardTemplates = {fastPackage(), slowPackage()};
        else
            options.shardTemplates = {slowPackage(), fastPackage()};
        FleetSimulator fleet(catalog, fastPackage(), options);
        const ServingReport report = fleet.run(trace);
        const int fastShard = fastFirst ? 0 : 1;
        EXPECT_EQ(report.shards[fastShard].dispatches, 1)
            << "fast shard must take the lone dispatch (fastFirst="
            << fastFirst << ")";
        EXPECT_EQ(report.shards[1 - fastShard].dispatches, 0);
    }
}

TEST(HetFleet, BestFitRoutesAreCostOptimalByConstruction)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 150, 7);
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes)};
    options.routing = RoutingPolicy::BestFit;
    options.serving.admission.maxQueueDelaySec = 0.005;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 150);
    EXPECT_GT(report.contestedRoutes, 0)
        << "a lightly loaded 2-shard fleet must see contested routes";
    EXPECT_EQ(report.costOptimalRoutes, report.contestedRoutes);
    EXPECT_DOUBLE_EQ(report.costOptimalRouteFrac, 1.0);
}

/**
 * BestFit prices each shard off its package's quote — one (cache key,
 * cache peek, makespan) per template signature. A quote shared across
 * templates would price a shard off another package's cache entries.
 * In run 1 two cap-1 requests of different models land on shards 0
 * and 1 (each solving into its own (mix, package) entry); in run 2 a
 * lone request of the model shard 1 solved must go to shard 1 — a
 * shard 0 quote would show the full modeled solve on both shards,
 * tie, and send it to shard 0.
 */
TEST(HetFleet, BestFitQuotesArePerTemplate)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(1);
    catalog[1].model = zoo::handSP(1);
    for (ServedModel& sm : catalog)
        sm.rateRps = 100.0;
    const auto first =
        traceFromArrivals(catalog, {{0.0, 0}, {0.001, 1}});
    const auto second = traceFromArrivals(catalog, {{0.0, 1}});

    FleetOptions options;
    options.shardTemplates = {fastPackage(), slowPackage()};
    options.routing = RoutingPolicy::BestFit;
    options.bestFitDefer = false;
    options.speculativeSolve = false;
    options.serving.modeledSolveSec = 1.0;
    FleetSimulator fleet(catalog, fastPackage(), options);

    const ServingReport warm = fleet.run(first);
    ASSERT_EQ(warm.shards[0].dispatches, 1);
    ASSERT_EQ(warm.shards[1].dispatches, 1);

    const ServingReport report = fleet.run(second);
    EXPECT_EQ(report.shards[1].dispatches, 1)
        << "the shard holding the schedule must win";
    EXPECT_EQ(report.solveStallSec, 0.0);
    EXPECT_EQ(report.cache.misses, 0);
}

/**
 * The wasted-speculation regression: a (mix, package) schedule that
 * is already resident — or already solving — for the shard the
 * dispatch is predicted to land on must not trigger another
 * background solve. Three back-to-back cap-1 requests: the first
 * launches the mix's one solve and the second parks on it on the
 * other shard; the third finds every shard occupied, so the
 * speculative path runs — and must recognize the in-flight solve
 * instead of launching a second.
 */
TEST(HetFleet, SpeculationNeverResolvesAResidentSchedule)
{
    const auto catalog = singleModelCatalog();
    const auto trace = traceFromArrivals(
        catalog, {{0.0, 0}, {0.0005, 0}, {0.001, 0}});

    for (const RoutingPolicy policy :
         {RoutingPolicy::LeastLoaded, RoutingPolicy::BestFit,
          RoutingPolicy::MixAffinity}) {
        FleetOptions options;
        options.shards = 2;
        options.routing = policy;
        options.speculativeSolve = true;
        options.serving.modeledSolveSec = 0.05;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        const ServingReport report = fleet.run(trace);
        EXPECT_EQ(report.completed, 3) << routingPolicyName(policy);
        // Identical shards share the single mix's one solve; request
        // 3 replays from whichever shard frees first. A wasted
        // speculative solve would show as a second miss.
        EXPECT_EQ(report.cache.misses, 1) << routingPolicyName(policy);
        EXPECT_GE(report.cache.hits, 1) << routingPolicyName(policy);
    }
}

} // namespace
} // namespace runtime
} // namespace scar
