/**
 * @file
 * Tests for the SCHED engine and the evolutionary SEG driver:
 * feasibility, exclusivity, score ordering, and determinism.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/mcm_templates.h"
#include "sched/evolutionary.h"
#include "sched/sched_engine.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

class SchedEngineTest : public ::testing::Test
{
  protected:
    SchedEngineTest()
        : mcm_(templates::hetSides3x3())
    {
        sc_.name = "sched";
        sc_.models = {zoo::eyeCod(8), zoo::bertBase(2)};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
        wa_.perModel = {
            LayerRange{0, sc_.models[0].numLayers() - 1},
            LayerRange{0, 11},
        };
        nodes_ = {3, 3};
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
    WindowAssignment wa_;
    NodeAllocation nodes_;
};

TEST_F(SchedEngineTest, FindsFeasiblePlacement)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.best.placement.models.size(), 2u);
    EXPECT_GT(result.best.cost.latencyCycles, 0.0);
    EXPECT_GT(result.best.cost.energyNj, 0.0);
}

TEST_F(SchedEngineTest, PlacementRespectsExclusivity)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    std::set<int> used;
    for (const ModelPlacement& mp : result.best.placement.models) {
        for (const PlacedSegment& seg : mp.segments)
            EXPECT_TRUE(used.insert(seg.chiplet).second)
                << "chiplet reused: " << seg.chiplet;
    }
}

TEST_F(SchedEngineTest, SegmentsRespectNodeAllocation)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    for (const ModelPlacement& mp : result.best.placement.models) {
        EXPECT_LE(static_cast<int>(mp.segments.size()),
                  nodes_[mp.modelIdx]);
    }
}

TEST_F(SchedEngineTest, SegmentsOnAdjacentChiplets)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    for (const ModelPlacement& mp : result.best.placement.models) {
        for (std::size_t k = 0; k + 1 < mp.segments.size(); ++k) {
            EXPECT_EQ(mcm_.topology().hops(mp.segments[k].chiplet,
                                           mp.segments[k + 1].chiplet),
                      1);
        }
    }
}

TEST_F(SchedEngineTest, TopListIsSortedByScore)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    EXPECT_GE(result.top.size(), 2u);
    for (std::size_t i = 0; i + 1 < result.top.size(); ++i)
        EXPECT_LE(result.top[i].score, result.top[i + 1].score);
    EXPECT_DOUBLE_EQ(result.best.score, result.top.front().score);
}

TEST_F(SchedEngineTest, DeterministicForFixedSeed)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto a = sched.search(wa_, nodes_, 42);
    const auto b = sched.search(wa_, nodes_, 42);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_DOUBLE_EQ(a.best.score, b.best.score);
}

TEST_F(SchedEngineTest, LatencyTargetPrefersFasterWindows)
{
    const WindowScheduler latSched(*db_, OptTarget::Latency);
    const WindowScheduler nrgSched(*db_, OptTarget::Energy);
    const auto lat = latSched.search(wa_, nodes_, 1);
    const auto nrg = nrgSched.search(wa_, nodes_, 1);
    ASSERT_TRUE(lat.found && nrg.found);
    // Both searches are heuristic (beam), so allow a small slack.
    EXPECT_LE(lat.best.cost.latencyCycles,
              nrg.best.cost.latencyCycles * 1.05);
    EXPECT_LE(nrg.best.cost.energyNj, lat.best.cost.energyNj * 1.05);
}

TEST_F(SchedEngineTest, SingleNodePerModelStillWorks)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, {1, 1}, 1);
    ASSERT_TRUE(result.found);
    for (const ModelPlacement& mp : result.best.placement.models)
        EXPECT_EQ(mp.segments.size(), 1u);
}

TEST_F(SchedEngineTest, EntryChipletInfluencesPlacementCost)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto fresh = sched.search(wa_, nodes_, 1, {});
    const auto continued = sched.search(wa_, nodes_, 1, {0, 4});
    ASSERT_TRUE(fresh.found && continued.found);
    // Continuing from on-package data can only help (less DRAM).
    EXPECT_LE(continued.best.cost.dramBytes,
              fresh.best.cost.dramBytes + 1.0);
}

TEST_F(SchedEngineTest, MoreModelsThanFitFailsGracefully)
{
    // Allocation vector with a zero for a present model throws.
    const WindowScheduler sched(*db_, OptTarget::Edp);
    EXPECT_THROW(sched.search(wa_, {0, 3}, 1), FatalError);
}

TEST(SchedEngineSmallMcm, WorksOnMotivational2x2)
{
    Scenario sc;
    sc.name = "tiny";
    sc.models = {zoo::eyeCod(2)};
    sc.finalize();
    const Mcm mcm = templates::motivational2x2();
    const CostDb db(sc, mcm);
    const WindowScheduler sched(db, OptTarget::Edp);
    WindowAssignment wa;
    wa.perModel = {LayerRange{0, sc.models[0].numLayers() - 1}};
    const auto result = sched.search(wa, {2}, 1);
    ASSERT_TRUE(result.found);
    EXPECT_LE(result.best.placement.models[0].segments.size(), 2u);
}

class EvoTest : public SchedEngineTest
{
};

TEST_F(EvoTest, FindsFeasiblePlacement)
{
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto result = evo.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found);
    std::set<int> used;
    for (const ModelPlacement& mp : result.best.placement.models) {
        EXPECT_LE(static_cast<int>(mp.segments.size()),
                  nodes_[mp.modelIdx]);
        for (const PlacedSegment& seg : mp.segments)
            EXPECT_TRUE(used.insert(seg.chiplet).second);
    }
}

TEST_F(EvoTest, DeterministicForFixedSeed)
{
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto a = evo.search(wa_, nodes_, 7);
    const auto b = evo.search(wa_, nodes_, 7);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_DOUBLE_EQ(a.best.score, b.best.score);
}

TEST_F(EvoTest, SeededGenomeMakesEvoCompetitiveWithBruteForce)
{
    const WindowScheduler brute(*db_, OptTarget::Edp);
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto b = brute.search(wa_, nodes_, 1);
    const auto e = evo.search(wa_, nodes_, 1);
    ASSERT_TRUE(b.found && e.found);
    // The EA population is seeded with the quick-ranked segmentation,
    // so it should come within 2x of the brute-force score.
    EXPECT_LE(e.best.score, b.best.score * 2.0);
}

TEST_F(EvoTest, RespectsPopulationAndGenerationKnobs)
{
    EvoOptions opts;
    opts.population = 4;
    opts.generations = 2;
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{}, opts);
    EXPECT_TRUE(evo.search(wa_, nodes_, 1).found);
}

TEST_F(EvoTest, RejectsDegenerateOptions)
{
    EvoOptions bad;
    bad.population = 1;
    EXPECT_THROW(EvolutionaryWindowSearch(*db_, OptTarget::Edp,
                                          WindowSearchOptions{}, bad),
                 FatalError);
}

// ---- Path memoization (sched_tree.h PathCache) ---------------------

TEST(PathCache, MatchesDirectEnumerationAndMemoizes)
{
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> blocked(9, false);
    blocked[4] = true; // knock out the center

    PathCache cache;
    const auto cached = cache.get(topo, 3, blocked, 96);
    const auto direct = enumeratePathsAllRoots(topo, 3, blocked, 96);
    EXPECT_EQ(*cached, direct);

    // A hit returns the very same enumeration (shared storage).
    const auto again = cache.get(topo, 3, blocked, 96);
    EXPECT_EQ(cached.get(), again.get());

    // Different occupancy or length is a different key.
    blocked[4] = false;
    const auto other = cache.get(topo, 3, blocked, 96);
    EXPECT_NE(other.get(), cached.get());
    EXPECT_EQ(*other, enumeratePathsAllRoots(topo, 3, blocked, 96));
    const auto shorter = cache.get(topo, 2, blocked, 96);
    EXPECT_EQ(*shorter, enumeratePathsAllRoots(topo, 2, blocked, 96));
}

} // namespace
} // namespace scar
