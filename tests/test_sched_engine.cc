/**
 * @file
 * Tests for the SCHED engine and the evolutionary SEG driver:
 * feasibility, exclusivity, score ordering, determinism, the solo-cost
 * and path memos, and input validation at the search boundary.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "arch/mcm_templates.h"
#include "common/rng.h"
#include "eval/scenario_suite.h"
#include "sched/evolutionary.h"
#include "sched/scar.h"
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

/** Runs `call` and returns the FatalError message ("" if none). */
template <typename Call>
std::string
fatalMessage(Call call)
{
    try {
        call();
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST_F(SchedEngineTest, PlaceSegmentationsValidatesItsInputs)
{
    // placeSegmentations is the EA's public entry: the solo costing
    // behind it prices segments unchecked, so malformed segmentations
    // must fail here, with the messages evaluate() gives.
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const std::vector<int> present = {0};
    const int layers = sc_.models[0].numLayers();
    auto place = [&](std::vector<LayerRange> ranges, int model = 0) {
        Segmentation seg;
        seg.segments = std::move(ranges);
        return fatalMessage([&] {
            sched.placeSegmentations({model}, {seg});
        });
    };
    auto contains = [](const std::string& text, const std::string& part) {
        return text.find(part) != std::string::npos;
    };

    const std::string name = sc_.models[0].name;
    EXPECT_TRUE(contains(place({{0, 3}, {5, layers - 1}}),
                         "segments must be contiguous for model " +
                             name + " (got first=5 after last=3)"));
    EXPECT_TRUE(contains(place({{0, 3}, {4, 3}, {4, layers - 1}}),
                         "empty segment for model " + name));
    EXPECT_TRUE(contains(place({}),
                         "model " + name + " placed with no segments"));
    EXPECT_TRUE(contains(place({{0, layers}}),
                         "segment exceeds model " + name));
    EXPECT_TRUE(contains(place({{0, 3}}, 7), "bad model index 7"));
    EXPECT_TRUE(contains(place({{0, 3}}, -1), "bad model index -1"));
    // The well-formed split still places.
    EXPECT_EQ(place({{0, 3}, {4, layers - 1}}), "");
    EXPECT_TRUE(sched.placeSegmentations(present,
                                         {Segmentation{{{0, layers - 1}}}})
                    .found);
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

// ---- Solo-cost memoization (WindowScheduler::SoloCache) ------------

using SoloCache = WindowScheduler::SoloCache;

/** The reference key: every field, with the segment count explicit. */
std::vector<int>
referenceKey(int model, int entry, const Segmentation& seg,
             const std::vector<int>& path)
{
    std::vector<int> key = {model, entry,
                            static_cast<int>(path.size())};
    for (const LayerRange& r : seg.segments)
        key.push_back(r.last);
    key.insert(key.end(), path.begin(), path.end());
    return key;
}

Segmentation
segmentationWithEnds(const std::vector<int>& ends)
{
    Segmentation seg;
    int first = 0;
    for (const int last : ends) {
        seg.segments.push_back(LayerRange{first, last});
        first = last + 1;
    }
    return seg;
}

TEST(SoloCache, MatchesOrderedMapReference)
{
    // Random probes from a small key space, so many keys repeat; the
    // memo ends up with more keys than its reserved 4,096-slot table
    // holds, so the table doubles twice (past 7/8 of 4,096 and 8,192).
    Rng rng(2024);
    SoloCache cache;
    std::map<std::vector<int>, std::pair<double, double>> reference;
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const int model = rng.uniformInt(0, 2);
        const int entry = rng.uniformInt(-1, 3);
        const int n = rng.uniformInt(1, 4);
        std::vector<int> ends;
        std::vector<int> path;
        int last = -1;
        for (int k = 0; k < n; ++k) {
            last += rng.uniformInt(1, 2);
            ends.push_back(last);
            path.push_back(rng.uniformInt(0, 3));
        }
        const Segmentation seg = segmentationWithEnds(ends);
        const SoloCache::Key key =
            SoloCache::makeKey(model, entry, seg, path);
        const auto ref = reference.find(referenceKey(model, entry, seg,
                                                     path));
        const SoloCache::Value* found = cache.find(key);
        if (ref != reference.end()) {
            ASSERT_NE(found, nullptr) << "lost key at probe " << i;
            EXPECT_EQ(*found, ref->second);
            ++hits;
            continue;
        }
        ASSERT_EQ(found, nullptr) << "phantom hit at probe " << i;
        const SoloCache::Value value{rng.uniform(), rng.uniform()};
        cache.insert(key, value);
        reference.emplace(referenceKey(model, entry, seg, path), value);
    }
    EXPECT_EQ(cache.size(), reference.size());
    EXPECT_GT(hits, 10000);
    EXPECT_GT(reference.size(), 7168u);
}

TEST(SoloCache, CollidingKeysStayDistinct)
{
    // Every key below is forced into one hash bucket, so only the
    // stored integers tell them apart.
    struct Probe
    {
        int model;
        int entry;
        Segmentation seg;
        std::vector<int> path;
    };
    const std::vector<Probe> probes = {
        {1, 2, segmentationWithEnds({3, 5}), {0, 1}}, // base
        {1, 3, segmentationWithEnds({3, 5}), {0, 1}}, // entry
        {1, 2, segmentationWithEnds({3, 6}), {0, 1}}, // one end
        {1, 2, segmentationWithEnds({3, 5}), {1, 0}}, // path order
        {2, 2, segmentationWithEnds({3, 5}), {0, 1}}, // model
        // Segment count: the flattened integers of one key start with
        // those of the other — (1, 2, 3, 5) against (1, 2, 3, 5, 0, 1)
        // and (1, 2, 3, 5, 0, 1, 7, 8).
        {1, 2, segmentationWithEnds({3}), {5}},
        {1, 2, segmentationWithEnds({3, 5, 7}), {0, 1, 8}},
    };
    constexpr std::uint32_t kBucket = 42;
    auto keyOf = [&](const Probe& p) {
        SoloCache::Key key =
            SoloCache::makeKey(p.model, p.entry, p.seg, p.path);
        key.hash = kBucket;
        return key;
    };

    SoloCache cache;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const SoloCache::Key key = keyOf(probes[i]);
        ASSERT_EQ(cache.find(key), nullptr) << "probe " << i << " hit";
        cache.insert(key, {static_cast<double>(i), -1.0});
    }
    EXPECT_EQ(cache.size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const SoloCache::Value* found = cache.find(keyOf(probes[i]));
        ASSERT_NE(found, nullptr) << "probe " << i << " lost";
        EXPECT_EQ(found->first, static_cast<double>(i));
    }
    // The real hash keeps the same keys apart too.
    for (const Probe& p : probes) {
        EXPECT_EQ(cache.find(SoloCache::makeKey(p.model, p.entry, p.seg,
                                                p.path)),
                  nullptr);
    }
}

/** Every bit of a schedule that a memo could influence. */
std::string
scheduleBits(const ScheduleResult& result)
{
    std::ostringstream out;
    out.precision(17);
    for (const ScheduledWindow& w : result.windows) {
        out << w.cost.latencyCycles << ' ' << w.cost.energyNj << ' '
            << w.cost.dramBytes << ':';
        for (const ModelPlacement& mp : w.placement.models) {
            out << " m" << mp.modelIdx;
            for (const PlacedSegment& seg : mp.segments)
                out << ' ' << seg.range.first << '-' << seg.range.last
                    << '@' << seg.chiplet;
        }
        out << '\n';
    }
    out << result.metrics.latencySec << ' ' << result.metrics.energyJ
        << ' ' << result.candidates.size();
    return out.str();
}

TEST(SoloCache, SearchesMatchProfiledRunsAndCounts)
{
    // Table III Sc4 by brute force on the 3x3 package and by the EA on
    // the 6x6 one. Profiling attaches counters but must not move a
    // bit, and the counts are those the vector-keyed memo this one
    // replaced reported for the same solves: a hit and a miss still
    // mean the same thing.
    struct Case
    {
        Mcm mcm;
        SearchMode mode;
        std::int64_t soloHits;
        std::int64_t soloMisses;
    };
    const std::vector<Case> cases = {
        {templates::hetSides3x3(), SearchMode::BruteForce, 5869, 5725},
        {templates::hetCross6x6(), SearchMode::Evolutionary, 62834,
         11041},
    };
    const Scenario sc = suite::datacenterScenario(4);
    for (const Case& c : cases) {
        ScarOptions plain;
        plain.mode = c.mode;
        const std::string expected =
            scheduleBits(Scar(sc, c.mcm, plain).run());
        for (int run = 0; run < 2; ++run) {
            obs::SolveProfile profile;
            ScarOptions profiled = plain;
            profiled.profile = &profile;
            EXPECT_EQ(scheduleBits(Scar(sc, c.mcm, profiled).run()),
                      expected);
            EXPECT_EQ(profile.soloHits, c.soloHits);
            EXPECT_EQ(profile.soloMisses, c.soloMisses);
        }
    }
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
