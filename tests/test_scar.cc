/**
 * @file
 * Integration tests for the SCAR facade: full two-level scheduling
 * runs across scenarios, MCM templates, targets, and search modes.
 */

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <vector>

#include "arch/mcm_templates.h"
#include "eval/scenario_suite.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

Scenario
smallScenario()
{
    Scenario sc;
    sc.name = "small";
    sc.models = {zoo::eyeCod(8), zoo::handSP(4)};
    sc.finalize();
    return sc;
}

/** Checks the Theorem 1+2 validity of a full schedule. */
void
expectValidSchedule(const Scenario& sc, const ScheduleResult& result)
{
    std::vector<int> next(sc.numModels(), 0);
    for (const ScheduledWindow& sw : result.windows) {
        std::set<int> used;
        for (const ModelPlacement& mp : sw.placement.models) {
            for (const PlacedSegment& seg : mp.segments) {
                EXPECT_TRUE(used.insert(seg.chiplet).second);
                EXPECT_EQ(seg.range.first, next[mp.modelIdx]);
                next[mp.modelIdx] = seg.range.last + 1;
            }
        }
    }
    for (int m = 0; m < sc.numModels(); ++m)
        EXPECT_EQ(next[m], sc.models[m].numLayers()) << "model " << m;
}

TEST(Scar, ProducesValidCompleteSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
    EXPECT_GT(result.metrics.latencySec, 0.0);
    EXPECT_GT(result.metrics.energyJ, 0.0);
}

TEST(Scar, MetricsAreWindowSums)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    double cycles = 0.0;
    double energy = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        cycles += sw.cost.latencyCycles;
        energy += sw.cost.energyNj;
    }
    EXPECT_NEAR(result.metrics.latencySec, cyclesToSeconds(cycles),
                1e-12);
    EXPECT_NEAR(result.metrics.energyJ, njToJoules(energy), 1e-12);
    EXPECT_NEAR(result.metrics.edp(),
                result.metrics.latencySec * result.metrics.energyJ,
                1e-15);
}

TEST(Scar, CandidateCloudIsPopulated)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetCb3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    EXPECT_GE(result.candidates.size(), 8u);
    for (const Metrics& m : result.candidates) {
        EXPECT_GT(m.latencySec, 0.0);
        EXPECT_GT(m.energyJ, 0.0);
    }
}

TEST(Scar, DeterministicForFixedSeed)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.seed = 99;
    const Metrics a = Scar(sc, mcm, opts).run().metrics;
    const Metrics b = Scar(sc, mcm, opts).run().metrics;
    EXPECT_DOUBLE_EQ(a.latencySec, b.latencySec);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
}

/** Bitwise equality of two complete schedule results. */
void
expectIdenticalResults(const ScheduleResult& a, const ScheduleResult& b)
{
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        const ScheduledWindow& wa = a.windows[w];
        const ScheduledWindow& wb = b.windows[w];
        EXPECT_EQ(wa.cost.latencyCycles, wb.cost.latencyCycles);
        EXPECT_EQ(wa.cost.energyNj, wb.cost.energyNj);
        EXPECT_EQ(wa.nodes, wb.nodes);
        ASSERT_EQ(wa.placement.models.size(),
                  wb.placement.models.size());
        for (std::size_t m = 0; m < wa.placement.models.size(); ++m) {
            const ModelPlacement& ma = wa.placement.models[m];
            const ModelPlacement& mb = wb.placement.models[m];
            EXPECT_EQ(ma.modelIdx, mb.modelIdx);
            ASSERT_EQ(ma.segments.size(), mb.segments.size());
            for (std::size_t k = 0; k < ma.segments.size(); ++k) {
                EXPECT_EQ(ma.segments[k].chiplet,
                          mb.segments[k].chiplet);
                EXPECT_EQ(ma.segments[k].range.first,
                          mb.segments[k].range.first);
                EXPECT_EQ(ma.segments[k].range.last,
                          mb.segments[k].range.last);
            }
        }
    }
    EXPECT_EQ(a.metrics.latencySec, b.metrics.latencySec);
    EXPECT_EQ(a.metrics.energyJ, b.metrics.energyJ);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].latencySec,
                  b.candidates[i].latencySec);
        EXPECT_EQ(a.candidates[i].energyJ, b.candidates[i].energyJ);
    }
}

/** Solves running side by side on a pool — the serving runtime's only
 *  parallelism — each return the serial run's ScheduleResult bit for
 *  bit, while sharing the process-wide CostDb table cache. */
TEST(Scar, ConcurrentRunsMatchSerialRun)
{
    const Scenario sc = smallScenario();
    ScarOptions brute;
    brute.seed = 2024;
    const Mcm brutePkg = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions evo;
    evo.seed = 7;
    evo.mode = SearchMode::Evolutionary;
    evo.nsplits = 2;
    const Mcm evoPkg = templates::hetCross6x6(templates::kArvrPes);

    CostDb::clearTableCache();
    const ScheduleResult bruteSerial = Scar(sc, brutePkg, brute).run();
    const ScheduleResult evoSerial = Scar(sc, evoPkg, evo).run();

    CostDb::clearTableCache();
    ThreadPool pool(4);
    std::vector<std::future<ScheduleResult>> bruteRuns, evoRuns;
    for (int i = 0; i < 4; ++i) {
        bruteRuns.push_back(pool.submit(
            [&] { return Scar(sc, brutePkg, brute).run(); }));
        evoRuns.push_back(
            pool.submit([&] { return Scar(sc, evoPkg, evo).run(); }));
    }
    for (int i = 0; i < 4; ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectIdenticalResults(bruteSerial, bruteRuns[i].get());
        expectIdenticalResults(evoSerial, evoRuns[i].get());
    }
}

class ScarTargetTest : public ::testing::TestWithParam<OptTarget>
{
};

TEST_P(ScarTargetTest, EveryTargetYieldsValidSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.target = GetParam();
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScarTargetTest,
                         ::testing::Values(OptTarget::Latency,
                                           OptTarget::Energy,
                                           OptTarget::Edp),
                         [](const auto& info) {
                             return optTargetName(info.param);
                         });

TEST(Scar, LatencySearchIsNoSlowerThanEnergySearch)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions lat;
    lat.target = OptTarget::Latency;
    ScarOptions nrg;
    nrg.target = OptTarget::Energy;
    const Metrics ml = Scar(sc, mcm, lat).run().metrics;
    const Metrics me = Scar(sc, mcm, nrg).run().metrics;
    EXPECT_LE(ml.latencySec, me.latencySec * 1.05);
}

TEST(Scar, NsplitsControlsWindowCount)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    for (int nsplits : {0, 2, 4}) {
        ScarOptions opts;
        opts.nsplits = nsplits;
        Scar scar(sc, mcm, opts);
        const ScheduleResult result = scar.run();
        EXPECT_LE(static_cast<int>(result.windows.size()), nsplits + 1);
        expectValidSchedule(sc, result);
    }
}

TEST(Scar, EvolutionaryModeProducesValidSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetCross6x6(templates::kArvrPes);
    ScarOptions opts;
    opts.mode = SearchMode::Evolutionary;
    opts.nsplits = 2;
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
}

TEST(Scar, ExhaustiveProvisioningNeverWorseThanRule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions rule;
    ScarOptions exhaustive;
    exhaustive.prov.mode = ProvisionerOptions::Mode::Exhaustive;
    exhaustive.prov.maxCandidates = 64;
    const double ruleEdp = Scar(sc, mcm, rule).run().metrics.edp();
    const double exhEdp =
        Scar(sc, mcm, exhaustive).run().metrics.edp();
    EXPECT_LE(exhEdp, ruleEdp * 1.001);
}

TEST(Scar, CustomScoreIsHonored)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    // A latency-dominated custom metric: L^2 * E.
    opts.customScore = [](const Metrics& m) {
        return m.latencySec * m.latencySec * m.energyJ;
    };
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    EXPECT_GT(result.metrics.latencySec, 0.0);
}

TEST(Scar, UniformPackingAblationRuns)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.packing = PackingPolicy::Uniform;
    Scar scar(sc, mcm, opts);
    expectValidSchedule(sc, scar.run());
}

TEST(Scar, TriangularTopologyRuns)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetTriangular(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    expectValidSchedule(sc, scar.run());
}

TEST(Scar, SingleModelScenarioWorks)
{
    Scenario sc;
    sc.name = "single";
    sc.models = {zoo::eyeCod(4)};
    sc.finalize();
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS,
                                        templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    expectValidSchedule(sc, scar.run());
}

TEST(Scar, MoreModelsThanChipletsIsRejected)
{
    Scenario sc;
    sc.name = "five";
    sc.models = {zoo::eyeCod(1), zoo::eyeCod(1), zoo::eyeCod(1),
                 zoo::eyeCod(1), zoo::eyeCod(1)};
    sc.finalize();
    const Mcm mcm = templates::motivational2x2(templates::kArvrPes);
    ScarOptions opts;
    opts.nsplits = 0;
    Scar scar(sc, mcm, opts);
    EXPECT_THROW(scar.run(), FatalError);
}

} // namespace
} // namespace scar
