/**
 * @file
 * Tests for the communication model, cost database, and window
 * evaluator (the Section III-E performance model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "arch/mcm_templates.h"
#include "common/units.h"
#include "common/error.h"
#include "cost/comm_model.h"
#include "cost/cost_db.h"
#include "cost/window_evaluator.h"
#include "eval/scenario_suite.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

Scenario
tinyScenario()
{
    Scenario sc;
    sc.name = "tiny";
    sc.models = {zoo::eyeCod(2), zoo::bertBase(1)};
    sc.finalize();
    return sc;
}

TEST(CommModel, SameChipletIsFree)
{
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CommModel comm(mcm);
    EXPECT_DOUBLE_EQ(comm.nopLatencyCycles(1.0e6, 4, 4), 0.0);
    EXPECT_DOUBLE_EQ(comm.nopEnergyNj(1.0e6, 4, 4), 0.0);
}

TEST(CommModel, NopLatencyMatchesFormula)
{
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CommModel comm(mcm);
    // 0 -> 8 is 4 hops; 100 GB/s at 500 MHz = 200 B/cycle.
    const double bytes = 2000.0;
    const double expected = bytes / 200.0 + 4 * nsToCycles(35.0);
    EXPECT_DOUBLE_EQ(comm.nopLatencyCycles(bytes, 0, 8), expected);
}

TEST(CommModel, NopEnergyScalesWithHops)
{
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CommModel comm(mcm);
    const double oneHop = comm.nopEnergyNj(1000.0, 0, 1);
    const double fourHops = comm.nopEnergyNj(1000.0, 0, 8);
    EXPECT_DOUBLE_EQ(fourHops, 4.0 * oneHop);
}

TEST(CommModel, DramIncludesFixedLatency)
{
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CommModel comm(mcm);
    // Chiplet 0 is itself a memory interface: no hops, only DRAM terms.
    const double lat = comm.dramLatencyCycles(1280.0, 0);
    EXPECT_DOUBLE_EQ(lat, 1280.0 / 128.0 + nsToCycles(200.0));
}

TEST(CommModel, DramEnergyUsesTable2Value)
{
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CommModel comm(mcm);
    // 1000 bytes * 8 bits * 14.8 pJ/bit = 118400 pJ = 118.4 nJ.
    EXPECT_NEAR(comm.dramEnergyNj(1000.0, 0), 118.4, 1e-9);
}

TEST(CostDb, LookupMatchesDirectEvaluation)
{
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const MaestroLite model;
    const LayerCost direct = model.evalLayer(
        sc.models[0].layers[0], mcm.specForDataflow(Dataflow::ShiOS));
    const LayerCost& cached = db.cost(0, 0, Dataflow::ShiOS);
    EXPECT_DOUBLE_EQ(cached.computeCycles, direct.computeCycles);
    EXPECT_DOUBLE_EQ(cached.intraEnergyNj, direct.intraEnergyNj);
}

TEST(CostDb, ExpectationIsClassWeightedAverage)
{
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::hetSides3x3(); // 6 NVD + 3 Shi
    const CostDb db(sc, mcm);
    const double nvd = db.layerCycles(0, 0, Dataflow::NvdlaWS);
    const double shi = db.layerCycles(0, 0, Dataflow::ShiOS);
    const double expected = (6.0 * nvd + 3.0 * shi) / 9.0;
    EXPECT_NEAR(db.expectedLayerCycles(0, 0), expected, 1e-9);
}

TEST(CostDb, HomogeneousExpectationEqualsClassCost)
{
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    const CostDb db(sc, mcm);
    EXPECT_NEAR(db.expectedLayerCycles(1, 3),
                db.layerCycles(1, 3, Dataflow::NvdlaWS), 1e-9);
}

class WindowEvalTest : public ::testing::Test
{
  protected:
    WindowEvalTest()
        : sc_(tinyScenario()), mcm_(templates::hetSides3x3()),
          db_(sc_, mcm_)
    {}

    WindowPlacement
    wholeModelPlacement(int model, int chiplet) const
    {
        WindowPlacement p;
        ModelPlacement mp;
        mp.modelIdx = model;
        mp.segments.push_back(PlacedSegment{
            LayerRange{0, sc_.models[model].numLayers() - 1}, chiplet});
        p.models.push_back(std::move(mp));
        return p;
    }

    Scenario sc_;
    Mcm mcm_;
    CostDb db_;
};

TEST_F(WindowEvalTest, RejectsChipletOverlap)
{
    const WindowEvaluator eval(db_);
    WindowPlacement p = wholeModelPlacement(0, 2);
    WindowPlacement p2 = wholeModelPlacement(1, 2);
    p.models.push_back(p2.models.front());
    EXPECT_THROW(eval.evaluate(p), FatalError);
}

TEST_F(WindowEvalTest, RejectsNonContiguousSegments)
{
    const WindowEvaluator eval(db_);
    WindowPlacement p;
    ModelPlacement mp;
    mp.modelIdx = 0;
    mp.segments.push_back(PlacedSegment{LayerRange{0, 2}, 0});
    mp.segments.push_back(PlacedSegment{LayerRange{4, 6}, 1}); // gap
    p.models.push_back(std::move(mp));
    EXPECT_THROW(eval.evaluate(p), FatalError);
}

TEST_F(WindowEvalTest, MidModelWindowIsAccepted)
{
    const WindowEvaluator eval(db_);
    WindowPlacement p;
    ModelPlacement mp;
    mp.modelIdx = 1;
    mp.segments.push_back(PlacedSegment{LayerRange{5, 9}, 3});
    p.models.push_back(std::move(mp));
    EXPECT_GT(eval.evaluate(p).latencyCycles, 0.0);
}

TEST_F(WindowEvalTest, LatencyIsMaxOverModelsEnergyIsSum)
{
    const WindowEvaluator eval(db_, {false, false});
    const WindowCost a = eval.evaluate(wholeModelPlacement(0, 0));
    const WindowCost b = eval.evaluate(wholeModelPlacement(1, 8));
    WindowPlacement both = wholeModelPlacement(0, 0);
    both.models.push_back(wholeModelPlacement(1, 8).models.front());
    const WindowCost ab = eval.evaluate(both);
    EXPECT_NEAR(ab.latencyCycles,
                std::max(a.latencyCycles, b.latencyCycles), 1e-6);
    EXPECT_NEAR(ab.energyNj, a.energyNj + b.energyNj, 1e-6);
}

TEST_F(WindowEvalTest, PipeliningHelpsBatchedLatency)
{
    // Split BERT-Base across a 3-chiplet NVDLA pipeline; with batch 1
    // splitting cannot beat the single chiplet (extra handoffs), but
    // it shortens the per-sample critical stage for larger batches.
    Scenario sc;
    sc.name = "b8";
    sc.models = {zoo::bertBase(8)};
    sc.finalize();
    // Force b' = 1 so the batch streams sample by sample and the
    // inter-chiplet pipelining term of the formula is exercised.
    const CostDb db(sc, mcm_, MaestroLite{}, CostDbOptions{1});
    const WindowEvaluator eval(db, {false, false});

    WindowPlacement single;
    ModelPlacement mp;
    mp.modelIdx = 0;
    const int n = sc.models[0].numLayers();
    mp.segments.push_back(PlacedSegment{LayerRange{0, n - 1}, 0});
    single.models.push_back(mp);

    WindowPlacement piped;
    ModelPlacement mp3;
    mp3.modelIdx = 0;
    mp3.segments.push_back(PlacedSegment{LayerRange{0, n / 3}, 0});
    mp3.segments.push_back(
        PlacedSegment{LayerRange{n / 3 + 1, 2 * n / 3}, 3});
    mp3.segments.push_back(
        PlacedSegment{LayerRange{2 * n / 3 + 1, n - 1}, 6});
    piped.models.push_back(mp3);

    const double lat1 = eval.evaluate(single).latencyCycles;
    const double lat3 = eval.evaluate(piped).latencyCycles;
    EXPECT_LT(lat3, lat1);
}

TEST_F(WindowEvalTest, EntryChipletAvoidsDram)
{
    const WindowEvaluator eval(db_, {false, false});
    WindowPlacement fromDram;
    ModelPlacement mp;
    mp.modelIdx = 1;
    mp.segments.push_back(PlacedSegment{LayerRange{5, 9}, 3});
    fromDram.models.push_back(mp);

    WindowPlacement fromChiplet = fromDram;
    fromChiplet.entryChiplet.assign(sc_.numModels(), -1);
    fromChiplet.entryChiplet[1] = 0; // neighbour of chiplet 3

    const WindowCost dram = eval.evaluate(fromDram);
    const WindowCost nop = eval.evaluate(fromChiplet);
    EXPECT_GT(dram.dramBytes, nop.dramBytes);
    EXPECT_LT(nop.energyNj, dram.energyNj);
}

TEST_F(WindowEvalTest, FinalLayerWritesBackToDram)
{
    const WindowEvaluator eval(db_, {false, false});
    // Mid-window (not final layer): no writeback.
    WindowPlacement mid;
    ModelPlacement mp;
    mp.modelIdx = 1;
    mp.segments.push_back(PlacedSegment{LayerRange{0, 9}, 3});
    mid.models.push_back(mp);
    // Final window: same layer count but includes the last layer.
    const int n = sc_.models[1].numLayers();
    WindowPlacement fin;
    ModelPlacement mpf;
    mpf.modelIdx = 1;
    mpf.segments.push_back(PlacedSegment{LayerRange{n - 10, n - 1}, 3});
    fin.models.push_back(mpf);

    // Both include weight traffic; only `fin` adds an output flow.
    const double outBytes =
        sc_.models[1].layers[n - 1].outputBytes();
    const WindowCost mc = eval.evaluate(mid);
    const WindowCost fc = eval.evaluate(fin);
    // The final window's DRAM bytes include the writeback.
    EXPECT_GT(fc.dramBytes, 0.0);
    EXPECT_GT(outBytes, 0.0);
    (void)mc;
}

TEST_F(WindowEvalTest, ContentionNeverReducesLatency)
{
    Scenario sc;
    sc.name = "two";
    sc.models = {zoo::eyeCod(4), zoo::eyeCod(4)};
    sc.finalize();
    const CostDb db(sc, mcm_);
    const WindowEvaluator with(db, {true, true});
    const WindowEvaluator without(db, {false, true});

    // Two pipelines crossing the middle column share links.
    WindowPlacement p;
    for (int m = 0; m < 2; ++m) {
        ModelPlacement mp;
        mp.modelIdx = m;
        const int n = sc.models[m].numLayers();
        const int base = m * 6; // rows 0 and 2
        mp.segments.push_back(PlacedSegment{LayerRange{0, n / 2}, base});
        mp.segments.push_back(
            PlacedSegment{LayerRange{n / 2 + 1, n - 1}, base + 1});
        p.models.push_back(std::move(mp));
    }
    EXPECT_GE(with.evaluate(p).latencyCycles,
              without.evaluate(p).latencyCycles);
}

TEST_F(WindowEvalTest, DramRooflineBoundsWindowLatency)
{
    const WindowEvaluator eval(db_, {false, true});
    const WindowCost cost = eval.evaluate(wholeModelPlacement(1, 0));
    EXPECT_GE(cost.latencyCycles, cost.dramBoundCycles);
    EXPECT_GT(cost.dramBytes, 0.0);
}

TEST_F(WindowEvalTest, NonResidentWeightsStreamPerSample)
{
    // BERT-Base's full-model weights far exceed the 10 MB L2, so the
    // single-chiplet placement streams weights per sample: DRAM bytes
    // scale with batch.
    Scenario sc1;
    sc1.name = "b1";
    sc1.models = {zoo::bertBase(1)};
    sc1.finalize();
    Scenario sc4;
    sc4.name = "b4";
    sc4.models = {zoo::bertBase(4)};
    sc4.finalize();
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS);
    // Fix b' = 1: the residency mechanism streams weights per step.
    const CostDb db1(sc1, mcm, MaestroLite{}, CostDbOptions{1});
    const CostDb db4(sc4, mcm, MaestroLite{}, CostDbOptions{1});
    WindowPlacement p;
    ModelPlacement mp;
    mp.modelIdx = 0;
    mp.segments.push_back(
        PlacedSegment{LayerRange{0, sc1.models[0].numLayers() - 1}, 0});
    p.models.push_back(mp);
    const double d1 = WindowEvaluator(db1).evaluate(p).dramBytes;
    const double d4 = WindowEvaluator(db4).evaluate(p).dramBytes;
    EXPECT_GT(d4, 3.0 * d1);
}

TEST_F(WindowEvalTest, MiniBatchSpeedsUpBatchedModels)
{
    // Processing b' samples concurrently (paper Section III-E) must
    // not be slower than streaming them one at a time: the OS spatial
    // map gains batch parallelism and WS amortizes weight fetches.
    Scenario sc;
    sc.name = "b8";
    sc.models = {zoo::resNet50(8)};
    sc.finalize();
    const CostDb db1(sc, mcm_, MaestroLite{}, CostDbOptions{1});
    const CostDb dbAuto(sc, mcm_, MaestroLite{}, CostDbOptions{0});
    EXPECT_GT(dbAuto.miniBatch(0), 1);

    WindowPlacement p;
    ModelPlacement mp;
    mp.modelIdx = 0;
    const int n = sc.models[0].numLayers();
    mp.segments.push_back(PlacedSegment{LayerRange{0, n - 1}, 1});
    p.models.push_back(mp);

    const WindowCost serial =
        WindowEvaluator(db1, {false, false}).evaluate(p);
    const WindowCost batched =
        WindowEvaluator(dbAuto, {false, false}).evaluate(p);
    EXPECT_LE(batched.latencyCycles, serial.latencyCycles * 1.001);
}

TEST(CostDbMiniBatch, CapacityRuleBoundsMiniBatch)
{
    // GPT-L activations are small relative to L2 but batch is 1;
    // ResNet-50 at batch 32 is capacity-limited below 32.
    Scenario sc;
    sc.name = "mix";
    sc.models = {zoo::gptL(1), zoo::resNet50(32)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    EXPECT_EQ(db.miniBatch(0), 1); // capped by batch
    EXPECT_GE(db.miniBatch(1), 2);
    EXPECT_LE(db.miniBatch(1), 32);
}

TEST(CostDbMiniBatch, BatchImprovesShiUtilizationOnCnns)
{
    // The mechanism behind the paper's heavy-scenario results: with a
    // chiplet-level mini-batch, output-stationary chiplets regain
    // utilization on mid/late CNN layers.
    const MaestroLite model;
    ChipletSpec shi;
    shi.dataflow = Dataflow::ShiOS;
    Layer conv;
    conv.type = OpType::Conv2D;
    conv.dims = LayerDims{128, 128, 3, 3, 28, 28, 1, 1};
    const LayerCost b1 = model.evalLayer(conv, shi, 1);
    const LayerCost b8 = model.evalLayer(conv, shi, 8);
    EXPECT_GT(b8.utilization, b1.utilization * 3.0);
    EXPECT_LT(b8.computeCycles, b1.computeCycles);
}

// ---- O(1) segment range queries (cost_db.h) ------------------------

TEST(CostDbRangeQueries, MatchPerLayerLoopsBitExactly)
{
    Scenario sc;
    sc.name = "pair";
    sc.models = {zoo::resNet50(4), zoo::bertBase(2)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);

    for (int m = 0; m < sc.numModels(); ++m) {
        const Model& model = sc.models[m];
        const auto& candidates = db.miniBatchCandidates(m);
        // A spread of ranges incl. single layers and the full model.
        const int n = model.numLayers();
        const std::pair<int, int> ranges[] = {
            {0, 0}, {0, n - 1}, {1, n / 2}, {n / 2, n - 1},
            {n / 3, 2 * n / 3}};
        for (const auto& [first, last] : ranges) {
            // Weight-byte sums and activation maxima are exact.
            double weights = 0.0;
            double maxAct = 0.0;
            for (int l = first; l <= last; ++l) {
                weights += model.layers[l].weightBytes();
                maxAct = std::max(maxAct,
                                  model.layers[l].inputBytes() +
                                      model.layers[l].outputBytes());
            }
            EXPECT_EQ(db.segmentWeightBytes(m, first, last), weights);
            EXPECT_EQ(db.segmentMaxActBytes(m, first, last), maxAct);

            // Cycle/energy sums must be bit-identical to the
            // sequential loop they replaced (the byte-identity
            // contract of Scar::run()).
            for (std::size_t bi = 0; bi < candidates.size(); ++bi) {
                const int bPrime = candidates[bi];
                EXPECT_EQ(db.miniBatchIndex(m, bPrime),
                          static_cast<int>(bi));
                for (Dataflow df : kAllDataflows) {
                    double cycles = 0.0;
                    double energy = 0.0;
                    for (int l = first; l <= last; ++l) {
                        const LayerCost& lc = db.costAt(m, l, df,
                                                        bPrime);
                        cycles += lc.intraCycles() * bPrime;
                        energy += lc.intraEnergyNj * bPrime;
                    }
                    EXPECT_EQ(db.segmentCycles(m, static_cast<int>(bi),
                                               df, first, last),
                              cycles);
                    EXPECT_EQ(db.segmentEnergyNj(
                                  m, static_cast<int>(bi), df, first,
                                  last),
                              energy);
                }
            }
        }
    }
}

// ---- Contention bookkeeping regressions ----------------------------

TEST(WindowEvalContention, EvaluationNeverGrowsLoadTables)
{
    // Regression for the pre-route-table bug where the contention
    // factor read the per-link load map through operator[], inserting
    // zero entries mid-read. The load table is now a fixed-size
    // vector over the topology's precomputed dense link ids, so
    // evaluation must leave every topology table untouched and be
    // fully repeatable.
    Scenario sc;
    sc.name = "pair";
    sc.models = {zoo::resNet50(4), zoo::bertBase(2)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowEvaluator eval(db);

    const int linksBefore = mcm.topology().numLinks();

    WindowPlacement placement;
    ModelPlacement a;
    a.modelIdx = 0;
    a.segments.push_back(PlacedSegment{LayerRange{0, 30}, 0});
    a.segments.push_back(PlacedSegment{LayerRange{31, 71}, 3});
    ModelPlacement b;
    b.modelIdx = 1;
    b.segments.push_back(PlacedSegment{LayerRange{0, 17}, 2});
    b.segments.push_back(PlacedSegment{LayerRange{18, 35}, 5});
    placement.models = {a, b};

    const WindowCost first = eval.evaluate(placement);
    EXPECT_EQ(mcm.topology().numLinks(), linksBefore);
    EXPECT_GE(first.maxLinkSharers, 1);

    // Purity: a second evaluation sees identical state and bits.
    const WindowCost second = eval.evaluate(placement);
    EXPECT_EQ(first.latencyCycles, second.latencyCycles);
    EXPECT_EQ(first.energyNj, second.energyNj);
    EXPECT_EQ(first.dramBytes, second.dramBytes);
    EXPECT_EQ(first.maxLinkSharers, second.maxLinkSharers);
}

TEST(SoloFastPath, BitExactAgainstFullEvaluate)
{
    // The beam search's soloCost calls evaluateSoloUnchecked, which
    // evaluateSolo wraps, so this test pins the unchecked core too.
    // The search's pruning thresholds compare those numbers against
    // full-evaluate window costs, so the fast path must be bit-exact,
    // not merely close. Cover single- and multi-segment placements of both
    // models on a heterogeneous package.
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowEvaluator eval(db, {false, false});

    std::vector<WindowPlacement> placements;
    for (int model = 0; model < sc.numModels(); ++model) {
        const int last = sc.models[model].numLayers() - 1;
        WindowPlacement whole;
        ModelPlacement mp;
        mp.modelIdx = model;
        mp.segments.push_back(PlacedSegment{LayerRange{0, last}, model});
        whole.models = {mp};
        placements.push_back(whole);

        WindowPlacement split;
        ModelPlacement sp;
        sp.modelIdx = model;
        sp.segments.push_back(PlacedSegment{LayerRange{0, last / 2}, 1});
        sp.segments.push_back(
            PlacedSegment{LayerRange{last / 2 + 1, last}, 4});
        split.models = {sp};
        placements.push_back(split);
    }
    for (const WindowPlacement& placement : placements) {
        const WindowCost full = eval.evaluate(placement);
        const SoloWindowCost solo = eval.evaluateSolo(placement);
        EXPECT_EQ(solo.latencyCycles, full.latencyCycles);
        EXPECT_EQ(solo.energyNj, full.energyNj);
    }
}

TEST(SoloFastPath, RequiresSoloConfiguration)
{
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    WindowPlacement p;
    ModelPlacement mp;
    mp.modelIdx = 0;
    mp.segments.push_back(PlacedSegment{
        LayerRange{0, sc.models[0].numLayers() - 1}, 0});
    p.models = {mp};

    // Contention/roofline on: the fast path would not match evaluate.
    const WindowEvaluator contended(db);
    EXPECT_THROW(contended.evaluateSolo(p), FatalError);
    // More than one model: not a solo window.
    WindowPlacement two = p;
    ModelPlacement other;
    other.modelIdx = 1;
    other.segments.push_back(PlacedSegment{
        LayerRange{0, sc.models[1].numLayers() - 1}, 5});
    two.models.push_back(other);
    const WindowEvaluator solo(db, {false, false});
    EXPECT_THROW(solo.evaluateSolo(two), FatalError);

    // Malformed placements: the public entry still validates, even
    // though the search's unchecked core does not.
    const int last = sc.models[0].numLayers() - 1;
    auto twoSegments = [&](LayerRange a, int ca, LayerRange b, int cb) {
        WindowPlacement placement;
        ModelPlacement model;
        model.modelIdx = 0;
        model.segments.push_back(PlacedSegment{a, ca});
        model.segments.push_back(PlacedSegment{b, cb});
        placement.models.push_back(model);
        return placement;
    };
    EXPECT_THROW(solo.evaluateSolo(twoSegments({0, 1}, 3, {2, last}, 3)),
                 FatalError)
        << "duplicate chiplet";
    EXPECT_THROW(solo.evaluateSolo(twoSegments({0, 0}, 3, {2, last}, 4)),
                 FatalError)
        << "gap between segments";
    EXPECT_NO_THROW(
        solo.evaluateSolo(twoSegments({0, 1}, 3, {2, last}, 4)));
}

TEST(CostDb, TableReuseIsCountedAndBitTransparent)
{
    const Scenario sc = tinyScenario();
    const Mcm mcm = templates::hetSides3x3();
    CostDb::clearTableCache();

    // Cold build: every model's tables are built and published.
    const CostDb cold(sc, mcm);
    EXPECT_EQ(cold.tableStats().misses, sc.numModels());
    EXPECT_EQ(cold.tableStats().hits, 0);

    // Same (models, package) content key: full reuse.
    const CostDb warm(sc, mcm);
    EXPECT_EQ(warm.tableStats().hits, sc.numModels());
    EXPECT_EQ(warm.tableStats().misses, 0);

    // A private build (the cache cleared, warm's tables still held)
    // answers identically — reuse must never change a single bit of
    // any query.
    CostDb::clearTableCache();
    const CostDb fresh(sc, mcm);
    EXPECT_EQ(fresh.tableStats().hits, 0);
    for (int m = 0; m < sc.numModels(); ++m) {
        for (int l = 0; l < sc.models[m].numLayers(); ++l) {
            for (const Dataflow df :
                 {Dataflow::NvdlaWS, Dataflow::ShiOS}) {
                EXPECT_EQ(warm.layerCycles(m, l, df),
                          fresh.layerCycles(m, l, df));
                EXPECT_EQ(warm.layerEnergyNj(m, l, df),
                          fresh.layerEnergyNj(m, l, df));
            }
            EXPECT_EQ(warm.expectedLayerCycles(m, l),
                      fresh.expectedLayerCycles(m, l));
        }
    }

    // A different batch changes the content key: no false sharing.
    Scenario rebatched = sc;
    rebatched.models[0].batch += 1;
    rebatched.finalize();
    const CostDb other(rebatched, mcm);
    EXPECT_EQ(other.tableStats().hits, 1)
        << "the unchanged model still reuses";
    EXPECT_EQ(other.tableStats().misses, 1);
    CostDb::clearTableCache();
}

} // namespace
} // namespace scar
