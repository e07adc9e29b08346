/**
 * @file
 * Tests for the SEG engine: enumeration correctness (Theorem 1
 * validity: coverage + exclusivity), capping behaviour, and the
 * Heuristic-1 quick ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "arch/mcm_templates.h"
#include "common/units.h"
#include "cost/comm_model.h"
#include "sched/segmentation.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

long
binomial(int n, int k)
{
    long r = 1;
    for (int i = 0; i < k; ++i)
        r = r * (n - i) / (i + 1);
    return r;
}

class SegEnumTest
    : public ::testing::TestWithParam<std::pair<int, int>> // layers, maxSegs
{
};

TEST_P(SegEnumTest, CandidatesAreValidPartitions)
{
    const auto [layers, maxSegs] = GetParam();
    Rng rng(1);
    const LayerRange range{3, 3 + layers - 1}; // offset start
    const auto candidates =
        enumerateSegmentations(range, maxSegs, 100000, rng);
    for (const Segmentation& seg : candidates) {
        // Theorem 1: coverage and exclusivity.
        ASSERT_FALSE(seg.segments.empty());
        EXPECT_EQ(seg.segments.front().first, range.first);
        EXPECT_EQ(seg.segments.back().last, range.last);
        for (std::size_t k = 0; k + 1 < seg.segments.size(); ++k) {
            EXPECT_EQ(seg.segments[k + 1].first,
                      seg.segments[k].last + 1);
        }
        EXPECT_LE(seg.numSegments(), maxSegs);
    }
}

TEST_P(SegEnumTest, CountMatchesBinomialSum)
{
    const auto [layers, maxSegs] = GetParam();
    Rng rng(1);
    const LayerRange range{0, layers - 1};
    const auto candidates =
        enumerateSegmentations(range, maxSegs, 100000, rng);
    long expected = 0;
    for (int segs = 1; segs <= std::min(maxSegs, layers); ++segs)
        expected += binomial(layers - 1, segs - 1);
    EXPECT_EQ(static_cast<long>(candidates.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegEnumTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(5, 1),
                      std::make_pair(5, 3), std::make_pair(8, 4),
                      std::make_pair(12, 2), std::make_pair(10, 10)));

TEST(SegEnum, CapLimitsEnumeration)
{
    Rng rng(1);
    const LayerRange range{0, 59}; // C(59, 3) = 32509 > cap
    const auto candidates = enumerateSegmentations(range, 4, 50, rng);
    // Per segment count the cap applies; total stays modest.
    EXPECT_LE(candidates.size(), 4u * 50u + 4u);
    // Sampled candidates are still valid partitions.
    for (const Segmentation& seg : candidates) {
        EXPECT_EQ(seg.segments.front().first, 0);
        EXPECT_EQ(seg.segments.back().last, 59);
    }
}

TEST(SegEnum, MaxSegsClampedToLayerCount)
{
    Rng rng(1);
    const auto candidates =
        enumerateSegmentations(LayerRange{0, 2}, 9, 1000, rng);
    for (const Segmentation& seg : candidates)
        EXPECT_LE(seg.numSegments(), 3);
}

class RankFixture : public ::testing::Test
{
  protected:
    RankFixture()
        : mcm_(templates::hetSides3x3())
    {
        sc_.name = "rank";
        sc_.models = {zoo::bertBase(8)};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
};

TEST_F(RankFixture, QuickScorePositiveAndFinite)
{
    Rng rng(3);
    const LayerRange range{0, 11};
    const auto candidates = enumerateSegmentations(range, 3, 1000, rng);
    for (const Segmentation& seg : candidates) {
        const double s = quickScore(*db_, 0, seg, OptTarget::Edp);
        EXPECT_GT(s, 0.0);
        EXPECT_TRUE(std::isfinite(s));
    }
}

TEST_F(RankFixture, RankedListIsSortedByQuickScore)
{
    Rng rng(3);
    SegmentationOptions opts;
    opts.topK = 8;
    opts.pruneK = 8;
    const auto ranked = rankSegmentations(*db_, 0, LayerRange{0, 11}, 3,
                                          OptTarget::Edp, opts, rng);
    for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
        EXPECT_LE(quickScore(*db_, 0, ranked[i], OptTarget::Edp),
                  quickScore(*db_, 0, ranked[i + 1], OptTarget::Edp) +
                      1e-12);
    }
}

TEST_F(RankFixture, DiversityKeepsEverySegmentCount)
{
    Rng rng(3);
    SegmentationOptions opts;
    opts.pruneK = 6;
    const auto ranked = rankSegmentations(*db_, 0, LayerRange{0, 11}, 3,
                                          OptTarget::Edp, opts, rng);
    std::set<int> counts;
    for (const Segmentation& seg : ranked)
        counts.insert(seg.numSegments());
    EXPECT_EQ(counts.size(), 3u); // 1, 2 and 3-segment candidates kept
}

TEST_F(RankFixture, PipeliningLowersQuickLatencyForBatches)
{
    // For a batched model, the best 3-segment candidate must beat the
    // single-segment candidate under the latency target.
    Rng rng(3);
    const LayerRange range{0, 11};
    const auto candidates =
        enumerateSegmentations(range, 3, 100000, rng);
    double best1 = 1e30;
    double best3 = 1e30;
    for (const Segmentation& seg : candidates) {
        const double s = quickScore(*db_, 0, seg, OptTarget::Latency);
        if (seg.numSegments() == 1)
            best1 = std::min(best1, s);
        if (seg.numSegments() == 3)
            best3 = std::min(best3, s);
    }
    EXPECT_LT(best3, best1);
}

// ---- regression against the std::set reference implementation ------
//
// The production enumeration deduplicates through a flat hash set and
// the ranking scores each candidate once from precomputed expected-cost
// rows. The reference below is the straightforward version: std::set
// deduplication, a fresh per-layer score in every comparison. Both
// must return the same candidates in the same order and leave the RNG
// in the same state.

/** Sum over dataflow classes of share * per-dataflow cost (Eq. 1). */
double
refExpected(const CostDb& db, int model, int layer, bool energy)
{
    double expected = 0.0;
    for (Dataflow df : kAllDataflows) {
        const double w =
            static_cast<double>(db.mcm().numWithDataflow(df)) /
            db.mcm().numChiplets();
        if (w > 0.0) {
            expected += w * (energy ? db.layerEnergyNj(model, layer, df)
                                    : db.layerCycles(model, layer, df));
        }
    }
    return expected;
}

/** refExpected for every layer: [model][layer], cycles and energy. */
struct RefRows
{
    std::vector<std::vector<double>> cycles;
    std::vector<std::vector<double>> energyNj;

    explicit RefRows(const CostDb& db)
    {
        for (int m = 0; m < db.scenario().numModels(); ++m) {
            cycles.emplace_back();
            energyNj.emplace_back();
            for (int l = 0; l < db.scenario().models[m].numLayers(); ++l) {
                cycles.back().push_back(refExpected(db, m, l, false));
                energyNj.back().push_back(refExpected(db, m, l, true));
            }
        }
    }
};

double
refQuickScore(const CostDb& db, const RefRows& rows, int model,
              const Segmentation& seg, OptTarget target)
{
    const Model& m = db.scenario().models[model];
    const int batch = m.batch;
    const CommModel comm(db.mcm());
    double sumCycles = 0.0;
    double maxSeg = 0.0;
    double energyNj = 0.0;
    for (std::size_t k = 0; k < seg.segments.size(); ++k) {
        const LayerRange& r = seg.segments[k];
        double cycles = 0.0;
        for (int l = r.first; l <= r.last; ++l) {
            cycles += rows.cycles[model][l];
            energyNj += rows.energyNj[model][l] * batch;
        }
        if (k > 0) {
            const int prevLast = seg.segments[k - 1].last;
            const double bytes = m.layers[prevLast].outputBytes();
            cycles += bytes / comm.nopBytesPerCycle() +
                      comm.hopLatencyCycles();
            energyNj += pjToNj(bytes * 8.0 *
                               db.mcm().params().nopEnergyPjPerBit) *
                        batch;
        }
        sumCycles += cycles;
        maxSeg = std::max(maxSeg, cycles);
    }
    const double latCycles = sumCycles + (batch - 1) * maxSeg;
    return Metrics{cyclesToSeconds(latCycles), njToJoules(energyNj)}
        .value(target);
}

Segmentation
refFromSplits(const LayerRange& range, const std::vector<int>& splits)
{
    Segmentation seg;
    int first = range.first;
    for (int gap : splits) {
        seg.segments.push_back(LayerRange{first, range.first + gap});
        first = range.first + gap + 1;
    }
    seg.segments.push_back(LayerRange{first, range.last});
    return seg;
}

double
refChoose(int n, int k)
{
    double result = 1.0;
    for (int i = 0; i < k; ++i) {
        result *= static_cast<double>(n - i) / (i + 1);
        if (result > 1.0e12)
            return 1.0e12;
    }
    return result;
}

std::vector<Segmentation>
refEnumerate(const LayerRange& range, int maxSegs, int capPerCount,
             Rng& rng)
{
    const int layers = range.size();
    std::vector<Segmentation> out;
    for (int numSegs = 1; numSegs <= std::min(maxSegs, layers);
         ++numSegs) {
        const int splitsNeeded = numSegs - 1;
        const int gaps = layers - 1;
        if (refChoose(gaps, splitsNeeded) <= capPerCount) {
            std::vector<int> splits(splitsNeeded);
            for (int i = 0; i < splitsNeeded; ++i)
                splits[i] = i;
            while (true) {
                out.push_back(refFromSplits(range, splits));
                int i = splitsNeeded - 1;
                while (i >= 0 && splits[i] == gaps - splitsNeeded + i)
                    --i;
                if (i < 0)
                    break;
                ++splits[i];
                for (int j = i + 1; j < splitsNeeded; ++j)
                    splits[j] = splits[j - 1] + 1;
            }
        } else {
            std::set<std::vector<int>> seen;
            std::vector<int> balanced;
            for (int s = 1; s < numSegs; ++s)
                balanced.push_back(s * layers / numSegs - 1);
            seen.insert(balanced);
            out.push_back(refFromSplits(range, balanced));
            int attempts = 0;
            while (static_cast<int>(seen.size()) < capPerCount &&
                   attempts < capPerCount * 4) {
                ++attempts;
                std::set<int> picks;
                while (static_cast<int>(picks.size()) < splitsNeeded)
                    picks.insert(rng.uniformInt(0, gaps - 1));
                std::vector<int> splits(picks.begin(), picks.end());
                if (seen.insert(splits).second)
                    out.push_back(refFromSplits(range, splits));
            }
        }
    }
    return out;
}

std::vector<Segmentation>
refRank(const CostDb& db, const RefRows& rows, int model,
        const LayerRange& range, int maxSegs, OptTarget target,
        const SegmentationOptions& opts, Rng& rng)
{
    const std::vector<Segmentation> candidates =
        refEnumerate(range, maxSegs, opts.enumCapPerCount, rng);
    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        scored.emplace_back(
            refQuickScore(db, rows, model, candidates[i], target), i);
    }
    std::sort(scored.begin(), scored.end());
    std::set<int> countsSeen;
    std::vector<std::size_t> picked;
    std::vector<bool> taken(candidates.size(), false);
    for (const auto& [score, idx] : scored) {
        if (countsSeen.insert(candidates[idx].numSegments()).second) {
            picked.push_back(idx);
            taken[idx] = true;
        }
    }
    for (const auto& [score, idx] : scored) {
        if (static_cast<int>(picked.size()) >= opts.pruneK)
            break;
        if (!taken[idx]) {
            picked.push_back(idx);
            taken[idx] = true;
        }
    }
    std::sort(picked.begin(), picked.end(),
              [&](std::size_t a, std::size_t b) {
                  return refQuickScore(db, rows, model, candidates[a],
                                       target) <
                         refQuickScore(db, rows, model, candidates[b],
                                       target);
              });
    std::vector<Segmentation> top;
    for (std::size_t idx : picked)
        top.push_back(candidates[idx]);
    return top;
}

void
expectSameSegmentations(const std::vector<Segmentation>& got,
                        const std::vector<Segmentation>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].segments.size(), want[i].segments.size())
            << "candidate " << i;
        for (std::size_t k = 0; k < got[i].segments.size(); ++k) {
            EXPECT_EQ(got[i].segments[k].first, want[i].segments[k].first);
            EXPECT_EQ(got[i].segments[k].last, want[i].segments[k].last);
        }
    }
}

class RankRegression : public ::testing::Test
{
  protected:
    RankRegression() : mcm_(templates::hetSides3x3())
    {
        sc_.name = "regression";
        // Model 2 repeats one layer, so many candidates tie on score
        // and the ranking's tie order is exercised.
        Model uniform;
        uniform.name = "uniform";
        uniform.batch = 4;
        for (int l = 0; l < 24; ++l)
            uniform.layers.push_back(makeGemmLayer(l, "g", 64, 512, 512));
        sc_.models = {zoo::bertBase(8), zoo::resNet50(1), uniform};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
        rows_ = std::make_unique<RefRows>(*db_);
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
    std::unique_ptr<RefRows> rows_;
};

TEST_F(RankRegression, EnumerationMatchesSetReference)
{
    // (cap, maxSegs): uncapped, capped from some count on, and caps
    // close to the combination count (many duplicate draws).
    const std::pair<int, int> shapes[] = {
        {100000, 1}, {100000, 4}, {512, 4}, {512, 9},
        {60, 3},     {20, 6},     {1, 3},
    };
    for (const auto& [cap, maxSegs] : shapes) {
        for (const std::uint64_t seed : {1ull, 7ull, 9001ull}) {
            SCOPED_TRACE(testing::Message() << "cap " << cap << " seed "
                                            << seed << " maxSegs "
                                            << maxSegs);
            const LayerRange range{5, 40};
            Rng got(seed);
            Rng want(seed);
            expectSameSegmentations(
                enumerateSegmentations(range, maxSegs, cap, got),
                refEnumerate(range, maxSegs, cap, want));
            // Same draw sequence: both streams continue alike.
            EXPECT_EQ(got.uniformInt(0, 1 << 30),
                      want.uniformInt(0, 1 << 30));
        }
    }
}

TEST_F(RankRegression, RankingMatchesSetReference)
{
    struct Case
    {
        int model;
        LayerRange range;
        int maxSegs;
        int cap;
    };
    const Case cases[] = {
        {0, LayerRange{0, 11}, 3, 100000}, // uncapped
        {0, LayerRange{3, 35}, 4, 512},    // capped from 4 segments
        {0, LayerRange{0, 35}, 9, 512},
        {1, LayerRange{0, 20}, 6, 100000},
        {1, LayerRange{10, 70}, 9, 512},
        {1, LayerRange{0, 71}, 5, 64},
        {2, LayerRange{0, 23}, 4, 100000},
        {2, LayerRange{0, 23}, 9, 200},
    };
    for (const Case& c : cases) {
        for (const OptTarget target :
             {OptTarget::Edp, OptTarget::Latency, OptTarget::Energy}) {
            for (const int pruneK : {1, 16, 40}) {
                for (const std::uint64_t seed : {1ull, 9001ull}) {
                    SCOPED_TRACE(testing::Message()
                                 << "model " << c.model << " ["
                                 << c.range.first << "," << c.range.last
                                 << "] maxSegs " << c.maxSegs << " cap "
                                 << c.cap << " target "
                                 << static_cast<int>(target) << " pruneK "
                                 << pruneK << " seed " << seed);
                    SegmentationOptions opts;
                    opts.pruneK = pruneK;
                    opts.enumCapPerCount = c.cap;
                    Rng got(seed);
                    Rng want(seed);
                    expectSameSegmentations(
                        rankSegmentations(*db_, c.model, c.range,
                                          c.maxSegs, target, opts, got),
                        refRank(*db_, *rows_, c.model, c.range,
                                c.maxSegs, target, opts, want));
                    EXPECT_EQ(got.uniformInt(0, 1 << 30),
                              want.uniformInt(0, 1 << 30));
                }
            }
        }
    }
}

TEST_F(RankRegression, QuickScoreMatchesPerLayerFormula)
{
    for (int model = 0; model < sc_.numModels(); ++model) {
        const int last = sc_.models[model].numLayers() - 1;
        for (int l = 0; l <= last; ++l) {
            EXPECT_EQ(db_->expectedLayerCycles(model, l),
                      refExpected(*db_, model, l, false));
            EXPECT_EQ(db_->expectedLayerEnergyNj(model, l),
                      refExpected(*db_, model, l, true));
        }
        Rng rng(11);
        const LayerRange range{1, std::min(last, 30)};
        for (const Segmentation& seg :
             enumerateSegmentations(range, 5, 200, rng)) {
            for (const OptTarget target :
                 {OptTarget::Edp, OptTarget::Latency, OptTarget::Energy}) {
                EXPECT_EQ(quickScore(*db_, model, seg, target),
                          refQuickScore(*db_, *rows_, model, seg, target));
            }
        }
    }
}

} // namespace
} // namespace scar
