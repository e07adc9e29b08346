/**
 * @file
 * Tests for the MaestroLite intra-chiplet cost model — in particular
 * the dataflow-affinity properties that drive every scheduling result
 * in the paper:
 *  - GEMM / late-CNN layers (large K*C) favor the NVDLA-like
 *    weight-stationary dataflow;
 *  - early CNN layers (large output grids) favor the Shi-diannao-like
 *    output-stationary dataflow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "cost/maestro_lite.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

ChipletSpec
spec(Dataflow df, int pes = 4096)
{
    ChipletSpec s;
    s.dataflow = df;
    s.numPes = pes;
    return s;
}

Layer
convLayer(std::int64_t k, std::int64_t c, std::int64_t r, std::int64_t s,
          std::int64_t y, std::int64_t x, std::int64_t stride = 1)
{
    Layer layer;
    layer.name = "conv";
    layer.type = OpType::Conv2D;
    layer.dims = LayerDims{k, c, r, s, y, x, stride, stride};
    return layer;
}

TEST(MaestroLite, GemmFavorsWeightStationary)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "ffn", 128, 5120, 1280);
    const LayerCost ws = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(gemm, spec(Dataflow::ShiOS));
    // The affinity manifests through utilization/latency (the paper's
    // Table IV shows near-equal energies but ~4x latency gaps).
    EXPECT_LT(ws.intraCycles() * 8.0, os.intraCycles());
    EXPECT_LT(ws.intraEnergyNj, os.intraEnergyNj * 2.0);
    EXPECT_LT(os.intraEnergyNj, ws.intraEnergyNj * 2.0);
    // OS has only M=128 output rows to parallelize.
    EXPECT_LT(os.utilization, 0.05);
    EXPECT_GT(ws.utilization, 0.5);
    // EDP (cycles x energy) strongly favors WS.
    EXPECT_LT(ws.intraCycles() * ws.intraEnergyNj,
              0.2 * os.intraCycles() * os.intraEnergyNj);
}

TEST(MaestroLite, EarlyConvFavorsOutputStationary)
{
    const MaestroLite model;
    const Layer conv1 = convLayer(64, 3, 7, 7, 224, 224, 2);
    const LayerCost ws = model.evalLayer(conv1, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(conv1, spec(Dataflow::ShiOS));
    EXPECT_LT(os.intraCycles(), ws.intraCycles());
    EXPECT_GT(os.utilization, 0.5);
    EXPECT_LT(ws.utilization, 0.1); // K*C = 192 of 4096 PEs
}

TEST(MaestroLite, LateConvFavorsWeightStationary)
{
    const MaestroLite model;
    // res5-style: 7x7 spatial, K*C large.
    const Layer late = convLayer(2048, 512, 1, 1, 7, 7, 1);
    const LayerCost ws = model.evalLayer(late, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(late, spec(Dataflow::ShiOS));
    EXPECT_LT(ws.intraCycles(), os.intraCycles());
    EXPECT_LT(os.utilization, 0.05); // 49 output pixels on 4096 PEs
}

TEST(MaestroLite, UtilizationBounded)
{
    const MaestroLite model;
    for (const Layer& l : zoo::resNet50(1).layers) {
        for (Dataflow df : kAllDataflows) {
            const LayerCost cost = model.evalLayer(l, spec(df));
            EXPECT_GT(cost.utilization, 0.0) << l.name;
            EXPECT_LE(cost.utilization, 1.0 + 1e-9) << l.name;
        }
    }
}

TEST(MaestroLite, ComputeCyclesLowerBound)
{
    // Cycles can never beat macs / numPes.
    const MaestroLite model;
    for (const Layer& l : zoo::googleNet(1).layers) {
        for (Dataflow df : kAllDataflows) {
            const LayerCost cost = model.evalLayer(l, spec(df));
            EXPECT_GE(cost.computeCycles * 4096.0, cost.macs * 0.999)
                << l.name;
        }
    }
}

TEST(MaestroLite, MorePesNeverSlower)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 64, 1024, 1024);
    for (Dataflow df : kAllDataflows) {
        const LayerCost small = model.evalLayer(gemm, spec(df, 256));
        const LayerCost big = model.evalLayer(gemm, spec(df, 4096));
        EXPECT_LE(big.computeCycles, small.computeCycles);
    }
}

TEST(MaestroLite, WeightStationaryReadsWeightsOnce)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 128, 2048, 1024);
    const LayerCost ws = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    // WS L2 traffic includes weights exactly once.
    EXPECT_GE(ws.l2AccessBytes, gemm.weightBytes());
}

TEST(MaestroLite, OutputStationaryRestreamsPerSpatialPass)
{
    // A conv whose output grid exceeds the PE array forces multiple
    // OS spatial passes, each re-streaming weights and inputs; the WS
    // mapping covers K*C = 4096 in one pass and reads inputs once.
    const MaestroLite model;
    const Layer conv = convLayer(64, 64, 3, 3, 112, 112);
    const LayerCost ws = model.evalLayer(conv, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(conv, spec(Dataflow::ShiOS));
    EXPECT_GT(os.l2AccessBytes, ws.l2AccessBytes);
    // ceil(112*112 / 4096) = 4 passes of weight streaming; the input
    // tile is read once from L2 (PE-local reuse across passes).
    EXPECT_GE(os.l2AccessBytes, 4.0 * conv.weightBytes() +
                                    conv.inputBytes() +
                                    conv.outputBytes());
}

TEST(MaestroLite, OutputStationaryWritesOutputsOnce)
{
    const MaestroLite model;
    const Layer conv = convLayer(64, 64, 3, 3, 56, 56);
    const LayerCost os = model.evalLayer(conv, spec(Dataflow::ShiOS));
    EXPECT_GE(os.l2AccessBytes, conv.outputBytes());
}

TEST(MaestroLite, PoolIsDataflowAgnostic)
{
    const MaestroLite model;
    Layer pool;
    pool.type = OpType::Pool;
    pool.dims = LayerDims{64, 64, 2, 2, 56, 56, 2, 2};
    const LayerCost a = model.evalLayer(pool, spec(Dataflow::NvdlaWS));
    const LayerCost b = model.evalLayer(pool, spec(Dataflow::ShiOS));
    EXPECT_DOUBLE_EQ(a.computeCycles, b.computeCycles);
    EXPECT_DOUBLE_EQ(a.intraEnergyNj, b.intraEnergyNj);
}

TEST(MaestroLite, DepthwiseHandledPerChannel)
{
    const MaestroLite model;
    Layer dw;
    dw.type = OpType::DepthwiseConv;
    dw.dims = LayerDims{128, 128, 3, 3, 56, 56, 1, 1};
    for (Dataflow df : kAllDataflows) {
        const LayerCost cost = model.evalLayer(dw, spec(df));
        EXPECT_GT(cost.computeCycles, 0.0);
        EXPECT_LE(cost.utilization, 1.0 + 1e-9);
    }
}

TEST(MaestroLite, EnergyScalesWithMacsAndTraffic)
{
    const MaestroLite model;
    const Layer small = makeGemmLayer(0, "s", 16, 64, 64);
    const Layer large = makeGemmLayer(0, "l", 64, 256, 256);
    for (Dataflow df : kAllDataflows) {
        EXPECT_LT(model.evalLayer(small, spec(df)).intraEnergyNj,
                  model.evalLayer(large, spec(df)).intraEnergyNj);
    }
}

TEST(MaestroLite, StreamCyclesReflectBandwidth)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 128, 1024, 1024);
    ChipletSpec fast = spec(Dataflow::NvdlaWS);
    ChipletSpec slow = fast;
    slow.bwNocGBps = fast.bwNocGBps / 4.0;
    const LayerCost a = model.evalLayer(gemm, fast);
    const LayerCost b = model.evalLayer(gemm, slow);
    EXPECT_GT(b.streamCycles, a.streamCycles);
    EXPECT_DOUBLE_EQ(b.computeCycles, a.computeCycles);
}

TEST(MaestroLite, FootprintsMatchLayer)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 32, 128, 256);
    const LayerCost cost = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    EXPECT_DOUBLE_EQ(cost.weightBytes, gemm.weightBytes());
    EXPECT_DOUBLE_EQ(cost.inputBytes, gemm.inputBytes());
    EXPECT_DOUBLE_EQ(cost.outputBytes, gemm.outputBytes());
}

// ---- tile search vs an exhaustive reference --------------------------
//
// evalWeightStationary / evalRowStationary step over blocks of K-tiles
// with constant ceil(K / kt) and floor(PEs / kt). The references below
// scan every kt = 1..min(K, PEs) with the same expressions; the two
// must agree on every LayerCost field, bit for bit.

double
refCeilDiv(double a, double b)
{
    return std::ceil(a / b);
}

void
refFinish(const Layer& layer, const ChipletSpec& spec, LayerCost& cost)
{
    const EnergyParams energy;
    cost.weightBytes = layer.weightBytes();
    cost.inputBytes = layer.inputBytes();
    cost.outputBytes = layer.outputBytes();
    const double feedBw = std::min(spec.bwNocGBps, spec.bwMemGBps);
    cost.streamCycles = cost.l2AccessBytes / gbpsToBytesPerCycle(feedBw);
    cost.utilization = cost.macs / (cost.computeCycles * spec.numPes);
    cost.intraEnergyNj = pjToNj(cost.macs * energy.macPj +
                                cost.l2AccessBytes * energy.l2PjPerByte);
}

LayerCost
refWeightStationary(const Layer& layer, const ChipletSpec& spec, int nb)
{
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double window = static_cast<double>(d.r) * d.s;
    const double spatialOut =
        static_cast<double>(layer.outY()) * layer.outX();
    const double npes = spec.numPes;
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestTraffic = 0.0;
    double bestKt = 0.0;
    double bestCt = 0.0;
    for (int kt = 1; kt <= ktMax; ++kt) {
        const double ct = std::min(c, std::floor(npes / kt));
        if (ct < 1.0)
            break;
        const double passes = refCeilDiv(k, kt) * refCeilDiv(c, ct);
        const double traffic =
            layer.inputBytes() * refCeilDiv(k, kt) +
            2.0 * layer.outputBytes() * (refCeilDiv(c, ct) - 1.0);
        if (bestKt == 0.0 || passes < bestPasses ||
            (passes == bestPasses && traffic < bestTraffic)) {
            bestPasses = passes;
            bestTraffic = traffic;
            bestKt = kt;
            bestCt = ct;
        }
    }
    LayerCost cost;
    cost.macs = layer.macs();
    cost.computeCycles = bestPasses * window * spatialOut;
    const double kPasses = refCeilDiv(k, bestKt);
    const double cPasses = refCeilDiv(c, bestCt);
    const double inputReads = layer.type == OpType::DepthwiseConv
                                  ? layer.inputBytes()
                                  : layer.inputBytes() * kPasses;
    const double psumTraffic =
        2.0 * layer.outputBytes() * std::max(0.0, cPasses - 1.0);
    cost.l2AccessBytes = layer.weightBytes() / nb + inputReads +
                         psumTraffic + layer.outputBytes();
    refFinish(layer, spec, cost);
    return cost;
}

LayerCost
refRowStationary(const Layer& layer, const ChipletSpec& spec, int nb)
{
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double window = static_cast<double>(d.r) * d.s;
    const double outX = static_cast<double>(layer.outX());
    const double npes = spec.numPes;
    const double rows = static_cast<double>(layer.outY()) * nb;
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestKt = 0.0;
    double bestYt = 0.0;
    for (int kt = 1; kt <= ktMax; ++kt) {
        const double yt = std::min(rows, std::floor(npes / kt));
        if (yt < 1.0)
            break;
        const double passes = refCeilDiv(k, kt) * refCeilDiv(rows, yt);
        if (bestKt == 0.0 || passes < bestPasses) {
            bestPasses = passes;
            bestKt = kt;
            bestYt = yt;
        }
    }
    LayerCost cost;
    cost.macs = layer.macs();
    cost.computeCycles = bestPasses * c * window * outX / nb;
    const double kPasses = refCeilDiv(k, bestKt);
    const double rowPasses = refCeilDiv(rows, bestYt);
    cost.l2AccessBytes = layer.weightBytes() * rowPasses / nb +
                         layer.inputBytes() * kPasses +
                         layer.outputBytes();
    refFinish(layer, spec, cost);
    return cost;
}

void
expectSameCost(const LayerCost& got, const LayerCost& want)
{
    EXPECT_EQ(got.macs, want.macs);
    EXPECT_EQ(got.computeCycles, want.computeCycles);
    EXPECT_EQ(got.streamCycles, want.streamCycles);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.l2AccessBytes, want.l2AccessBytes);
    EXPECT_EQ(got.intraEnergyNj, want.intraEnergyNj);
    EXPECT_EQ(got.weightBytes, want.weightBytes);
    EXPECT_EQ(got.inputBytes, want.inputBytes);
    EXPECT_EQ(got.outputBytes, want.outputBytes);
}

TEST(MaestroLiteTileSearch, BlockSteppingMatchesExhaustiveScan)
{
    // 1, primes, non-powers of two, and the datacenter 4096.
    const int peCounts[] = {1, 2, 3, 7, 97, 100, 256, 251, 768, 1000,
                            1009, 3000, 4093, 4096};
    const MaestroLite model;
    Rng rng(20241);
    int checked = 0;
    for (int pes : peCounts) {
        for (int trial = 0; trial < 40; ++trial) {
            Layer layer;
            layer.type = trial % 3 == 0   ? OpType::DepthwiseConv
                         : trial % 3 == 1 ? OpType::Conv2D
                                          : OpType::Gemm;
            const std::int64_t k = rng.uniformInt(1, 6000);
            const std::int64_t c = rng.uniformInt(1, 3000);
            const std::int64_t window = rng.uniformInt(0, 2) * 2 + 1;
            const std::int64_t y = rng.uniformInt(1, 300);
            const std::int64_t x = rng.uniformInt(1, 64);
            const std::int64_t stride = rng.uniformInt(1, 2);
            layer.dims = LayerDims{
                k, layer.type == OpType::DepthwiseConv ? k : c,
                window, window, y, x, stride, stride};
            const int nb = rng.uniformInt(1, 64);
            SCOPED_TRACE(testing::Message()
                         << "pes " << pes << " k " << k << " c " << c
                         << " y " << y << " nb " << nb << " type "
                         << static_cast<int>(layer.type));
            expectSameCost(
                model.evalLayer(layer, spec(Dataflow::NvdlaWS, pes), nb),
                refWeightStationary(layer, spec(Dataflow::NvdlaWS, pes),
                                    nb));
            expectSameCost(
                model.evalLayer(layer, spec(Dataflow::EyerissRS, pes), nb),
                refRowStationary(layer, spec(Dataflow::EyerissRS, pes),
                                 nb));
            ++checked;
        }
    }
    EXPECT_EQ(checked, 14 * 40);
}

TEST(MaestroLiteTileSearch, ZooLayersMatchExhaustiveScan)
{
    const MaestroLite model;
    for (const Model& m : {zoo::resNet50(4), zoo::bertBase(2),
                           zoo::d2go(1)}) {
        for (const Layer& layer : m.layers) {
            if (layer.type == OpType::Pool ||
                layer.type == OpType::Elementwise)
                continue;
            for (int pes : {256, 4096}) {
                for (int nb : {1, 3}) {
                    expectSameCost(
                        model.evalLayer(layer,
                                        spec(Dataflow::NvdlaWS, pes), nb),
                        refWeightStationary(
                            layer, spec(Dataflow::NvdlaWS, pes), nb));
                    expectSameCost(
                        model.evalLayer(layer,
                                        spec(Dataflow::EyerissRS, pes), nb),
                        refRowStationary(
                            layer, spec(Dataflow::EyerissRS, pes), nb));
                }
            }
        }
    }
}

} // namespace
} // namespace scar
