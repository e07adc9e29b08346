/**
 * @file
 * Differential tests for the communication stack: the O(1) phased
 * link tables and M/D/1 queueing factors must bit-match a naive
 * per-transfer reference on seeded random windows for every topology
 * class, CommFidelity::Static must reproduce the pre-phase evaluator
 * output byte-for-byte on the Table III scenarios, phased schedules
 * must be bit-identical when solved side by side, and broadcast-plane
 * pricing must follow the single-slot model.
 *
 * The naive references here intentionally use ordered maps and
 * per-transfer recomputation — the slow-but-obvious implementations
 * the production tables replaced. Comparisons are exact (EXPECT_EQ on
 * doubles): both sides must execute the same floating-point
 * operations in the same order, which is the contract that keeps the
 * committed goldens stable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "cost/comm_model.h"
#include "cost/cost_db.h"
#include "cost/window_evaluator.h"
#include "eval/scenario_suite.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

/** Exact bit pattern of a double, for byte-identity comparisons. */
std::string
hexDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** The four grid interconnect classes at equal silicon. */
std::vector<Mcm>
interconnectVariants()
{
    std::vector<Mcm> variants;
    variants.push_back(templates::hetSides3x3(templates::kArvrPes));
    variants.push_back(templates::hetSidesTorus3x3(templates::kArvrPes));
    variants.push_back(
        templates::hetSidesExpress3x3(templates::kArvrPes));
    variants.push_back(
        templates::hetSidesBroadcast3x3(templates::kArvrPes));
    return variants;
}

/** One random transfer of a synthetic window. */
struct RefFlow
{
    int src = 0;
    int dst = 0;
    CommPhase phase = CommPhase::Activation;
    double bytes = 0.0;
};

/**
 * Naive per-transfer load accounting: ordered maps keyed by directed
 * link / medium id, walked in the same flow order as
 * PhasedLinkTable::addFlow. load() reproduces the table's
 * medium-aggregation semantics link by link.
 */
class NaiveLoadTable
{
  public:
    explicit NaiveLoadTable(const Topology& topo) : topo_(topo) {}

    void
    add(const RefFlow& f)
    {
        if (f.src == f.dst || f.bytes <= 0.0)
            return;
        for (const Link& link : topo_.routeLinks(f.src, f.dst)) {
            const int id = topo_.linkId(link.first, link.second);
            linkLoads_[{static_cast<int>(f.phase), id}] += f.bytes;
            const int medium = topo_.linkMedium(id);
            if (medium >= 0)
                mediumLoads_[{static_cast<int>(f.phase), medium}] +=
                    f.bytes;
        }
    }

    double
    load(CommPhase phase, int linkId) const
    {
        const int medium = topo_.linkMedium(linkId);
        if (medium >= 0) {
            const auto it =
                mediumLoads_.find({static_cast<int>(phase), medium});
            return it == mediumLoads_.end() ? 0.0 : it->second;
        }
        const auto it =
            linkLoads_.find({static_cast<int>(phase), linkId});
        return it == linkLoads_.end() ? 0.0 : it->second;
    }

  private:
    const Topology& topo_;
    std::map<std::pair<int, int>, double> linkLoads_;
    std::map<std::pair<int, int>, double> mediumLoads_;
};

/** The M/D/1 factor recomputed from first principles per query. */
double
naiveQueueingFactor(const CommModel& comm, double loadBytes,
                    double windowCycles, int linkId)
{
    if (loadBytes <= 0.0 || windowCycles <= 0.0)
        return 1.0;
    const double capacity =
        comm.linkBytesPerCycle(linkId) * windowCycles;
    const double rho = std::min(loadBytes / capacity, 0.95);
    return 1.0 + rho / (2.0 * (1.0 - rho));
}

/**
 * The tentpole differential: on every topology class, 30 seeded
 * random windows (120 total) of up to 64 flows each. The production
 * PhasedLinkTable and queueingFactor must bit-match the naive maps.
 */
TEST(CommDifferential, PhasedTablesMatchNaiveReference)
{
    for (const Mcm& mcm : interconnectVariants()) {
        const Topology& topo = mcm.topology();
        const CommModel comm(mcm);
        std::mt19937_64 rng(0x5CA21234u);
        std::uniform_int_distribution<int> nodeDist(
            0, topo.numNodes() - 1);
        std::uniform_int_distribution<int> phaseDist(
            0, kNumCommPhases - 1);
        std::uniform_int_distribution<int> countDist(1, 64);
        std::uniform_real_distribution<double> bytesDist(1.0, 1.0e7);

        for (int window = 0; window < 30; ++window) {
            std::vector<RefFlow> flows(countDist(rng));
            for (RefFlow& f : flows) {
                f.src = nodeDist(rng);
                f.dst = nodeDist(rng);
                f.phase = static_cast<CommPhase>(phaseDist(rng));
                f.bytes = bytesDist(rng);
            }

            PhasedLinkTable table(topo);
            NaiveLoadTable naive(topo);
            for (const RefFlow& f : flows) {
                if (f.src != f.dst)
                    table.addFlow(f.phase,
                                  topo.routeLinkIds(f.src, f.dst),
                                  f.bytes);
                naive.add(f);
            }

            const double windowCycles = 1000.0 * (window + 1);
            for (int p = 0; p < kNumCommPhases; ++p) {
                const CommPhase phase = static_cast<CommPhase>(p);
                for (int id = 0; id < topo.numLinks(); ++id) {
                    const double fast = table.load(phase, id);
                    const double slow = naive.load(phase, id);
                    ASSERT_EQ(fast, slow)
                        << mcm.name() << " window " << window
                        << " phase " << commPhaseName(phase)
                        << " link " << id << ": "
                        << hexDouble(fast) << " vs "
                        << hexDouble(slow);
                    ASSERT_EQ(
                        comm.queueingFactor(fast, windowCycles, id),
                        naiveQueueingFactor(comm, slow, windowCycles,
                                            id))
                        << mcm.name() << " window " << window
                        << " link " << id;
                }
            }
        }
    }
}

TEST(CommDifferential, QueueingFactorIsFiniteAndBounded)
{
    const Mcm mcm = templates::hetSidesBroadcast3x3();
    const CommModel comm(mcm);
    // Utilization is capped at 0.95, so the factor tops out at 10.5
    // however overloaded the link.
    const double capped = comm.queueingFactor(1.0e18, 1.0, 0);
    EXPECT_TRUE(std::isfinite(capped));
    EXPECT_DOUBLE_EQ(capped, 1.0 + 0.95 / (2.0 * (1.0 - 0.95)));
    EXPECT_LT(capped, 10.51);
    EXPECT_DOUBLE_EQ(comm.queueingFactor(0.0, 1000.0, 0), 1.0);
    EXPECT_DOUBLE_EQ(comm.queueingFactor(1000.0, 0.0, 0), 1.0);
}

// ---- Static byte-identity on the Table III scenarios ---------------

/** Reference model cost; mirrors ModelWindowCost's two scalars. */
struct RefModelCost
{
    double latencyCycles = 0.0;
    double energyNj = 0.0;
};

/**
 * Naive reimplementation of WindowEvaluator::evalModel with the
 * static contention rule applied inline: activation transfers inflate
 * by the max-sharers count of their route, DRAM-side transfers do
 * not. Every arithmetic step matches the production member in order.
 */
template <typename Factor>
RefModelCost
refEvalModel(const CostDb& db, const CommModel& comm,
             const WindowPlacement& placement, const ModelPlacement& mp,
             int bIdx, Factor&& factor)
{
    const Scenario& sc = db.scenario();
    const Mcm& mcm = db.mcm();
    const Model& model = sc.models[mp.modelIdx];
    const int bPrime = db.miniBatchCandidates(mp.modelIdx)[bIdx];
    const int b = model.batch;
    const int steps =
        static_cast<int>(std::ceil(static_cast<double>(b) / bPrime));

    RefModelCost cost;
    double maxSteady = 0.0;
    double sumFirst = 0.0;
    for (std::size_t k = 0; k < mp.segments.size(); ++k) {
        const PlacedSegment& seg = mp.segments[k];
        const int c = seg.chiplet;
        const Dataflow df = mcm.chiplet(c).spec.dataflow;
        const Layer& first = model.layers[seg.range.first];
        const Layer& last = model.layers[seg.range.last];

        const double compute = db.segmentCycles(
            mp.modelIdx, bIdx, df, seg.range.first, seg.range.last);
        const double intraEnergy = db.segmentEnergyNj(
            mp.modelIdx, bIdx, df, seg.range.first, seg.range.last);
        const int mem = mcm.nearestMemInterface(c);

        double ipLat = 0.0;
        double ipEnergy = 0.0;
        if (k == 0) {
            const double bytes = first.inputBytes() * bPrime;
            const int entry =
                mp.modelIdx <
                        static_cast<int>(placement.entryChiplet.size())
                    ? placement.entryChiplet[mp.modelIdx]
                    : -1;
            if (entry >= 0) {
                ipLat = comm.nopLatencyCycles(
                    bytes * factor(entry, c, CommPhase::Activation),
                    entry, c);
                ipEnergy = comm.nopEnergyNj(bytes, entry, c);
            } else {
                ipLat = comm.dramLatencyCycles(
                    bytes * factor(mem, c, CommPhase::Spill), c);
                ipEnergy = comm.dramEnergyNj(bytes, c);
            }
        } else {
            const int prevC = mp.segments[k - 1].chiplet;
            const Layer& prevLast =
                model.layers[mp.segments[k - 1].range.last];
            const double bytes = prevLast.outputBytes() * bPrime;
            ipLat = comm.nopLatencyCycles(
                bytes * factor(prevC, c, CommPhase::Activation), prevC,
                c);
            ipEnergy = comm.nopEnergyNj(bytes, prevC, c);
        }

        double opLat = 0.0;
        double opEnergy = 0.0;
        if (k + 1 == mp.segments.size() &&
            seg.range.last == model.numLayers() - 1) {
            const double bytes = last.outputBytes() * bPrime;
            opLat = comm.dramLatencyCycles(
                bytes * factor(c, mem, CommPhase::Spill), c);
            opEnergy = comm.dramEnergyNj(bytes, c);
        }

        const double weights = db.segmentWeightBytes(
            mp.modelIdx, seg.range.first, seg.range.last);
        const double maxAct =
            db.segmentMaxActBytes(mp.modelIdx, seg.range.first,
                                  seg.range.last) *
            bPrime;
        const bool resident =
            weights + maxAct <= mcm.chiplet(c).spec.l2Bytes;
        const double wLat = comm.dramLatencyCycles(
            weights * factor(mem, c, CommPhase::WeightLoad), c);
        const double wEnergy = comm.dramEnergyNj(weights, c);

        const double steady =
            ipLat + compute + opLat + (resident ? 0.0 : wLat);
        const double firstSample = steady + (resident ? wLat : 0.0);
        cost.energyNj += steps * (intraEnergy + ipEnergy + opEnergy) +
                         wEnergy * (resident ? 1.0 : steps);
        maxSteady = std::max(maxSteady, steady);
        sumFirst += firstSample;
    }
    cost.latencyCycles = sumFirst + (steps - 1) * maxSteady;
    return cost;
}

/**
 * Naive reimplementation of the full static evaluate(): per-model
 * mini-batch choice, flow enumeration into a std::map link-sharer
 * count, static max-sharers factors, DRAM roofline.
 */
WindowCost
refEvaluateStatic(const CostDb& db, const CommModel& comm,
                  const WindowPlacement& placement)
{
    const Scenario& sc = db.scenario();
    const Mcm& mcm = db.mcm();
    const Topology& topo = mcm.topology();
    const auto one = [](int, int, CommPhase) { return 1; };

    std::vector<int> chosenBIdx(placement.models.size(), 0);
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const int numCandidates = static_cast<int>(
            db.miniBatchCandidates(mp.modelIdx).size());
        double bestLat = std::numeric_limits<double>::infinity();
        for (int bIdx = 0; bIdx < numCandidates; ++bIdx) {
            const double lat =
                refEvalModel(db, comm, placement, mp, bIdx, one)
                    .latencyCycles;
            if (lat < bestLat) {
                bestLat = lat;
                chosenBIdx[mi] = bIdx;
            }
        }
    }

    // Flow enumeration in the evaluator's order; only the sharer
    // counts matter for the static factor.
    std::map<Link, int> sharers;
    double totalDramBytes = 0.0;
    auto addFlow = [&](int src, int dst, double bytes) {
        if (src == dst || bytes <= 0.0)
            return;
        for (const Link& link : topo.routeLinks(src, dst))
            ++sharers[link];
    };
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const Model& model = sc.models[mp.modelIdx];
        const int bPrime =
            db.miniBatchCandidates(mp.modelIdx)[chosenBIdx[mi]];
        const int steps = static_cast<int>(std::ceil(
            static_cast<double>(model.batch) / bPrime));
        for (std::size_t k = 0; k < mp.segments.size(); ++k) {
            const PlacedSegment& seg = mp.segments[k];
            const int c = seg.chiplet;
            const int mem = mcm.nearestMemInterface(c);
            const double weights = db.segmentWeightBytes(
                mp.modelIdx, seg.range.first, seg.range.last);
            const double maxAct =
                db.segmentMaxActBytes(mp.modelIdx, seg.range.first,
                                      seg.range.last) *
                bPrime;
            const bool resident =
                weights + maxAct <= mcm.chiplet(c).spec.l2Bytes;
            const double wBytes = weights * (resident ? 1.0 : steps);
            addFlow(mem, c, wBytes);
            totalDramBytes += wBytes;
            if (k == 0) {
                const double inBytes =
                    model.layers[seg.range.first].inputBytes() *
                    model.batch;
                const int entry =
                    mp.modelIdx < static_cast<int>(
                                      placement.entryChiplet.size())
                        ? placement.entryChiplet[mp.modelIdx]
                        : -1;
                if (entry >= 0) {
                    addFlow(entry, c, inBytes);
                } else {
                    addFlow(mem, c, inBytes);
                    totalDramBytes += inBytes;
                }
            } else {
                const PlacedSegment& prev = mp.segments[k - 1];
                addFlow(prev.chiplet, c,
                        model.layers[prev.range.last].outputBytes() *
                            model.batch);
            }
            if (k + 1 == mp.segments.size() &&
                seg.range.last == model.numLayers() - 1) {
                const double outBytes =
                    model.layers[seg.range.last].outputBytes() *
                    model.batch;
                addFlow(c, mem, outBytes);
                totalDramBytes += outBytes;
            }
        }
    }

    auto staticFactor = [&](int src, int dst, CommPhase phase) {
        if (src == dst || phase != CommPhase::Activation)
            return 1;
        int worst = 1;
        for (const Link& link : topo.routeLinks(src, dst)) {
            const auto it = sharers.find(link);
            if (it != sharers.end())
                worst = std::max(worst, it->second);
        }
        return worst;
    };

    WindowCost window;
    window.dramBytes = totalDramBytes;
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const RefModelCost modelCost =
            refEvalModel(db, comm, placement, placement.models[mi],
                         chosenBIdx[mi], staticFactor);
        window.latencyCycles =
            std::max(window.latencyCycles, modelCost.latencyCycles);
        window.energyNj += modelCost.energyNj;
    }
    window.dramBoundCycles =
        totalDramBytes / comm.offchipBytesPerCycle();
    window.latencyCycles =
        std::max(window.latencyCycles, window.dramBoundCycles);
    return window;
}

/** Two-segment split of each scenario model over distinct chiplets. */
WindowPlacement
tableScenarioPlacement(const Scenario& sc, int numChiplets)
{
    WindowPlacement placement;
    int nextChiplet = 0;
    for (int m = 0; m < sc.numModels(); ++m) {
        if (nextChiplet + 2 > numChiplets)
            break;
        const int layers = sc.models[m].numLayers();
        ModelPlacement mp;
        mp.modelIdx = m;
        if (layers >= 2) {
            const int mid = layers / 2;
            mp.segments.push_back({{0, mid - 1}, nextChiplet++});
            mp.segments.push_back({{mid, layers - 1}, nextChiplet++});
        } else {
            mp.segments.push_back({{0, layers - 1}, nextChiplet++});
        }
        placement.models.push_back(std::move(mp));
    }
    return placement;
}

TEST(CommDifferential, StaticEvaluatorMatchesNaiveOnTableScenarios)
{
    struct Case
    {
        Scenario scenario;
        Mcm mcm;
    };
    std::vector<Case> cases;
    cases.push_back({suite::datacenterScenario(4),
                     templates::hetSides3x3()});
    cases.push_back({suite::arvrScenario(7),
                     templates::hetSides3x3(templates::kArvrPes)});
    // The same contract must hold on the exotic interconnects the
    // static model now routes over.
    cases.push_back({suite::datacenterScenario(4),
                     templates::hetSidesTorus3x3()});
    cases.push_back({suite::arvrScenario(7),
                     templates::hetSidesBroadcast3x3(
                         templates::kArvrPes)});

    for (const Case& c : cases) {
        const CostDb db(c.scenario, c.mcm);
        const WindowEvaluator evaluator(db); // default: Static
        const WindowPlacement placement =
            tableScenarioPlacement(c.scenario, c.mcm.numChiplets());
        ASSERT_FALSE(placement.models.empty());

        const WindowCost fast = evaluator.evaluate(placement);
        const WindowCost slow =
            refEvaluateStatic(db, evaluator.comm(), placement);
        EXPECT_EQ(fast.latencyCycles, slow.latencyCycles)
            << c.scenario.name << " on " << c.mcm.name() << ": "
            << hexDouble(fast.latencyCycles) << " vs "
            << hexDouble(slow.latencyCycles);
        EXPECT_EQ(fast.energyNj, slow.energyNj)
            << c.scenario.name << " on " << c.mcm.name() << ": "
            << hexDouble(fast.energyNj) << " vs "
            << hexDouble(slow.energyNj);
        EXPECT_EQ(fast.dramBytes, slow.dramBytes);
        EXPECT_EQ(fast.dramBoundCycles, slow.dramBoundCycles);
        EXPECT_DOUBLE_EQ(fast.maxQueueFactor, 1.0)
            << "static fidelity must never apply an M/D/1 factor";
    }
}

// ---- Phased fidelity behavior --------------------------------------

TEST(CommPhased, CongestedWindowAppliesQueueingFactors)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowPlacement placement =
        tableScenarioPlacement(sc, mcm.numChiplets());

    EvaluatorOptions phasedOpts;
    phasedOpts.fidelity = CommFidelity::Phased;
    const WindowEvaluator phased(db, phasedOpts);
    const WindowEvaluator statics(db);

    const WindowCost p = phased.evaluate(placement);
    const WindowCost s = statics.evaluate(placement);
    EXPECT_GT(p.maxQueueFactor, 1.0)
        << "a multi-model window sharing DRAM routes must congest";
    EXPECT_LE(p.maxQueueFactor, 10.5);
    EXPECT_DOUBLE_EQ(s.maxQueueFactor, 1.0);
    // Phased charges weight/spill phases the static model ignores.
    EXPECT_GE(p.latencyCycles, s.latencyCycles * 0.999);
    EXPECT_EQ(p.dramBytes, s.dramBytes)
        << "fidelity changes pricing, never traffic volume";
}

TEST(CommPhased, ScheduleIsBitIdenticalAcrossThreadCounts)
{
    Scenario sc;
    sc.name = "phased-det";
    sc.models = {zoo::eyeCod(2), zoo::handSP(2), zoo::resNet50(1)};
    sc.finalize();
    const Mcm mcm =
        templates::hetSidesBroadcast3x3(templates::kArvrPes);

    auto solve = [&] {
        ScarOptions options;
        options.window.eval.fidelity = CommFidelity::Phased;
        Scar scar(sc, mcm, options);
        const ScheduleResult result = scar.run();
        std::string fingerprint;
        fingerprint += hexDouble(result.metrics.latencySec) + "|" +
                       hexDouble(result.metrics.energyJ);
        for (const ScheduledWindow& w : result.windows) {
            fingerprint += "|" + hexDouble(w.cost.latencyCycles) +
                           ":" + hexDouble(w.cost.energyNj) + ":" +
                           hexDouble(w.cost.maxQueueFactor);
        }
        return fingerprint;
    };

    // Solves run side by side on the solve pool, never split inside.
    const std::string serial = solve();
    for (int threads : {4, 8}) {
        ThreadPool pool(threads);
        std::vector<std::future<std::string>> runs;
        for (int i = 0; i < threads; ++i)
            runs.push_back(pool.submit(solve));
        for (std::future<std::string>& run : runs)
            EXPECT_EQ(serial, run.get()) << "pool of " << threads;
    }
}

// ---- Broadcast-plane pricing ---------------------------------------

TEST(CommBroadcast, PlaneCoveredOneToManyIsASingleSlot)
{
    const Mcm mcm = templates::hetSidesBroadcast3x3();
    const CommModel comm(mcm);
    const double bytes = 4096.0;
    const std::vector<int> all = {1, 2, 3, 4, 5, 6, 7, 8};

    const double slot = comm.broadcastLatencyCycles(bytes, 0, all);
    const double expected =
        bytes / gbpsToBytesPerCycle(mcm.params().bwBroadcastGBps) +
        nsToCycles(mcm.params().nopHopLatencyNs);
    EXPECT_DOUBLE_EQ(slot, expected);
    // One slot regardless of destination count.
    EXPECT_DOUBLE_EQ(comm.broadcastLatencyCycles(bytes, 0, {8}), slot);

    double serialized = 0.0;
    for (const int d : all)
        serialized += comm.nopLatencyCycles(bytes, 0, d);
    EXPECT_LT(slot, serialized);

    const double energy = comm.broadcastEnergyNj(bytes, 0, all);
    EXPECT_DOUBLE_EQ(
        energy,
        pjToNj(bytes * 8.0 * mcm.params().broadcastEnergyPjPerBit));
}

TEST(CommBroadcast, NonMemberSourceSerializesUnicasts)
{
    const Mcm full = templates::hetSidesBroadcast3x3();
    // Rebuild the package on a partial plane (corners only).
    std::vector<Chiplet> chiplets;
    for (int id = 0; id < full.numChiplets(); ++id)
        chiplets.push_back(full.chiplet(id));
    const Mcm corners("Het-Sides-Corners", std::move(chiplets),
                      Topology::broadcastMesh(3, 3, {0, 2, 6, 8}),
                      full.params());
    const CommModel comm(corners);
    const double bytes = 2048.0;

    // Source 4 is off the plane: serialized unicast.
    double serialized = 0.0;
    for (const int d : {0, 2})
        serialized += comm.nopLatencyCycles(bytes, 4, d);
    EXPECT_DOUBLE_EQ(comm.broadcastLatencyCycles(bytes, 4, {0, 2}),
                     serialized);
    // A destination off the plane also disqualifies the single slot.
    double mixed = 0.0;
    for (const int d : {2, 4})
        mixed += comm.nopLatencyCycles(bytes, 0, d);
    EXPECT_DOUBLE_EQ(comm.broadcastLatencyCycles(bytes, 0, {2, 4}),
                     mixed);
    // All-member one-to-many stays one slot.
    const double slot =
        comm.broadcastLatencyCycles(bytes, 0, {2, 6, 8});
    EXPECT_DOUBLE_EQ(
        slot,
        bytes / gbpsToBytesPerCycle(
                    corners.params().bwBroadcastGBps) +
            nsToCycles(corners.params().nopHopLatencyNs));
}

} // namespace
} // namespace scar
