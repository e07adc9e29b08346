#include "cost/window_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.h"
#include "obs/solve_profile.h"

namespace scar
{

WindowEvaluator::WindowEvaluator(const CostDb& db, EvaluatorOptions options)
    : db_(db), comm_(db.mcm()), options_(options)
{
}

namespace
{

/**
 * Checks one segment range of `model` and advances `prevLast`, the
 * last layer of the previous segment: the single source of the
 * range messages validate(), validateSolo() and
 * validateSegmentation() raise.
 */
void
checkSegmentRange(const Model& model, const LayerRange& range,
                  int& prevLast)
{
    SCAR_REQUIRE(!range.empty(), "empty segment for model ", model.name);
    SCAR_REQUIRE(range.first == prevLast + 1,
                 "segments must be contiguous for model ", model.name,
                 " (got first=", range.first, " after last=", prevLast,
                 ")");
    SCAR_REQUIRE(range.last < model.numLayers(), "segment exceeds model ",
                 model.name);
    prevLast = range.last;
}

/** The placed model, after checking its index and segment count. */
const Model&
checkPlacedModel(const Scenario& sc, int modelIdx, std::size_t numSegs)
{
    SCAR_REQUIRE(modelIdx >= 0 && modelIdx < sc.numModels(),
                 "bad model index ", modelIdx);
    const Model& model = sc.models[modelIdx];
    SCAR_REQUIRE(numSegs > 0, "model ", model.name,
                 " placed with no segments");
    return model;
}

void
checkChipletId(int chiplet, int numChiplets)
{
    SCAR_REQUIRE(chiplet >= 0 && chiplet < numChiplets, "bad chiplet id ",
                 chiplet);
}

void
checkChipletFree(bool taken, int chiplet)
{
    SCAR_REQUIRE(!taken, "chiplet ", chiplet,
                 " hosts more than one segment in this window");
}

} // namespace

void
validateSegmentation(const Scenario& sc, int modelIdx,
                     const std::vector<LayerRange>& ranges)
{
    const Model& model = checkPlacedModel(sc, modelIdx, ranges.size());
    int prevLast = ranges.front().first - 1;
    for (const LayerRange& range : ranges)
        checkSegmentRange(model, range, prevLast);
}

void
validatePath(const std::vector<int>& chiplets, int numChiplets)
{
    // Paths are short (<= segment count), so a pairwise scan beats an
    // O(numChiplets) occupancy vector.
    for (std::size_t k = 0; k < chiplets.size(); ++k) {
        checkChipletId(chiplets[k], numChiplets);
        for (std::size_t j = 0; j < k; ++j)
            checkChipletFree(chiplets[j] == chiplets[k], chiplets[k]);
    }
}

void
WindowEvaluator::validate(const WindowPlacement& placement) const
{
    const Scenario& sc = db_.scenario();
    const int numChiplets = db_.mcm().numChiplets();
    std::vector<int> occupancy(numChiplets, 0);
    for (const ModelPlacement& mp : placement.models) {
        const Model& model =
            checkPlacedModel(sc, mp.modelIdx, mp.segments.size());
        int prevLast = mp.segments.front().range.first - 1;
        for (const PlacedSegment& seg : mp.segments) {
            checkSegmentRange(model, seg.range, prevLast);
            checkChipletId(seg.chiplet, numChiplets);
            checkChipletFree(occupancy[seg.chiplet] != 0, seg.chiplet);
            occupancy[seg.chiplet] = 1;
        }
    }
}

void
WindowEvaluator::validateSolo(const WindowPlacement& placement) const
{
    // Same contract as validate(), restricted to one model: with a
    // single model its own segments are the only chiplets that could
    // collide, so validatePath's pairwise scan replaces the occupancy
    // vector.
    const ModelPlacement& mp = placement.models.front();
    const Model& model =
        checkPlacedModel(db_.scenario(), mp.modelIdx, mp.segments.size());
    int prevLast = mp.segments.front().range.first - 1;
    const int numChiplets = db_.mcm().numChiplets();
    for (std::size_t k = 0; k < mp.segments.size(); ++k) {
        const PlacedSegment& seg = mp.segments[k];
        checkSegmentRange(model, seg.range, prevLast);
        checkChipletId(seg.chiplet, numChiplets);
        for (std::size_t j = 0; j < k; ++j)
            checkChipletFree(mp.segments[j].chiplet == seg.chiplet,
                             seg.chiplet);
    }
}

int
WindowEvaluator::entryOf(const WindowPlacement& placement,
                         int modelIdx) const
{
    if (modelIdx < static_cast<int>(placement.entryChiplet.size()))
        return placement.entryChiplet[modelIdx];
    return -1;
}

double
WindowEvaluator::segmentWeights(int modelIdx,
                                const PlacedSegment& seg) const
{
    // Segment reductions are O(1) range queries against the CostDb
    // tables (see cost_db.h: values are bit-identical to the
    // per-layer loops they replaced).
    return db_.segmentWeightBytes(modelIdx, seg.range.first,
                                  seg.range.last);
}

bool
WindowEvaluator::segmentResident(int modelIdx, const PlacedSegment& seg,
                                 int bPrime) const
{
    const double weights = segmentWeights(modelIdx, seg);
    const double maxAct =
        db_.segmentMaxActBytes(modelIdx, seg.range.first,
                               seg.range.last) *
        bPrime;
    const double l2 = db_.mcm().chiplet(seg.chiplet).spec.l2Bytes;
    return weights + maxAct <= l2;
}

template <typename Factor>
ModelWindowCost
WindowEvaluator::evalModel(const ModelPlacement& mp, int entry, int bIdx,
                           bool keepSegments, Factor&& factor) const
{
    const Scenario& sc = db_.scenario();
    const Mcm& mcm = db_.mcm();
    const Model& model = sc.models[mp.modelIdx];
    const int bPrime = db_.miniBatchCandidates(mp.modelIdx)[bIdx];
    const int b = model.batch;
    const int steps =
        static_cast<int>(std::ceil(static_cast<double>(b) / bPrime));

    ModelWindowCost modelCost;
    if (keepSegments)
        modelCost.segments.reserve(mp.segments.size());
    double maxSteady = 0.0;
    for (std::size_t k = 0; k < mp.segments.size(); ++k) {
        const PlacedSegment& seg = mp.segments[k];
        const int c = seg.chiplet;
        const Dataflow df = mcm.chiplet(c).spec.dataflow;
        const Layer& first = model.layers[seg.range.first];
        const Layer& last = model.layers[seg.range.last];

        const double compute = db_.segmentCycles(
            mp.modelIdx, bIdx, df, seg.range.first, seg.range.last);
        const double intraEnergy = db_.segmentEnergyNj(
            mp.modelIdx, bIdx, df, seg.range.first, seg.range.last);

        // DRAM-side transfers route between the chiplet and its
        // nearest memory interface; the phased contention factor
        // charges them against their phase's link loads (the static
        // factor returns 1 for non-activation phases, so these sites
        // multiply by 1 — bit-identical to the pre-phase code).
        const int mem = mcm.nearestMemInterface(c);

        // Input side: DRAM or entry-chiplet NoP for the head
        // segment, inter-segment NoP otherwise.
        double ipLat = 0.0;
        double ipEnergy = 0.0;
        if (k == 0) {
            const double bytes = first.inputBytes() * bPrime;
            if (entry >= 0) {
                ipLat = comm_.nopLatencyCycles(
                    bytes * factor(entry, c, CommPhase::Activation),
                    entry, c);
                ipEnergy = comm_.nopEnergyNj(bytes, entry, c);
            } else {
                ipLat = comm_.dramLatencyCycles(
                    bytes * factor(mem, c, CommPhase::Spill), c);
                ipEnergy = comm_.dramEnergyNj(bytes, c);
            }
        } else {
            const int prevC = mp.segments[k - 1].chiplet;
            const Layer& prevLast =
                model.layers[mp.segments[k - 1].range.last];
            const double bytes = prevLast.outputBytes() * bPrime;
            ipLat = comm_.nopLatencyCycles(
                bytes * factor(prevC, c, CommPhase::Activation),
                prevC, c);
            ipEnergy = comm_.nopEnergyNj(bytes, prevC, c);
        }

        // Output side: DRAM writeback only when the model's final
        // layer completes here.
        double opLat = 0.0;
        double opEnergy = 0.0;
        if (k + 1 == mp.segments.size() &&
            seg.range.last == model.numLayers() - 1) {
            const double bytes = last.outputBytes() * bPrime;
            opLat = comm_.dramLatencyCycles(
                bytes * factor(c, mem, CommPhase::Spill), c);
            opEnergy = comm_.dramEnergyNj(bytes, c);
        }

        const bool resident = segmentResident(mp.modelIdx, seg,
                                              bPrime);
        const double wBytes = segmentWeights(mp.modelIdx, seg);
        const double wLat = comm_.dramLatencyCycles(
            wBytes * factor(mem, c, CommPhase::WeightLoad), c);
        const double wEnergy = comm_.dramEnergyNj(wBytes, c);

        SegmentCost segCost;
        segCost.weightsResident = resident;
        segCost.steadySampleCycles =
            ipLat + compute + opLat + (resident ? 0.0 : wLat);
        segCost.firstSampleCycles =
            segCost.steadySampleCycles + (resident ? wLat : 0.0);
        segCost.energyNj = steps * (intraEnergy + ipEnergy +
                                    opEnergy) +
                           wEnergy * (resident ? 1.0 : steps);

        // The pipelining formula of Section III-E:
        // sum_k Lat(sg_k|b') + (b/b' - 1) * max_k Lat(sg_k|b'), the
        // sum accumulated in segment order.
        maxSteady = std::max(maxSteady, segCost.steadySampleCycles);
        modelCost.latencyCycles += segCost.firstSampleCycles;
        modelCost.energyNj += segCost.energyNj;
        if (keepSegments)
            modelCost.segments.push_back(segCost);
    }
    modelCost.latencyCycles += (steps - 1) * maxSteady;
    return modelCost;
}

namespace
{
struct NoContention
{
    int operator()(int, int, CommPhase) const { return 1; }
};
} // namespace

WindowCost
WindowEvaluator::evaluate(const WindowPlacement& placement) const
{
    // Profiled solves count every evaluator invocation (solo and
    // full); unprofiled runs pay one predicted branch.
    obs::SearchCounters::bump(db_.counters(),
                              &obs::SearchCounters::windowEvals);
    validate(placement);
    const Scenario& sc = db_.scenario();
    const Mcm& mcm = db_.mcm();
    const Topology& topo = mcm.topology();
    const int numNodes = topo.numNodes();

    const NoContention noContention;

    // ---- Step 1: choose the mini-batch b' per model. Section III-E
    // leaves b' <= b free; candidates are capacity folding vs
    // streaming, compared contention-free by latency. The slowest
    // model's contention-free latency doubles as the phased model's
    // window time base (the denominator of each link's utilization).
    std::vector<int> chosenBIdx(placement.models.size(), 0);
    double baselineCycles = 0.0;
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const int numCandidates = static_cast<int>(
            db_.miniBatchCandidates(mp.modelIdx).size());
        double bestLat = std::numeric_limits<double>::infinity();
        for (int bIdx = 0; bIdx < numCandidates; ++bIdx) {
            const double lat =
                evalModel(mp, entryOf(placement, mp.modelIdx), bIdx,
                          false, noContention)
                    .latencyCycles;
            if (lat < bestLat) {
                bestLat = lat;
                chosenBIdx[mi] = bIdx;
            }
        }
        baselineCycles = std::max(baselineCycles, bestLat);
    }

    // ---- Step 2: enumerate flows for the contention model. --------
    std::vector<Flow> flows;
    double totalDramBytes = 0.0;
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const Model& model = sc.models[mp.modelIdx];
        const int bPrime =
            db_.miniBatchCandidates(mp.modelIdx)[chosenBIdx[mi]];
        const int b = model.batch;
        const int steps = static_cast<int>(
            std::ceil(static_cast<double>(b) / bPrime));
        for (std::size_t k = 0; k < mp.segments.size(); ++k) {
            const PlacedSegment& seg = mp.segments[k];
            const int c = seg.chiplet;
            const int mem = mcm.nearestMemInterface(c);
            const Layer& first = model.layers[seg.range.first];
            const Layer& last = model.layers[seg.range.last];

            const bool resident = segmentResident(mp.modelIdx, seg,
                                                  bPrime);
            // Non-resident weights re-stream once per mini-batch step.
            const double wBytes = segmentWeights(mp.modelIdx, seg) *
                                  (resident ? 1.0 : steps);
            flows.push_back(
                {mem, c, wBytes, true, CommPhase::WeightLoad});
            totalDramBytes += wBytes;

            if (k == 0) {
                const double inBytes = first.inputBytes() * b;
                const int entry = entryOf(placement, mp.modelIdx);
                if (entry >= 0) {
                    flows.push_back({entry, c, inBytes, false,
                                     CommPhase::Activation});
                } else {
                    flows.push_back(
                        {mem, c, inBytes, true, CommPhase::Spill});
                    totalDramBytes += inBytes;
                }
            } else {
                const PlacedSegment& prev = mp.segments[k - 1];
                const Layer& prevLast = model.layers[prev.range.last];
                flows.push_back({prev.chiplet, c,
                                 prevLast.outputBytes() * b, false,
                                 CommPhase::Activation});
            }
            // Only the model's final layer writes results off-chip; a
            // model continuing into a later window hands its data to
            // that window's head segment (consumer side, NoP-priced).
            const bool modelEnds =
                seg.range.last == model.numLayers() - 1;
            if (k + 1 == mp.segments.size() && modelEnds) {
                const double outBytes = last.outputBytes() * b;
                flows.push_back(
                    {c, mem, outBytes, true, CommPhase::Spill});
                totalDramBytes += outBytes;
            }
        }
    }

    // Per-link flow counts over the precomputed routes, in a flat
    // vector indexed by dense link id. Evaluation must never grow the
    // load table: an earlier std::map version inserted zero entries
    // on every contention-factor read (a silent allocation per query);
    // the fixed-size vector makes that structurally impossible
    // (regression-tested in tests/test_cost.cc).
    std::vector<int> linkLoad(options_.contention ? topo.numLinks() : 0,
                              0);
    if (options_.contention) {
        for (const Flow& f : flows) {
            if (f.src == f.dst || f.bytes <= 0.0)
                continue;
            for (const int id : topo.routeLinkIds(f.src, f.dst))
                ++linkLoad[id];
        }
    }
    // The static per-flow contention factor depends only on
    // (src, dst) — it applies solely to activation flows and returns
    // 1 for the DRAM-side phases — so it is computed once per pair
    // and memoized in a flat table instead of being re-derived for
    // every segment that prices a transfer. (Empty when contention is
    // off — the solo evaluations of the beam search never touch it.)
    std::vector<int> factorMemo(
        options_.contention
            ? static_cast<std::size_t>(numNodes) * numNodes
            : 0,
        0);
    auto contentionFactor = [&](int src, int dst, CommPhase phase) {
        if (!options_.contention || src == dst ||
            phase != CommPhase::Activation)
            return 1;
        int& memo =
            factorMemo[static_cast<std::size_t>(src) * numNodes + dst];
        if (memo == 0) {
            int sharers = 1;
            for (const int id : topo.routeLinkIds(src, dst))
                sharers = std::max(sharers, linkLoad[id]);
            memo = sharers;
        }
        return memo;
    };

    // Phased fidelity: per-phase per-link byte loads (medium-
    // aggregated on a broadcast plane) and a (src, dst, phase)-keyed
    // memo of M/D/1 bottleneck factors. Built only when phased, so
    // the static hot path allocates nothing new.
    const bool phased = options_.contention &&
                        options_.fidelity == CommFidelity::Phased;
    std::optional<PhasedLinkTable> phaseTable;
    std::vector<double> phasedMemo;
    if (phased) {
        phaseTable.emplace(topo);
        for (const Flow& f : flows) {
            if (f.src == f.dst || f.bytes <= 0.0)
                continue;
            phaseTable->addFlow(f.phase,
                                topo.routeLinkIds(f.src, f.dst),
                                f.bytes);
        }
        phasedMemo.assign(static_cast<std::size_t>(numNodes) *
                              numNodes * kNumCommPhases,
                          0.0);
    }
    auto phasedFactor = [&](int src, int dst, CommPhase phase) {
        if (src == dst)
            return 1.0;
        double& memo =
            phasedMemo[(static_cast<std::size_t>(src) * numNodes +
                        dst) *
                           kNumCommPhases +
                       static_cast<int>(phase)];
        if (memo == 0.0) {
            double worst = 1.0;
            for (const int id : topo.routeLinkIds(src, dst))
                worst = std::max(
                    worst, comm_.queueingFactor(
                               phaseTable->load(phase, id),
                               baselineCycles, id));
            memo = worst;
        }
        return memo;
    };

    // ---- Step 3: final costs with contention. ----------------------
    WindowCost window;
    window.dramBytes = totalDramBytes;
    for (const int load : linkLoad)
        window.maxLinkSharers = std::max(window.maxLinkSharers, load);

    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const int entry = entryOf(placement, mp.modelIdx);
        ModelWindowCost modelCost =
            !options_.contention
                ? evalModel(mp, entry, chosenBIdx[mi], true,
                            noContention)
                : (phased ? evalModel(mp, entry, chosenBIdx[mi], true,
                                      phasedFactor)
                          : evalModel(mp, entry, chosenBIdx[mi], true,
                                      contentionFactor));
        window.latencyCycles =
            std::max(window.latencyCycles, modelCost.latencyCycles);
        window.energyNj += modelCost.energyNj;
        window.perModel.push_back(std::move(modelCost));
    }
    for (const double f : phasedMemo)
        window.maxQueueFactor = std::max(window.maxQueueFactor, f);

    if (options_.dramRoofline) {
        window.dramBoundCycles =
            totalDramBytes / comm_.offchipBytesPerCycle();
        window.latencyCycles =
            std::max(window.latencyCycles, window.dramBoundCycles);
    }
    return window;
}

SoloWindowCost
WindowEvaluator::evaluateSolo(const WindowPlacement& placement) const
{
    SCAR_REQUIRE(placement.models.size() == 1,
                 "evaluateSolo requires exactly one placed model, got ",
                 placement.models.size());
    SCAR_REQUIRE(!options_.contention && !options_.dramRoofline,
                 "evaluateSolo requires contention and dramRoofline "
                 "disabled");
    validateSolo(placement);
    const ModelPlacement& mp = placement.models.front();
    return evaluateSoloUnchecked(mp, entryOf(placement, mp.modelIdx));
}

SoloWindowCost
WindowEvaluator::evaluateSoloUnchecked(const ModelPlacement& mp,
                                       int entry) const
{
    // Counts as one evaluator invocation, exactly like the evaluate()
    // call it replaces — profiled windowEvals totals are unchanged.
    obs::SearchCounters::bump(db_.counters(),
                              &obs::SearchCounters::windowEvals);

    // evaluate() prices every mini-batch candidate contention-free in
    // its selection step, then re-prices the winner — with contention
    // and the roofline off, that final pass reproduces the selection
    // pass bit-for-bit (evalModel is pure). So the winner's cost from
    // the selection loop IS the answer; the re-evaluation, the flow
    // enumeration, and the contention tables are skipped entirely.
    // Selection keeps the FIRST strict-< winner, matching evaluate().
    const int numCandidates = static_cast<int>(
        db_.miniBatchCandidates(mp.modelIdx).size());
    const NoContention noContention;
    SoloWindowCost best;
    double bestLat = std::numeric_limits<double>::infinity();
    for (int bIdx = 0; bIdx < numCandidates; ++bIdx) {
        const ModelWindowCost cost =
            evalModel(mp, entry, bIdx, false, noContention);
        if (cost.latencyCycles < bestLat) {
            bestLat = cost.latencyCycles;
            // evaluate() folds the winner into WindowCost as
            // max(0, lat) and 0 + energy — identities for the
            // non-negative costs produced here.
            best.latencyCycles = cost.latencyCycles;
            best.energyNj = cost.energyNj;
        }
    }
    return best;
}

} // namespace scar
