/**
 * @file
 * Window evaluator: the heterogeneous-MCM cost model of Section III-E.
 *
 * Input: a placement of each model's window layers as contiguous layer
 * segments on distinct chiplets. Output: window latency/energy.
 *
 * Latency composition per model m with segments sg_1..sg_n, batch b,
 * and the chiplet-level mini-batch b' derived by the CostDb:
 *
 *   Lat(SG_m) = sum_k Lat(sg_k | b') + (b/b' - 1) * max_k Lat(sg_k | b')
 *
 * where Lat(sg | b') = Lat_ip_com + sum_l Lat_comp(l) + Lat_op_com.
 * Communication placement: the first segment loads its input from
 * DRAM (or over the NoP from the model's entry chiplet when the model
 * continues from a previous window), consecutive segments hand off
 * over the NoP (consumer side), and the segment holding the model's
 * final layer writes back to DRAM; weights always stream from DRAM —
 * once per window when the segment's weights fit in L2 alongside its
 * activation working set, otherwise once per sample.
 *
 * The NoP contention term delta supports two fidelities
 * (EvaluatorOptions::fidelity, see cost/comm_model.h):
 *
 *  - CommFidelity::Static (default): count flows per routed link
 *    within the window and inflate each activation flow's
 *    transmission time by the maximum number of flows sharing any of
 *    its links (the paper's model);
 *  - CommFidelity::Phased: split the window's flows into phases
 *    (weight-load / activation-exchange / off-chip spill), accumulate
 *    per-phase per-link byte loads into a PhasedLinkTable, and
 *    inflate every flow — including DRAM-side weight and spill
 *    traffic — by the M/D/1 queueing factor of its route's bottleneck
 *    link at the window's contention-free latency, memoized per
 *    (src, dst, phase).
 *
 * A package-level DRAM roofline bounds the window latency from below
 * by total off-chip bytes / off-chip bandwidth.
 */

#ifndef SCAR_COST_WINDOW_EVALUATOR_H
#define SCAR_COST_WINDOW_EVALUATOR_H

#include <vector>

#include "cost/comm_model.h"
#include "cost/cost_db.h"
#include "workload/model.h"

namespace scar
{

/** One contiguous run of a model's layers mapped to one chiplet. */
struct PlacedSegment
{
    LayerRange range;
    int chiplet = -1;
};

/** All of one model's segments within a window, in execution order. */
struct ModelPlacement
{
    int modelIdx = -1;
    std::vector<PlacedSegment> segments;
};

/** A complete window placement across models. */
struct WindowPlacement
{
    std::vector<ModelPlacement> models;

    /**
     * Where each model's live activation resides when the window
     * starts: entryChiplet[modelIdx] is a chiplet id, or -1 when the
     * input must come from DRAM (first window / fresh input). An empty
     * vector means all models load from DRAM. Mirrors the paper's
     * observation that chiplet-to-chiplet passing avoids off-chip
     * read/writes at segment boundaries.
     */
    std::vector<int> entryChiplet;
};

/** Cost of one placed segment. */
struct SegmentCost
{
    double firstSampleCycles = 0.0;  ///< incl. one-time weight load
    double steadySampleCycles = 0.0; ///< recurring per-sample cycles
    double energyNj = 0.0;           ///< total over the batch
    bool weightsResident = true;     ///< weights fit in L2 for the window
};

/** Cost of one model inside a window. */
struct ModelWindowCost
{
    double latencyCycles = 0.0;
    double energyNj = 0.0;
    std::vector<SegmentCost> segments;
};

/** Cost of a whole window. */
struct WindowCost
{
    double latencyCycles = 0.0;     ///< max over models, DRAM-roofline'd
    double energyNj = 0.0;          ///< sum over models
    double dramBytes = 0.0;         ///< total off-chip traffic
    double dramBoundCycles = 0.0;   ///< the roofline component
    int maxLinkSharers = 1;         ///< contention diagnostic
    /** Largest M/D/1 factor applied (1.0 unless fidelity is Phased). */
    double maxQueueFactor = 1.0;
    std::vector<ModelWindowCost> perModel;
};

/**
 * Cost of a contention-free single-model window, as returned by the
 * solo fast path. Carries exactly the two scalars `soloCost` consumes;
 * both are bit-identical to the corresponding WindowCost fields.
 */
struct SoloWindowCost
{
    double latencyCycles = 0.0;
    double energyNj = 0.0;
};

/** Evaluation knobs. */
struct EvaluatorOptions
{
    bool contention = true;   ///< model the NoP traffic-conflict delta
    bool dramRoofline = true; ///< apply the off-chip bandwidth bound
    /**
     * Contention fidelity (inert when contention is off). Static is
     * the paper's max-sharers count and keeps every golden
     * byte-identical by construction; Phased is the opt-in
     * time-phased queueing estimate (cost/comm_model.h).
     */
    CommFidelity fidelity = CommFidelity::Static;
};

/**
 * Checks one model's segment ranges: `modelIdx` names a scenario
 * model, and `ranges` is non-empty, each range non-empty, contiguous
 * with the one before it and inside the model. Raises FatalError with
 * the message WindowEvaluator::evaluate() would give otherwise.
 */
void validateSegmentation(const Scenario& sc, int modelIdx,
                          const std::vector<LayerRange>& ranges);

/**
 * Checks the chiplets one model's segments run on: every id is in
 * [0, numChiplets) and none repeats. Raises FatalError with the
 * message WindowEvaluator::evaluate() would give otherwise.
 */
void validatePath(const std::vector<int>& chiplets, int numChiplets);

/** Evaluates window placements on one (scenario, MCM) pair. */
class WindowEvaluator
{
  public:
    WindowEvaluator(const CostDb& db,
                    EvaluatorOptions options = EvaluatorOptions{});

    /**
     * Evaluates one window placement.
     * Requires: segment ranges valid; every chiplet hosts at most one
     * segment within the window (exclusive occupancy, Section IV-D).
     */
    WindowCost evaluate(const WindowPlacement& placement) const;

    /**
     * Fast path for the beam search's solo scoring: a single model,
     * contention and DRAM roofline off (the `soloOptions` evaluator
     * configuration). Skips flow enumeration, the contention tables,
     * and the final re-evaluation pass — the mini-batch selection loop
     * already prices every candidate, so the winner's latency/energy
     * are returned directly. Both scalars are bit-identical to the
     * `evaluate()` result on the same placement because candidate
     * pricing goes through the same `evalModel` member in the same
     * floating-point operation order (pinned in tests/test_cost.cc).
     * Requires: exactly one placed model; contention and dramRoofline
     * disabled in the evaluator options. Validates the placement like
     * evaluate() does, then runs evaluateSoloUnchecked().
     */
    SoloWindowCost evaluateSolo(const WindowPlacement& placement) const;

    /**
     * The unchecked core of evaluateSolo(), for the beam search's hot
     * path: prices model placement `mp` whose input comes from chiplet
     * `entry` (-1: DRAM). Performs no validation. The caller
     * guarantees what evaluateSolo() would check: this evaluator runs
     * the solo configuration, `mp` passes validateSegmentation() and
     * its chiplets pass validatePath(). The search checks each
     * segmentation and each enumerated path once where it is made, not
     * once per evaluation.
     */
    SoloWindowCost evaluateSoloUnchecked(const ModelPlacement& mp,
                                         int entry) const;

    /** The underlying per-transfer communication model. */
    const CommModel& comm() const { return comm_; }

    /** The cost database in use. */
    const CostDb& db() const { return db_; }

  private:
    struct Flow
    {
        int src = -1;
        int dst = -1;
        double bytes = 0.0;
        bool offchip = false;
        CommPhase phase = CommPhase::Activation;
    };

    void validate(const WindowPlacement& placement) const;
    void validateSolo(const WindowPlacement& placement) const;

    /** Entry chiplet of a model, -1 when its input comes from DRAM. */
    int entryOf(const WindowPlacement& placement, int modelIdx) const;
    double segmentWeights(int modelIdx, const PlacedSegment& seg) const;
    bool segmentResident(int modelIdx, const PlacedSegment& seg,
                         int bPrime) const;

    /**
     * Prices one model's placement at mini-batch candidate `bIdx`,
     * with its input coming from chiplet `entry` (-1: DRAM),
     * inflating every transfer's bytes by the supplied contention
     * factor `factor(src, dst, phase)`. Per-segment costs are kept in
     * the result only when `keepSegments` is set; the totals are the
     * same either way. The static factor returns 1
     * for non-activation phases, so DRAM-side sites multiply by 1 —
     * bit-identical to the pre-phase code that applied no factor
     * there. The factor is a templated callable, so the inner loop
     * carries no std::function allocation or indirect call. Shared
     * verbatim by evaluate() and evaluateSolo() — the solo fast
     * path's bit-exactness contract rests on both going through this
     * one function.
     */
    template <typename Factor>
    ModelWindowCost evalModel(const ModelPlacement& mp, int entry,
                              int bIdx, bool keepSegments,
                              Factor&& factor) const;

    const CostDb& db_;
    CommModel comm_;
    EvaluatorOptions options_;
};

} // namespace scar

#endif // SCAR_COST_WINDOW_EVALUATOR_H
