/**
 * @file
 * SCHED engine (paper Section IV-D): maps layer segments onto physical
 * chiplets within one time window.
 *
 * The scheduling space is a forest of scheduling trees over the NoP
 * adjacency: a tree fixes a root chiplet per model, and a model's
 * candidate schedule is a simple path of length = its segment count
 * through unoccupied chiplets (constrained DFS). Later models are
 * constrained by earlier models' visited nodes.
 *
 * Search organization:
 *  1. Heuristic-1 recombination — the cross product of each model's
 *     top-k segmentations forms the combo list;
 *  2. for each combo, models place in decreasing node-count order via
 *     beam search: path candidates from every free root are scored
 *     with a contention-free single-model evaluation (cached), and
 *     the best `beamWidth` partial placements survive;
 *  3. complete placements are re-scored with the full window evaluator
 *     (contention + DRAM roofline) and ranked.
 *
 * Determinism: search() is serial and re-entrant, so concurrent
 * solves may share one instance. Randomness comes from a seed value,
 * not a shared generator — each model's segmentation pass draws from
 * its own mixSeed(seed, model) stream. Per-combo results are merged
 * in combo index order and ranked with a stable sort, so the returned
 * Result is a function of the inputs and the seed alone.
 *
 * All enumeration caps are explicit in WindowSearchOptions; exceeding
 * a cap logs at debug level rather than failing silently.
 */

#ifndef SCAR_SCHED_SCHED_ENGINE_H
#define SCAR_SCHED_SCHED_ENGINE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "cost/window_evaluator.h"
#include "eval/metrics.h"
#include "sched/provisioner.h"
#include "sched/sched_tree.h"
#include "sched/segmentation.h"
#include "sched/time_window.h"

namespace scar
{

/** Per-window search knobs. */
struct WindowSearchOptions
{
    SegmentationOptions seg;     ///< SEG engine (top-k, enumeration cap)
    int maxPathsPerModel = 96;   ///< DFS path candidates per model
    int beamWidth = 12;          ///< surviving partial placements
    int maxCombos = 64;          ///< segmentation combos explored
    int maxTopCandidates = 32;   ///< ranked placements kept for Pareto
    EvaluatorOptions eval;       ///< final-evaluation options
    /**
     * Live profiling counters (cache hits, combos placed); nullptr —
     * the default — records nothing and costs one predicted branch
     * per site. Counters never influence search results.
     */
    obs::SearchCounters* counters = nullptr;
};

/** A fully evaluated window placement. */
struct ScoredPlacement
{
    WindowPlacement placement;
    WindowCost cost;
    double score = 0.0;
};

/** Searches the scheduling space of one time window. */
class WindowScheduler
{
  public:
    /** Search outcome: best placement plus a ranked candidate list. */
    struct Result
    {
        bool found = false;
        ScoredPlacement best;
        std::vector<ScoredPlacement> top; ///< ascending score
    };

    /**
     * Per-solve memo of contention-free single-model (latency,
     * energy) costs, shared across the combos of one window search
     * (and, for the evolutionary driver, across a whole EA run).
     *
     * The key is (model, entry chiplet, segment ends, path). It is
     * hashed and compared straight from the caller's Segmentation and
     * path, so a probe copies nothing and a hit allocates nothing. A
     * stored key's integers live in one flat arena as
     * [model, entry, n, end_0..end_n-1, path_0..path_n-1]; a
     * FlatHashMap, reserved once per memo, maps (hash, arena offset)
     * to the value. The explicit n keeps keys of different segment
     * counts apart. Segment starts are not part of the key: within
     * one search a model's window range is fixed, so its ends
     * determine its segments.
     *
     * Values are deterministic functions of the key, so probe order
     * never changes a result. Not synchronized: one memo belongs to
     * one serial search.
     */
    class SoloCache
    {
      public:
        using Value = std::pair<double, double>;

        /** A probe key viewed in place; insert() copies it. */
        struct Key
        {
            int model;
            int entry;
            const Segmentation& seg;
            const std::vector<int>& path; ///< one chiplet per segment
            std::uint32_t hash;           ///< as makeKey() computes it
        };

        /** The key of (model, entry, seg, path), hash included. */
        static Key makeKey(int model, int entry, const Segmentation& seg,
                           const std::vector<int>& path);

        SoloCache();

        /** The stored value for `key`, or nullptr when absent. */
        const Value* find(const Key& key) const;

        /** Stores `value` for `key`, which must not be present. */
        void insert(const Key& key, const Value& value);

        std::size_t size() const { return map_.size(); }

        /**
         * Placement the search's miss path fills before pricing it;
         * reused so a miss allocates only when a key has more segments
         * than any before it.
         */
        ModelPlacement& scratch() { return scratch_; }

      private:
        /**
         * Keys reserved up front: on fleet_arvr a window search's memo
         * holds a median of 810 keys and a p99 of 2,015, so nearly
         * every search runs without a rehash.
         */
        static constexpr std::size_t kReservedKeys = 2048;

        /** A stored key: its hash and where its integers start. */
        struct StoredKey
        {
            std::uint32_t hash;
            std::uint32_t offset; ///< into arena_

            /** Each stored key has its own offset. */
            bool operator==(const StoredKey& o) const
            {
                return offset == o.offset;
            }
        };

        struct StoredKeyHash
        {
            std::uint64_t operator()(const StoredKey& k) const
            {
                return k.hash;
            }
        };

        bool matches(const StoredKey& stored, const Key& key) const;

        FlatHashMap<StoredKey, Value, StoredKeyHash> map_;
        std::vector<int> arena_;
        ModelPlacement scratch_;
    };

    WindowScheduler(const CostDb& db, OptTarget target,
                    WindowSearchOptions opts = WindowSearchOptions{});

    /**
     * Runs the SEG+SCHED search for one window. Re-entrant: safe to
     * call concurrently on the same instance.
     * @param wa layers per model in this window
     * @param nodes PROV allocation (max segments per model)
     * @param seed randomness for capped enumerations; each model's
     *        segmentation pass uses its own mixSeed(seed, model)
     *        stream, so results are reproducible from the seed alone
     * @param entry per-model entry chiplets (-1/empty = DRAM input);
     *        models continuing from a previous window receive their
     *        live data over the NoP from these chiplets
     */
    Result search(const WindowAssignment& wa, const NodeAllocation& nodes,
                  std::uint64_t seed,
                  const std::vector<int>& entry = {}) const;

    /**
     * Evaluates a fixed per-model segmentation choice (used by the
     * evolutionary driver): beam placement + full evaluation. Each
     * segmentation is checked with validateSegmentation() first, so a
     * malformed one fails here with evaluate()'s messages.
     * @param segs per-present-model segmentations, aligned with the
     *        present-model order of the window assignment
     * @param sharedSolo optional solo-cost memo reused across calls
     *        on one window assignment (the EA shares one per window
     *        search); nullptr uses a private cache
     * @param sharedPaths optional path-enumeration memo reused across
     *        calls (the EA shares one per window search); nullptr
     *        uses a private cache
     */
    Result placeSegmentations(const std::vector<int>& presentModels,
                              const std::vector<Segmentation>& segs,
                              const std::vector<int>& entry = {},
                              SoloCache* sharedSolo = nullptr,
                              PathCache* sharedPaths = nullptr) const;

    /** Window-level score of a cost under the chosen target. */
    double score(const WindowCost& cost) const;

    /** Present (non-empty) model indices of a window assignment. */
    static std::vector<int> presentModels(const WindowAssignment& wa);

  private:
    struct BeamState
    {
        std::vector<bool> used;
        std::vector<ModelPlacement> placed;
        double maxLatency = 0.0;
        double sumEnergy = 0.0;
    };

    /** Contention-free (latency, energy) of one placed model. */
    std::pair<double, double> soloCost(int model,
                                       const Segmentation& seg,
                                       const std::vector<int>& path,
                                       int entry, SoloCache& cache) const;

    double partialScore(double maxLatency, double sumEnergy) const;

    void placeCombo(const std::vector<int>& present,
                    const std::vector<Segmentation>& segs,
                    const std::vector<int>& entry, SoloCache& cache,
                    PathCache& paths, Result& result) const;

    /**
     * Placement-aware refinement of Heuristic 1: re-scores pruned
     * segmentation candidates by their best single-model placement on
     * the empty package and keeps the top-k.
     */
    std::vector<Segmentation> refineSegmentations(
        int model, std::vector<Segmentation> pruned, int entry,
        SoloCache& cache, PathCache& paths) const;

    const CostDb& db_;
    OptTarget target_;
    WindowSearchOptions opts_;
    WindowEvaluator fullEval_;
    WindowEvaluator soloEval_;
};

} // namespace scar

#endif // SCAR_SCHED_SCHED_ENGINE_H
