/**
 * @file
 * Evolutionary SEG search (paper Section V-D): for large MCMs (6x6)
 * the segmentation space outgrows brute-force recombination, so SCAR
 * evolves per-model split-point genomes.
 *
 * Genome: one sorted split-gap list per present model (<= N_i - 1
 * splits). Fitness: beam placement + full window evaluation, exactly
 * the SCHED pipeline. Defaults follow the paper: population 10,
 * 4 generations.
 *
 * Evaluation order: genome creation (selection, crossover, mutation)
 * draws from one seeded stream, and each generation's children are
 * bred before any of them is evaluated. Tournament selection only
 * reads the previous generation, so evaluating children as one
 * per-generation batch changes nothing; candidate lists merge in
 * population index order. The search is serial inside itself.
 */

#ifndef SCAR_SCHED_EVOLUTIONARY_H
#define SCAR_SCHED_EVOLUTIONARY_H

#include <cstdint>

#include "sched/sched_engine.h"

namespace scar
{

/** Evolutionary-algorithm knobs (paper defaults). */
struct EvoOptions
{
    int population = 10;
    int generations = 4;
    double crossoverProb = 0.5; ///< per-model genome exchange
    double mutationProb = 0.4;  ///< per-model split perturbation
    int eliteCount = 2;         ///< genomes carried over unchanged
};

/** Evolves window segmentations; placement remains the SCHED beam. */
class EvolutionaryWindowSearch
{
  public:
    EvolutionaryWindowSearch(const CostDb& db, OptTarget target,
                             WindowSearchOptions schedOpts,
                             EvoOptions evoOpts = EvoOptions{});

    /** Runs the EA for one window; same contract as
     *  WindowScheduler::search (re-entrant, seed-deterministic). */
    WindowScheduler::Result search(const WindowAssignment& wa,
                                   const NodeAllocation& nodes,
                                   std::uint64_t seed,
                                   const std::vector<int>& entry = {}) const;

  private:
    /** Per-model split lists (gap indices local to the window range). */
    using Genome = std::vector<std::vector<int>>;

    Genome randomGenome(const std::vector<int>& present,
                        const WindowAssignment& wa,
                        const NodeAllocation& nodes, Rng& rng) const;
    void mutate(Genome& genome, const std::vector<int>& present,
                const WindowAssignment& wa, const NodeAllocation& nodes,
                Rng& rng) const;
    std::vector<Segmentation> decode(const Genome& genome,
                                     const std::vector<int>& present,
                                     const WindowAssignment& wa) const;

    const CostDb& db_;
    OptTarget target_;
    WindowScheduler scheduler_;
    EvoOptions evo_;
    obs::SearchCounters* counters_; ///< from schedOpts; may be null
};

} // namespace scar

#endif // SCAR_SCHED_EVOLUTIONARY_H
