/**
 * @file
 * Solver profiling types: live search counters and the structured
 * per-solve profile emitted by Scar::run.
 *
 * SearchCounters is the hot-path half — a bag of plain counters the
 * sched/cost layers bump through a nullable pointer, so the disabled
 * path costs one predicted branch per site. SolveProfile is the cold
 * half — a plain snapshot of those counters plus per-phase wall
 * timings, filled once at the end of a profiled solve.
 *
 * Counter values are exact (a solve is serial); only the wall timings
 * vary run to run.
 */

#ifndef SCAR_OBS_SOLVE_PROFILE_H
#define SCAR_OBS_SOLVE_PROFILE_H

#include <cstdint>
#include <string>

namespace scar
{
namespace obs
{

/**
 * Cache-efficacy and search-size counters bumped inside the window
 * search. Not synchronized: one set belongs to one serial solve.
 */
struct SearchCounters
{
    std::int64_t soloHits = 0;
    std::int64_t soloMisses = 0;
    std::int64_t pathHits = 0;
    std::int64_t pathMisses = 0;
    std::int64_t windowEvals = 0;   ///< evaluator calls
    std::int64_t combosPlaced = 0;  ///< combos placed by the beam
    std::int64_t eaGenerations = 0; ///< EA bred generations
    std::int64_t costDbRangeQueries = 0; ///< O(1) tables
    std::int64_t costDbLayerQueries = 0; ///< per-layer path

    /** Bumps a counter through a nullable pointer. */
    static void
    bump(SearchCounters* counters, std::int64_t SearchCounters::* member,
         std::int64_t delta = 1)
    {
        if (counters)
            counters->*member += delta;
    }
};

/** Structured result of one profiled Scar::run. */
struct SolveProfile
{
    bool enabled = false; ///< set once a profiled solve fills this

    // Per-phase wall time (milliseconds).
    double totalMs = 0.0;
    double packMs = 0.0;      ///< MCM-Reconfig greedy packing
    double provisionMs = 0.0; ///< PROV node allocation
    double searchMs = 0.0;    ///< SEG+SCHED window searches

    std::int64_t windows = 0;
    std::int64_t allocationsSearched = 0;

    // Counter snapshot (see SearchCounters).
    std::int64_t soloHits = 0;
    std::int64_t soloMisses = 0;
    std::int64_t pathHits = 0;
    std::int64_t pathMisses = 0;
    std::int64_t windowEvals = 0;
    std::int64_t combosPlaced = 0;
    std::int64_t eaGenerations = 0;
    std::int64_t costDbRangeQueries = 0;
    std::int64_t costDbLayerQueries = 0;

    // Cross-solve CostDb table reuse: of this solve's models, how many
    // per-layer table sets came from the process-wide cache vs were
    // built by this solve's CostDb construction (cost/cost_db.h).
    // Filled by Scar::run from CostDb::tableStats(), not from the live
    // SearchCounters — the outcome is fixed at construction time.
    std::int64_t costDbTableHits = 0;
    std::int64_t costDbTableMisses = 0;

    /** Copies the live counters into the snapshot fields. */
    void captureCounters(const SearchCounters& counters);

    /** SoloCache hit fraction in [0, 1]; 0 with no lookups. */
    double soloHitRate() const;

    /** PathCache hit fraction in [0, 1]; 0 with no lookups. */
    double pathHitRate() const;

    /**
     * Fraction of CostDb costings served by the O(1) range tables
     * rather than the per-layer path — the CostDb "hit rate" (the
     * database has no misses; every query is answered).
     */
    double costDbRangeRate() const;

    /**
     * Cross-solve table-reuse fraction in [0, 1]; 0 when no models
     * were costed (or reuse was disabled).
     */
    double costDbTableHitRate() const;

    /** Human-readable multi-line report (table + cache rates). */
    std::string summary() const;
};

} // namespace obs
} // namespace scar

#endif // SCAR_OBS_SOLVE_PROFILE_H
