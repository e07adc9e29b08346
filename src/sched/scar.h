/**
 * @file
 * SCAR scheduler facade — the public entry point of the library.
 *
 * Wires the four engines of Figure 4 into the two-level search of
 * Figure 3:
 *   MCM-Reconfig (time windows, greedy packing)
 *     -> PROV (node provisioning per window)
 *       -> SEG (layer segmentation, Heuristic 1)
 *         -> SCHED (scheduling trees -> chiplet placement)
 *           -> heterogeneous MCM cost model (scores feed back up)
 *
 * Typical use:
 * @code
 *   Scenario sc = suite::datacenterScenario(4);
 *   Mcm mcm = templates::hetSides3x3();
 *   Scar scar(sc, mcm, ScarOptions{});
 *   ScheduleResult result = scar.run();
 * @endcode
 *
 * Parallelism: run() is serial inside itself. Parallelism comes from
 * running whole solves side by side, as the serving runtime does on
 * its solve pool. Every randomized stage draws from its own
 * mixSeed-derived stream, so run() returns a ScheduleResult that
 * depends on the inputs and the seed alone, and it is safe to invoke
 * concurrently from multiple threads. Exception: a profiled run
 * (ScarOptions::profile set) attaches live counters to the instance
 * and must run exclusively.
 */

#ifndef SCAR_SCHED_SCAR_H
#define SCAR_SCHED_SCAR_H

#include <cstdint>

#include "obs/solve_profile.h"
#include "sched/evolutionary.h"
#include "sched/greedy_packing.h"
#include "sched/sched_engine.h"

namespace scar
{

/** Search strategy for the per-window SEG space. */
enum class SearchMode
{
    BruteForce,   ///< top-k recombination (paper: all 3x3 experiments)
    Evolutionary, ///< EA over split genomes (paper: 6x6 experiments)
};

/** Top-level scheduler configuration. */
struct ScarOptions
{
    OptTarget target = OptTarget::Edp;
    CustomScoreFn customScore;  ///< optional user metric (scenario level)
    int nsplits = 4;            ///< window boundary points (paper default)
    PackingPolicy packing = PackingPolicy::GreedyFirstFit;
    ProvisionerOptions prov;
    WindowSearchOptions window;
    SearchMode mode = SearchMode::BruteForce;
    EvoOptions evo;
    std::uint64_t seed = 0xC0FFEEuLL;
    /**
     * Has no effect: the search is serial at every value. Only the
     * `>= 0` check reads it. The field stays because the repository
     * benchmark program (perfbench/scarbench.cc) still assigns it;
     * it goes when that program changes.
     */
    int threads = 0;
    /**
     * When set, run() fills this with per-phase wall timings and
     * cache-efficacy counters (see obs/solve_profile.h). Profiling
     * never changes the schedule, but a profiled run attaches live
     * counters to this instance's cost database, so run() must then
     * be the only solve using the instance — the concurrent-run
     * guarantee above applies to the default (nullptr) state only.
     */
    obs::SolveProfile* profile = nullptr;
};

/** One scheduled time window of the final schedule. */
struct ScheduledWindow
{
    WindowAssignment assignment;
    NodeAllocation nodes;
    WindowPlacement placement;
    WindowCost cost;
};

/** Complete scheduling outcome for a scenario on an MCM. */
struct ScheduleResult
{
    std::vector<ScheduledWindow> windows;
    Metrics metrics;                  ///< end-to-end totals
    std::vector<Metrics> candidates;  ///< scenario-level Pareto cloud
};

/**
 * One stable cut point of a schedule: the end of window `windowIdx`.
 *
 * The serving runtime replays schedules window by window, and window
 * ends are the only instants where the package holds no in-flight
 * layer work — every placed segment either finished in this window or
 * has not started. That makes boundaries the natural re-entry points
 * for request-level preemption (suspend here, replay something
 * urgent, resume from the same cursor without re-solving), the same
 * cut-point role NN-Baton-style pipeline frameworks assign to stage
 * boundaries. `segments` counts the placed segments inside the ending
 * window: a future finer-grained preemptor could cut between them,
 * so the count is exposed as metadata even though the executor
 * currently only cuts at window ends.
 */
struct WindowBoundary
{
    int windowIdx = 0;         ///< window that ends at this boundary
    double windowCycles = 0.0; ///< latency of the ending window alone
    double startCycles = 0.0;  ///< cumulative latency at window start
    double endCycles = 0.0;    ///< cumulative latency at the boundary
    int segments = 0;          ///< placed segments inside the window
    bool last = false;         ///< the schedule completes here
};

/**
 * The ordered boundary metadata of a schedule, one entry per window.
 * Deterministic in the ScheduleResult alone; the runtime's replay
 * view (runtime/schedule_cache.h) and the boundary preemptor derive
 * their per-window timings from these offsets.
 */
std::vector<WindowBoundary> windowBoundaries(const ScheduleResult& result);

/** The SCAR scheduler. */
class Scar
{
  public:
    /**
     * Builds the layer-cost database and prepares the engines. The
     * scenario and MCM are copied, so temporaries are safe to pass.
     */
    Scar(Scenario scenario, Mcm mcm, ScarOptions options = ScarOptions{});

    /** Runs the full two-level search and returns the best schedule. */
    ScheduleResult run();

    /** The per-layer cost database (offline MAESTRO pass). */
    const CostDb& db() const { return db_; }

    /** The options in effect. */
    const ScarOptions& options() const { return options_; }

  private:
    WindowScheduler::Result searchWindow(const WindowAssignment& wa,
                                         const NodeAllocation& nodes,
                                         std::uint64_t seed,
                                         const std::vector<int>& entry)
        const;

    const Scenario scenario_;
    const Mcm mcm_;
    ScarOptions options_;
    CostDb db_;
    obs::SearchCounters* runCounters_ = nullptr; ///< live in profiled run()
};

} // namespace scar

#endif // SCAR_SCHED_SCAR_H
