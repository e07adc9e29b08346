#include "sched/scar.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"

namespace scar
{

namespace
{

/** Stream tag separating the candidate-cloud RNG from window seeds. */
constexpr std::uint64_t kCloudStream = 0xC10DuLL;

} // namespace

std::vector<WindowBoundary>
windowBoundaries(const ScheduleResult& result)
{
    std::vector<WindowBoundary> boundaries;
    boundaries.reserve(result.windows.size());
    double cumulative = 0.0;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
        const ScheduledWindow& sw = result.windows[w];
        WindowBoundary boundary;
        boundary.windowIdx = static_cast<int>(w);
        boundary.windowCycles = sw.cost.latencyCycles;
        boundary.startCycles = cumulative;
        cumulative += sw.cost.latencyCycles;
        boundary.endCycles = cumulative;
        for (const ModelPlacement& mp : sw.placement.models)
            boundary.segments += static_cast<int>(mp.segments.size());
        boundary.last = w + 1 == result.windows.size();
        boundaries.push_back(boundary);
    }
    return boundaries;
}

Scar::Scar(Scenario scenario, Mcm mcm, ScarOptions options)
    : scenario_(std::move(scenario)), mcm_(std::move(mcm)),
      options_(options), db_(scenario_, mcm_)
{
    SCAR_REQUIRE(scenario_.numModels() >= 1, "scenario has no models");
    SCAR_REQUIRE(options_.nsplits >= 0, "nsplits must be >= 0");
    SCAR_REQUIRE(options_.threads >= 0, "threads must be >= 0");
}

WindowScheduler::Result
Scar::searchWindow(const WindowAssignment& wa, const NodeAllocation& nodes,
                   std::uint64_t seed,
                   const std::vector<int>& entry) const
{
    WindowSearchOptions wopts = options_.window;
    wopts.counters = runCounters_;
    if (options_.mode == SearchMode::Evolutionary) {
        EvolutionaryWindowSearch evo(db_, options_.target, wopts,
                                     options_.evo);
        return evo.search(wa, nodes, seed, entry);
    }
    WindowScheduler scheduler(db_, options_.target, wopts);
    return scheduler.search(wa, nodes, seed, entry);
}

ScheduleResult
Scar::run()
{
    // Profiling scaffolding: a profiled run attaches live counters to
    // the cost database and times each phase on the wall clock. The
    // default path only tests `prof` — never touches the clock — so
    // unprofiled solves stay free of observability work.
    using Clock = std::chrono::steady_clock;
    obs::SolveProfile* const prof = options_.profile;
    obs::SearchCounters counters;
    const auto sinceMs = [](Clock::time_point from) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         from)
            .count();
    };
    Clock::time_point runStart{};
    Clock::time_point phaseStart{};
    double packMs = 0.0;
    double provisionMs = 0.0;
    double searchMs = 0.0;
    std::int64_t allocationsSearched = 0;
    if (prof) {
        runStart = Clock::now();
        phaseStart = runStart;
        runCounters_ = &counters;
        db_.setCounters(&counters);
    }

    const WindowPlan plan =
        packLayers(db_, options_.nsplits, options_.packing);
    if (prof)
        packMs = sinceMs(phaseStart);
    inform("SCAR: ", scenario_.name, " on ", mcm_.name(), ": ",
           plan.windows.size(), " windows, target ",
           optTargetName(options_.target));

    ScheduleResult result;
    std::vector<std::vector<ScoredPlacement>> windowTops;
    // Where each model's live data sits as windows progress (-1 = DRAM).
    std::vector<int> entry(scenario_.numModels(), -1);

    // Windows run serially — each window's entry chiplets depend on
    // the previous window's best placement — but every (window,
    // allocation) search gets its own seed stream and parallelizes
    // internally.
    for (std::size_t w = 0; w < plan.windows.size(); ++w) {
        const WindowAssignment& wa = plan.windows[w];
        if (prof)
            phaseStart = Clock::now();
        const auto allocations =
            provisionNodes(wa, db_, options_.target, options_.prov);
        if (prof) {
            provisionMs += sinceMs(phaseStart);
            allocationsSearched +=
                static_cast<std::int64_t>(allocations.size());
            phaseStart = Clock::now();
        }
        const std::uint64_t windowSeed =
            mixSeed(options_.seed, static_cast<std::uint64_t>(w));

        WindowScheduler::Result best;
        std::vector<ScoredPlacement> mergedTop;
        for (std::size_t a = 0; a < allocations.size(); ++a) {
            const auto found =
                searchWindow(wa, allocations[a],
                             mixSeed(windowSeed,
                                     static_cast<std::uint64_t>(a)),
                             entry);
            if (!found.found)
                continue;
            mergedTop.insert(mergedTop.end(), found.top.begin(),
                             found.top.end());
            if (!best.found || found.best.score < best.best.score) {
                best.found = true;
                best.best = found.best;
            }
        }
        if (prof)
            searchMs += sinceMs(phaseStart);
        SCAR_REQUIRE(best.found,
                     "no feasible placement found for a window of ",
                     scenario_.name, " on ", mcm_.name());

        std::stable_sort(
            mergedTop.begin(), mergedTop.end(),
            [](const ScoredPlacement& a, const ScoredPlacement& b) {
                return a.score < b.score;
            });
        if (static_cast<int>(mergedTop.size()) >
            options_.window.maxTopCandidates)
            mergedTop.resize(options_.window.maxTopCandidates);

        ScheduledWindow sw;
        sw.assignment = wa;
        sw.nodes.assign(scenario_.numModels(), 0);
        for (const ModelPlacement& mp : best.best.placement.models) {
            sw.nodes[mp.modelIdx] =
                static_cast<int>(mp.segments.size());
            // The model's live data now resides on its tail chiplet.
            entry[mp.modelIdx] = mp.segments.back().chiplet;
        }
        sw.placement = best.best.placement;
        sw.cost = best.best.cost;
        result.windows.push_back(std::move(sw));
        windowTops.push_back(std::move(mergedTop));
    }

    // End-to-end totals: windows execute back to back (Section III-E).
    double cycles = 0.0;
    double energyNj = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        cycles += sw.cost.latencyCycles;
        energyNj += sw.cost.energyNj;
    }
    result.metrics =
        Metrics{cyclesToSeconds(cycles), njToJoules(energyNj)};

    // Scenario-level candidate cloud for Pareto plots: the i-th ranked
    // placement of each window combined, plus random cross picks from
    // a dedicated stream (independent of how much entropy the window
    // searches consumed).
    Rng cloudRng(mixSeed(options_.seed, kCloudStream));
    std::size_t maxRank = 0;
    for (const auto& top : windowTops)
        maxRank = std::max(maxRank, top.size());
    auto combine = [&](const std::vector<std::size_t>& pick) {
        double c = 0.0;
        double e = 0.0;
        for (std::size_t w = 0; w < windowTops.size(); ++w) {
            const auto& top = windowTops[w];
            const std::size_t idx = std::min(pick[w], top.size() - 1);
            c += top[idx].cost.latencyCycles;
            e += top[idx].cost.energyNj;
        }
        result.candidates.push_back(
            Metrics{cyclesToSeconds(c), njToJoules(e)});
    };
    for (std::size_t rank = 0; rank < maxRank; ++rank)
        combine(std::vector<std::size_t>(windowTops.size(), rank));
    for (int i = 0; i < 48; ++i) {
        std::vector<std::size_t> pick(windowTops.size());
        for (std::size_t w = 0; w < pick.size(); ++w)
            pick[w] = cloudRng.index(std::max<std::size_t>(
                windowTops[w].size(), 1));
        combine(pick);
    }

    if (options_.customScore) {
        // Custom metric consumers rank the candidate cloud themselves;
        // report the best candidate under the custom score as totals.
        const Metrics best = *std::min_element(
            result.candidates.begin(), result.candidates.end(),
            [&](const Metrics& a, const Metrics& b) {
                return options_.customScore(a) < options_.customScore(b);
            });
        if (options_.customScore(best) <
            options_.customScore(result.metrics)) {
            result.metrics = best;
        }
    }

    if (prof) {
        db_.setCounters(nullptr);
        runCounters_ = nullptr;
        prof->enabled = true;
        prof->totalMs = sinceMs(runStart);
        prof->packMs = packMs;
        prof->provisionMs = provisionMs;
        prof->searchMs = searchMs;
        prof->windows = static_cast<std::int64_t>(result.windows.size());
        prof->allocationsSearched = allocationsSearched;
        prof->captureCounters(counters);
        prof->costDbTableHits = db_.tableStats().hits;
        prof->costDbTableMisses = db_.tableStats().misses;
    }
    return result;
}

} // namespace scar
