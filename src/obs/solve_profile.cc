#include "obs/solve_profile.h"

#include <algorithm>

#include "common/table.h"

namespace scar
{
namespace obs
{

namespace
{

double
rate(std::int64_t hits, std::int64_t misses)
{
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

} // namespace

void
SolveProfile::captureCounters(const SearchCounters& counters)
{
    soloHits = counters.soloHits;
    soloMisses = counters.soloMisses;
    pathHits = counters.pathHits;
    pathMisses = counters.pathMisses;
    windowEvals = counters.windowEvals;
    combosPlaced = counters.combosPlaced;
    eaGenerations = counters.eaGenerations;
    costDbRangeQueries = counters.costDbRangeQueries;
    costDbLayerQueries = counters.costDbLayerQueries;
}

double
SolveProfile::soloHitRate() const
{
    return rate(soloHits, soloMisses);
}

double
SolveProfile::pathHitRate() const
{
    return rate(pathHits, pathMisses);
}

double
SolveProfile::costDbRangeRate() const
{
    return rate(costDbRangeQueries, costDbLayerQueries);
}

double
SolveProfile::costDbTableHitRate() const
{
    return rate(costDbTableHits, costDbTableMisses);
}

std::string
SolveProfile::summary() const
{
    std::string out = "Solve profile (" + std::to_string(windows) +
                      " windows, " +
                      std::to_string(allocationsSearched) +
                      " allocations searched)\n";

    TextTable phases({"phase", "wall ms", "share %"});
    const double total = std::max(totalMs, 1e-12);
    auto phaseRow = [&](const char* name, double ms) {
        phases.addRow({name, TextTable::num(ms, 3),
                       TextTable::num(100.0 * ms / total, 1)});
    };
    phaseRow("pack (MCM-Reconfig)", packMs);
    phaseRow("provision (PROV)", provisionMs);
    phaseRow("window search (SEG+SCHED)", searchMs);
    phaseRow("other", std::max(
                          0.0, totalMs - packMs - provisionMs - searchMs));
    phases.addSeparator();
    phases.addRow({"total", TextTable::num(totalMs, 3), "100.0"});
    out += phases.render();

    TextTable caches({"cache", "hits", "misses", "hit rate %"});
    auto cacheRow = [&](const char* name, std::int64_t hits,
                        std::int64_t misses) {
        caches.addRow({name, std::to_string(hits),
                       std::to_string(misses),
                       TextTable::num(100.0 * rate(hits, misses), 1)});
    };
    cacheRow("SoloCache", soloHits, soloMisses);
    cacheRow("PathCache", pathHits, pathMisses);
    cacheRow("CostDb model tables", costDbTableHits,
             costDbTableMisses);
    caches.addRow({"CostDb range tables",
                   std::to_string(costDbRangeQueries),
                   std::to_string(costDbLayerQueries) + " per-layer",
                   TextTable::num(100.0 * costDbRangeRate(), 1)});
    out += caches.render();

    out += "windows evaluated: " + std::to_string(windowEvals) +
           ", combos placed: " + std::to_string(combosPlaced);
    if (eaGenerations > 0)
        out += ", EA generations: " + std::to_string(eaGenerations);
    out += "\n";
    return out;
}

} // namespace obs
} // namespace scar
