#include "runtime/schedule_cache.h"

#include "common/error.h"
#include "common/units.h"

namespace scar
{
namespace runtime
{

void
buildReplayView(CachedSchedule& entry)
{
    entry.windowSec.clear();
    entry.lastWindow.assign(entry.mix.numModels(), -1);
    entry.makespanSec = 0.0;
    // The per-window durations come from the schedule's stable
    // boundary metadata — the same cut points the boundary preemptor
    // suspends and resumes at.
    for (const WindowBoundary& boundary : windowBoundaries(entry.result)) {
        // windowCycles (not endCycles - startCycles): the replay
        // durations must stay bit-identical to the pre-metadata code,
        // and a difference of cumulative sums is not.
        const double sec = cyclesToSeconds(boundary.windowCycles);
        entry.windowSec.push_back(sec);
        entry.makespanSec += sec;
        const ScheduledWindow& sw =
            entry.result.windows[boundary.windowIdx];
        for (const ModelPlacement& mp : sw.placement.models) {
            if (!mp.segments.empty())
                entry.lastWindow[mp.modelIdx] = boundary.windowIdx;
        }
    }
    for (int m = 0; m < entry.mix.numModels(); ++m)
        SCAR_REQUIRE(entry.lastWindow[m] >= 0,
                     "schedule for mix ", entry.mix.signature(),
                     " never places model ", entry.mix.models[m].name);
}

std::shared_ptr<const CachedSchedule>
makeCachedSchedule(const Scenario& mix, const ComputeFn& compute)
{
    auto entry = std::make_shared<CachedSchedule>();
    entry->mix = mix;
    entry->result = compute(mix);
    SCAR_REQUIRE(!entry->result.windows.empty(),
                 "schedule cache: compute returned an empty schedule ",
                 "for mix ", mix.signature());
    buildReplayView(*entry);
    return entry;
}

} // namespace runtime
} // namespace scar
