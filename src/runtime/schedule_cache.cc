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

std::shared_ptr<const CachedSchedule>
repeatSchedule(const std::shared_ptr<const CachedSchedule>& step,
               int times)
{
    SCAR_REQUIRE(step != nullptr, "repeatSchedule: null step schedule");
    SCAR_REQUIRE(times >= 1, "repeatSchedule: times must be >= 1");
    if (times == 1)
        return step;
    auto entry = std::make_shared<CachedSchedule>();
    entry->mix = step->mix;
    entry->result = step->result;
    const std::size_t perStep = step->windowSec.size();
    entry->windowSec.reserve(perStep * static_cast<std::size_t>(times));
    // Sequential summation, matching both buildReplayView and the
    // executor's boundary walk bit-for-bit.
    entry->makespanSec = 0.0;
    for (int t = 0; t < times; ++t) {
        for (const double sec : step->windowSec) {
            entry->windowSec.push_back(sec);
            entry->makespanSec += sec;
        }
    }
    entry->lastWindow.assign(
        step->lastWindow.size(),
        static_cast<int>(perStep) * times - 1);
    return entry;
}

} // namespace runtime
} // namespace scar
