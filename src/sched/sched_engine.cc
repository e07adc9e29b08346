#include "sched/sched_engine.h"
#include <functional>
#include <limits>
#include <optional>
#include <set>

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"
#include "sched/sched_tree.h"

namespace scar
{

namespace
{

/** Evaluator options for the cheap per-model beam scoring. */
EvaluatorOptions
soloOptions(const EvaluatorOptions& base)
{
    EvaluatorOptions opts = base;
    opts.contention = false;
    opts.dramRoofline = false;
    return opts;
}

/** Two ints packed into one 64-bit hash word. */
std::uint64_t
packPair(int hi, int lo)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi))
            << 32) |
           static_cast<std::uint32_t>(lo);
}

} // namespace

WindowScheduler::SoloCache::Key
WindowScheduler::SoloCache::makeKey(int model, int entry,
                                    const Segmentation& seg,
                                    const std::vector<int>& path)
{
    std::uint64_t h = mixBits(packPair(model, entry) ^
                              (static_cast<std::uint64_t>(path.size())
                               << 48));
    for (std::size_t k = 0; k < path.size(); ++k)
        h = mixBits(h ^ packPair(seg.segments[k].last, path[k]));
    return Key{model, entry, seg, path, static_cast<std::uint32_t>(h)};
}

WindowScheduler::SoloCache::SoloCache()
{
    map_.reserve(kReservedKeys);
    arena_.reserve(kReservedKeys * 4);
}

bool
WindowScheduler::SoloCache::matches(const StoredKey& stored,
                                    const Key& key) const
{
    if (stored.hash != key.hash)
        return false;
    const int* ints = arena_.data() + stored.offset;
    const std::size_t n = key.path.size();
    if (ints[0] != key.model || ints[1] != key.entry ||
        ints[2] != static_cast<int>(n))
        return false;
    const int* ends = ints + 3;
    const int* path = ends + n;
    for (std::size_t k = 0; k < n; ++k) {
        if (ends[k] != key.seg.segments[k].last || path[k] != key.path[k])
            return false;
    }
    return true;
}

const WindowScheduler::SoloCache::Value*
WindowScheduler::SoloCache::find(const Key& key) const
{
    return map_.find(key.hash, [&](const StoredKey& stored) {
        return matches(stored, key);
    });
}

void
WindowScheduler::SoloCache::insert(const Key& key, const Value& value)
{
    const std::size_t n = key.path.size();
    SCAR_ASSERT(arena_.size() + 3 + 2 * n <=
                    std::numeric_limits<std::uint32_t>::max(),
                "solo memo arena exceeds 32-bit offsets");
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(key.model);
    arena_.push_back(key.entry);
    arena_.push_back(static_cast<int>(n));
    for (const LayerRange& r : key.seg.segments)
        arena_.push_back(r.last);
    arena_.insert(arena_.end(), key.path.begin(), key.path.end());
    map_.insert(StoredKey{key.hash, offset}, value);
}

WindowScheduler::WindowScheduler(const CostDb& db, OptTarget target,
                                 WindowSearchOptions opts)
    : db_(db), target_(target), opts_(opts),
      fullEval_(db, opts.eval), soloEval_(db, soloOptions(opts.eval))
{
    SCAR_REQUIRE(opts_.beamWidth >= 1, "beam width must be >= 1");
    SCAR_REQUIRE(opts_.maxPathsPerModel >= 1, "need >= 1 path candidate");
    SCAR_REQUIRE(opts_.maxCombos >= 1, "need >= 1 combo");
}

std::vector<int>
WindowScheduler::presentModels(const WindowAssignment& wa)
{
    std::vector<int> present;
    for (std::size_t m = 0; m < wa.perModel.size(); ++m) {
        if (!wa.perModel[m].empty())
            present.push_back(static_cast<int>(m));
    }
    return present;
}

double
WindowScheduler::score(const WindowCost& cost) const
{
    const Metrics metrics{cyclesToSeconds(cost.latencyCycles),
                          njToJoules(cost.energyNj)};
    return metrics.value(target_);
}

double
WindowScheduler::partialScore(double maxLatency, double sumEnergy) const
{
    switch (target_) {
      case OptTarget::Latency: return maxLatency;
      case OptTarget::Energy:  return sumEnergy;
      case OptTarget::Edp:     return maxLatency * sumEnergy;
    }
    return maxLatency * sumEnergy;
}

std::pair<double, double>
WindowScheduler::soloCost(int model, const Segmentation& seg,
                          const std::vector<int>& path, int entry,
                          SoloCache& cache) const
{
    SCAR_ASSERT(path.size() == seg.segments.size(),
                "path length != segment count");
    const SoloCache::Key key = SoloCache::makeKey(model, entry, seg, path);
    if (const auto* cached = cache.find(key)) {
        obs::SearchCounters::bump(opts_.counters,
                                  &obs::SearchCounters::soloHits);
        return *cached;
    }
    obs::SearchCounters::bump(opts_.counters,
                              &obs::SearchCounters::soloMisses);

    ModelPlacement& mp = cache.scratch();
    mp.modelIdx = model;
    mp.segments.resize(path.size());
    for (std::size_t k = 0; k < path.size(); ++k)
        mp.segments[k] = PlacedSegment{seg.segments[k], path[k]};

    // Solo fast path: one model, contention-free — skips flow
    // enumeration and the final re-evaluation while returning the
    // same two scalars bit-for-bit (pinned in tests/test_cost.cc).
    // Unchecked: the segmentation was validated where the search made
    // it, and the path where PathCache enumerated it.
    const SoloWindowCost cost = soloEval_.evaluateSoloUnchecked(mp, entry);
    const std::pair<double, double> result{cost.latencyCycles,
                                           cost.energyNj};
    cache.insert(key, result);
    return result;
}

std::vector<Segmentation>
WindowScheduler::refineSegmentations(int model,
                                     std::vector<Segmentation> pruned,
                                     int entry, SoloCache& cache,
                                     PathCache& pathCache) const
{
    const Topology& topo = db_.mcm().topology();
    const std::vector<bool> noneBlocked(topo.numNodes(), false);
    // Every combo this search places draws its segmentations from
    // this list, so checking it here checks them all once.
    for (const Segmentation& seg : pruned)
        validateSegmentation(db_.scenario(), model, seg.segments);

    // Score every candidate by index so the ranking below sees a
    // fixed order.
    std::vector<double> bestScore(
        pruned.size(), std::numeric_limits<double>::infinity());
    std::vector<char> placeable(pruned.size(), 0);
    for (std::size_t i = 0; i < pruned.size(); ++i) {
        const int numSegs = pruned[i].numSegments();
        const auto paths = pathCache.get(
            topo, numSegs, noneBlocked, opts_.maxPathsPerModel);
        double best = std::numeric_limits<double>::infinity();
        for (const auto& path : *paths) {
            const auto [lat, energy] =
                soloCost(model, pruned[i], path, entry, cache);
            const Metrics metrics{cyclesToSeconds(lat),
                                  njToJoules(energy)};
            best = std::min(best, metrics.value(target_));
        }
        bestScore[i] = best;
        placeable[i] = paths->empty() ? 0 : 1;
    }

    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t i = 0; i < pruned.size(); ++i) {
        if (placeable[i])
            scored.emplace_back(bestScore[i], i);
    }
    std::sort(scored.begin(), scored.end());

    // Keep the best candidate of every segment count first (the
    // placement step may not be able to realize the preferred count on
    // the chiplets left by other models), then fill by pure score.
    std::vector<Segmentation> top;
    std::set<int> countsSeen;
    std::vector<bool> taken(pruned.size(), false);
    for (const auto& [score, idx] : scored) {
        const int count = pruned[idx].numSegments();
        if (countsSeen.insert(count).second) {
            top.push_back(pruned[idx]);
            taken[idx] = true;
        }
    }
    for (const auto& [score, idx] : scored) {
        if (static_cast<int>(top.size()) >=
            std::max<int>(opts_.seg.topK,
                          static_cast<int>(countsSeen.size())))
            break;
        if (!taken[idx]) {
            top.push_back(pruned[idx]);
            taken[idx] = true;
        }
    }
    return top;
}

void
WindowScheduler::placeCombo(const std::vector<int>& present,
                            const std::vector<Segmentation>& segs,
                            const std::vector<int>& entry,
                            SoloCache& cache, PathCache& pathCache,
                            Result& result) const
{
    const Topology& topo = db_.mcm().topology();
    obs::SearchCounters::bump(opts_.counters,
                              &obs::SearchCounters::combosPlaced);
    auto entryOf = [&](int model) {
        return model < static_cast<int>(entry.size()) ? entry[model] : -1;
    };

    // Place in decreasing segment-count order: the most constrained
    // models claim connected paths first.
    std::vector<std::size_t> order(present.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return segs[a].numSegments() > segs[b].numSegments();
              });

    std::vector<BeamState> beam(1);
    beam.front().used.assign(topo.numNodes(), false);

    for (std::size_t oi = 0; oi < order.size(); ++oi) {
        const std::size_t mi = order[oi];
        const int model = present[mi];
        const Segmentation& seg = segs[mi];
        const int numSegs = seg.numSegments();

        // Score every (state, path) extension first and materialize
        // only the beamWidth survivors: a BeamState copy is several
        // vector allocations, and the pre-PR loop paid it for every
        // candidate just to discard all but the top few. Candidates
        // are generated in (state, path) order and ranked with the
        // same stable sort and score as the materialized states were,
        // so the surviving beam is identical.
        struct Extension
        {
            double maxLatency;
            double sumEnergy;
            int stateIdx;
            int pathIdx;
        };
        std::vector<std::shared_ptr<const PathCache::PathList>>
            statePaths(beam.size());
        std::vector<Extension> candidates;
        for (std::size_t si = 0; si < beam.size(); ++si) {
            const BeamState& state = beam[si];
            statePaths[si] = pathCache.get(
                topo, numSegs, state.used, opts_.maxPathsPerModel);
            const auto& paths = *statePaths[si];
            for (std::size_t pi = 0; pi < paths.size(); ++pi) {
                const auto [lat, energy] = soloCost(
                    model, seg, paths[pi], entryOf(model), cache);
                candidates.push_back(
                    {std::max(state.maxLatency, lat),
                     state.sumEnergy + energy, static_cast<int>(si),
                     static_cast<int>(pi)});
            }
        }
        if (candidates.empty()) {
            debug("beam died placing model ", model, " with ", numSegs,
                  " segments");
            return;
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const Extension& a, const Extension& b) {
                             return partialScore(a.maxLatency,
                                                 a.sumEnergy) <
                                    partialScore(b.maxLatency,
                                                 b.sumEnergy);
                         });
        if (static_cast<int>(candidates.size()) > opts_.beamWidth)
            candidates.resize(opts_.beamWidth);

        std::vector<BeamState> next;
        next.reserve(candidates.size());
        for (const Extension& ext : candidates) {
            BeamState grown = beam[ext.stateIdx];
            const auto& path = (*statePaths[ext.stateIdx])[ext.pathIdx];
            for (int node : path)
                grown.used[node] = true;
            ModelPlacement mp;
            mp.modelIdx = model;
            mp.segments.reserve(numSegs);
            for (int k = 0; k < numSegs; ++k) {
                mp.segments.push_back(
                    PlacedSegment{seg.segments[k], path[k]});
            }
            grown.placed.push_back(std::move(mp));
            grown.maxLatency = ext.maxLatency;
            grown.sumEnergy = ext.sumEnergy;
            next.push_back(std::move(grown));
        }
        beam = std::move(next);
    }

    for (const BeamState& state : beam) {
        WindowPlacement placement;
        placement.models = state.placed;
        placement.entryChiplet.assign(db_.scenario().numModels(), -1);
        for (int m : present)
            placement.entryChiplet[m] = entryOf(m);
        ScoredPlacement scored;
        scored.cost = fullEval_.evaluate(placement);
        scored.score = score(scored.cost);
        scored.placement = std::move(placement);
        result.top.push_back(std::move(scored));
    }
}

WindowScheduler::Result
WindowScheduler::search(const WindowAssignment& wa,
                        const NodeAllocation& nodes, std::uint64_t seed,
                        const std::vector<int>& entry) const
{
    const std::vector<int> present = presentModels(wa);
    SCAR_REQUIRE(!present.empty(), "window has no layers to schedule");
    for (int m : present) {
        SCAR_REQUIRE(nodes[m] >= 1, "model ", m,
                     " present but allocated no nodes");
    }
    auto entryOf = [&](int model) {
        return model < static_cast<int>(entry.size()) ? entry[model] : -1;
    };

    // SEG (Heuristic 1): quick prune per model, then placement-aware
    // refinement keeping the top-k per model. Each model draws from
    // its own seed stream, so one model's capped-enumeration sampling
    // never shifts another's.
    SoloCache cache;
    PathCache pathCache;
    pathCache.setCounters(opts_.counters);
    std::vector<std::vector<Segmentation>> segLists;
    segLists.reserve(present.size());
    for (int m : present) {
        Rng segRng(mixSeed(seed, static_cast<std::uint64_t>(m)));
        auto pruned = rankSegmentations(db_, m, wa.perModel[m], nodes[m],
                                        target_, opts_.seg, segRng);
        segLists.push_back(refineSegmentations(m, std::move(pruned),
                                               entryOf(m), cache,
                                               pathCache));
        SCAR_ASSERT(!segLists.back().empty(),
                    "no segmentation candidates for model ", m);
    }

    // Combo enumeration ordered by total rank (best-first), capped.
    std::vector<std::vector<int>> combos;
    {
        // Breadth-first by rank sum: enumerate index vectors whose
        // component sum is s = 0, 1, 2, ... until the cap.
        int maxSum = 0;
        for (const auto& list : segLists)
            maxSum += static_cast<int>(list.size()) - 1;
        for (int s = 0;
             s <= maxSum &&
             static_cast<int>(combos.size()) < opts_.maxCombos;
             ++s) {
            std::vector<int> combo(segLists.size(), 0);
            // Recursive enumeration of fixed-sum index vectors.
            std::function<void(std::size_t, int)> rec =
                [&](std::size_t idx, int remaining) {
                    if (static_cast<int>(combos.size()) >=
                        opts_.maxCombos)
                        return;
                    if (idx + 1 == combo.size()) {
                        if (remaining <
                            static_cast<int>(segLists[idx].size())) {
                            combo[idx] = remaining;
                            combos.push_back(combo);
                        }
                        return;
                    }
                    const int limit = std::min(
                        remaining,
                        static_cast<int>(segLists[idx].size()) - 1);
                    for (int v = 0; v <= limit; ++v) {
                        combo[idx] = v;
                        rec(idx + 1, remaining - v);
                    }
                };
            rec(0, s);
        }
    }

    // Place each combo into its own result and merge in combo index
    // order, which the stable ranking below depends on.
    std::vector<Result> comboResults(combos.size());
    for (std::size_t ci = 0; ci < combos.size(); ++ci) {
        std::vector<Segmentation> segs;
        segs.reserve(combos[ci].size());
        for (std::size_t i = 0; i < combos[ci].size(); ++i)
            segs.push_back(segLists[i][combos[ci][i]]);
        placeCombo(present, segs, entry, cache, pathCache,
                   comboResults[ci]);
    }

    Result result;
    for (Result& cr : comboResults) {
        result.top.insert(result.top.end(),
                          std::make_move_iterator(cr.top.begin()),
                          std::make_move_iterator(cr.top.end()));
    }

    if (result.top.empty()) {
        // Fallback: one segment per model is always placeable when the
        // package has a free chiplet per model (paths of length 1).
        debug("window search fell back to single-segment placement");
        std::vector<Segmentation> segs;
        for (int m : present) {
            Segmentation seg;
            seg.segments.push_back(wa.perModel[m]);
            validateSegmentation(db_.scenario(), m, seg.segments);
            segs.push_back(std::move(seg));
        }
        placeCombo(present, segs, entry, cache, pathCache, result);
    }

    if (result.top.empty())
        return result;

    std::stable_sort(result.top.begin(), result.top.end(),
                     [](const ScoredPlacement& a,
                        const ScoredPlacement& b) {
                         return a.score < b.score;
                     });
    if (static_cast<int>(result.top.size()) > opts_.maxTopCandidates)
        result.top.resize(opts_.maxTopCandidates);
    result.best = result.top.front();
    result.found = true;
    return result;
}

WindowScheduler::Result
WindowScheduler::placeSegmentations(
    const std::vector<int>& presentModels,
    const std::vector<Segmentation>& segs,
    const std::vector<int>& entry, SoloCache* sharedSolo,
    PathCache* sharedPaths) const
{
    SCAR_REQUIRE(presentModels.size() == segs.size(), "got ",
                 segs.size(), " segmentations for ", presentModels.size(),
                 " models");
    for (std::size_t i = 0; i < segs.size(); ++i)
        validateSegmentation(db_.scenario(), presentModels[i],
                             segs[i].segments);
    Result result;
    std::optional<SoloCache> localCache;
    SoloCache& cache =
        sharedSolo != nullptr ? *sharedSolo : localCache.emplace();
    PathCache localPaths;
    localPaths.setCounters(opts_.counters);
    PathCache& paths = sharedPaths != nullptr ? *sharedPaths : localPaths;
    placeCombo(presentModels, segs, entry, cache, paths, result);
    if (result.top.empty())
        return result;
    std::stable_sort(result.top.begin(), result.top.end(),
                     [](const ScoredPlacement& a,
                        const ScoredPlacement& b) {
                         return a.score < b.score;
                     });
    if (static_cast<int>(result.top.size()) > opts_.maxTopCandidates)
        result.top.resize(opts_.maxTopCandidates);
    result.best = result.top.front();
    result.found = true;
    return result;
}

} // namespace scar
