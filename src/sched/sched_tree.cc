#include "sched/sched_tree.h"

#include <algorithm>

#include "common/error.h"
#include "cost/window_evaluator.h"

namespace scar
{

namespace
{

void
dfs(const Topology& topo, int node, int remaining,
    std::vector<bool>& visited, std::vector<int>& path, int maxPaths,
    std::vector<std::vector<int>>& out)
{
    if (static_cast<int>(out.size()) >= maxPaths)
        return;
    path.push_back(node);
    visited[node] = true;
    if (remaining == 1) {
        out.push_back(path);
    } else {
        for (int next : topo.neighbors(node)) {
            if (!visited[next])
                dfs(topo, next, remaining - 1, visited, path, maxPaths,
                    out);
        }
    }
    visited[node] = false;
    path.pop_back();
}

/**
 * Enumerates once for PathCache::get() and checks every path the way
 * WindowEvaluator::evaluate() checks a placement's chiplets: the
 * solo costing prices these paths unchecked.
 */
std::shared_ptr<const PathCache::PathList>
enumerateChecked(const Topology& topo, int length,
                 const std::vector<bool>& blocked, int maxTotal)
{
    auto paths = std::make_shared<const PathCache::PathList>(
        enumeratePathsAllRoots(topo, length, blocked, maxTotal));
    for (const std::vector<int>& path : *paths)
        validatePath(path, topo.numNodes());
    return paths;
}

} // namespace

std::vector<std::vector<int>>
enumeratePaths(const Topology& topo, int root, int length,
               const std::vector<bool>& blocked, int maxPaths)
{
    SCAR_REQUIRE(length >= 1, "path length must be >= 1");
    SCAR_REQUIRE(static_cast<int>(blocked.size()) == topo.numNodes(),
                 "blocked mask arity mismatch");
    std::vector<std::vector<int>> out;
    if (blocked[root])
        return out;
    std::vector<bool> visited = blocked;
    std::vector<int> path;
    dfs(topo, root, length, visited, path, maxPaths, out);
    return out;
}

std::vector<std::vector<int>>
enumeratePathsAllRoots(const Topology& topo, int length,
                       const std::vector<bool>& blocked, int maxTotal)
{
    std::vector<int> roots;
    for (int n = 0; n < topo.numNodes(); ++n) {
        if (!blocked[n])
            roots.push_back(n);
    }
    std::vector<std::vector<int>> out;
    if (roots.empty())
        return out;
    const int perRoot =
        std::max(1, maxTotal / static_cast<int>(roots.size()));
    for (int root : roots) {
        if (static_cast<int>(out.size()) >= maxTotal)
            break;
        const int budget = std::min(
            perRoot, maxTotal - static_cast<int>(out.size()));
        auto paths = enumeratePaths(topo, root, length, blocked, budget);
        out.insert(out.end(), paths.begin(), paths.end());
    }
    return out;
}

std::shared_ptr<const PathCache::PathList>
PathCache::get(const Topology& topo, int length,
               const std::vector<bool>& blocked, int maxTotal)
{
    if (topo.numNodes() > 64) {
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::pathMisses);
        return enumerateChecked(topo, length, blocked, maxTotal);
    }

    Key key;
    key.length = length;
    for (int n = 0; n < topo.numNodes(); ++n) {
        if (blocked[n])
            key.blockedMask |= std::uint64_t{1} << n;
    }

    SCAR_ASSERT(topo_ == nullptr || topo_ == &topo,
                "PathCache shared across different topologies");
    SCAR_ASSERT(maxTotal_ < 0 || maxTotal_ == maxTotal,
                "PathCache shared across different maxTotal caps");
    topo_ = &topo;
    maxTotal_ = maxTotal;
    if (const auto* cached = map_.find(key)) {
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::pathHits);
        return *cached;
    }
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::pathMisses);
    return map_.insert(key,
                       enumerateChecked(topo, length, blocked, maxTotal));
}

} // namespace scar
