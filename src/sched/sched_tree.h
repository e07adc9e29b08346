/**
 * @file
 * Scheduling-tree traversal (paper Section IV-D).
 *
 * A scheduling tree's nodes mirror chiplet resources; edges follow the
 * interposer adjacency; a node may appear once per tree (exclusive
 * occupancy). A model's candidate schedule is a simple path of length
 * = its segment count through currently unoccupied chiplets, found by
 * constrained depth-first search from a root chiplet.
 */

#ifndef SCAR_SCHED_SCHED_TREE_H
#define SCAR_SCHED_SCHED_TREE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/topology.h"
#include "common/flat_hash.h"
#include "obs/solve_profile.h"

namespace scar
{

/**
 * Enumerates simple paths of exactly `length` nodes starting at
 * `root`, avoiding nodes marked in `blocked`, up to `maxPaths` paths.
 * @return paths as node-id sequences (each of size `length`)
 */
std::vector<std::vector<int>> enumeratePaths(const Topology& topo,
                                             int root, int length,
                                             const std::vector<bool>& blocked,
                                             int maxPaths);

/**
 * Enumerates candidate paths from every unblocked root, capped at
 * `maxTotal` overall (caps are split across roots).
 */
std::vector<std::vector<int>> enumeratePathsAllRoots(
    const Topology& topo, int length, const std::vector<bool>& blocked,
    int maxTotal);

/**
 * Per-solve memo of enumeratePathsAllRoots results keyed by
 * (path length, blocked-node bitmask).
 *
 * The beam search re-enumerates paths for every beam state, and beam
 * states collapse onto few distinct (length, occupancy) keys — every
 * combo of a window search starts from the same empty package, and
 * most beams agree on which chiplets earlier models claimed. The
 * cached value is a pure function of the key (the DFS is
 * deterministic and RNG-free), so sharing one cache across the combos
 * of a window search — or across a whole EA run — cannot change any
 * result. Not synchronized: one cache belongs to one serial search.
 *
 * Topologies with more than 64 nodes don't fit the bitmask key and
 * bypass the cache (correct, just unmemoized).
 *
 * Every path is checked with validatePath() once, when get()
 * enumerates it (on both branches), so the search can price cached
 * paths without re-checking them.
 */
class PathCache
{
  public:
    using PathList = std::vector<std::vector<int>>;

    /**
     * The memoized enumeration for (length, blocked), computed on
     * miss. One cache serves one (topology, maxTotal) pair — the
     * topology and cap are pinned by the first get() and asserted on
     * every later call, since neither is part of the memo key.
     */
    std::shared_ptr<const PathList> get(const Topology& topo,
                                        int length,
                                        const std::vector<bool>& blocked,
                                        int maxTotal);

    /**
     * Attaches (or detaches, with nullptr) hit/miss counters for
     * profiled solves. Bitmask bypasses (> 64 nodes) count as misses.
     */
    void setCounters(obs::SearchCounters* counters)
    {
        counters_ = counters;
    }

  private:
    struct Key
    {
        std::uint64_t blockedMask = 0;
        int length = 0;

        bool
        operator==(const Key& other) const
        {
            return blockedMask == other.blockedMask &&
                   length == other.length;
        }
    };

    struct KeyHash
    {
        std::uint64_t
        operator()(const Key& key) const
        {
            return mixBits(key.blockedMask ^
                           (static_cast<std::uint64_t>(key.length)
                            << 56));
        }
    };

    FlatHashMap<Key, std::shared_ptr<const PathList>, KeyHash> map_;
    const Topology* topo_ = nullptr; ///< pinned by the first get()
    int maxTotal_ = -1;              ///< pinned by the first get()
    obs::SearchCounters* counters_ = nullptr; ///< profiled solves only
};

} // namespace scar

#endif // SCAR_SCHED_SCHED_TREE_H
