/**
 * @file
 * Minimal open-addressing hash map for the search hot path.
 *
 * The per-window search memoizes millions of small lookups (solo
 * segment costs, path enumerations) whose keys are short integer
 * sequences. `std::map` pays an ordered-tree walk with a full
 * lexicographic key comparison per node; `FlatHashMap` stores entries
 * in one flat array with linear probing, so a hit costs one hash and
 * (almost always) one probe. The map only grows — the memoization
 * caches never erase — which keeps probing tombstone-free.
 *
 * Not a general-purpose container: no erase, no iteration order
 * guarantees, keys and values must be movable, and not synchronized.
 * Determinism note: the caches built on this map store values that
 * are pure functions of their key, so lookup/insertion order can
 * never change what a query returns.
 */

#ifndef SCAR_COMMON_FLAT_HASH_H
#define SCAR_COMMON_FLAT_HASH_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace scar
{

/** splitmix64 finalizer: the 64-bit avalanche used for all hashing. */
inline std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15uLL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9uLL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebuLL;
    return x ^ (x >> 31);
}

/** Hash for small integer-sequence keys (e.g. std::vector<int>). */
struct IntSequenceHash
{
    template <typename Seq>
    std::uint64_t
    operator()(const Seq& seq) const
    {
        std::uint64_t h = mixBits(static_cast<std::uint64_t>(seq.size()));
        for (const auto v : seq)
            h = mixBits(h ^ static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(v)));
        return h;
    }
};

/**
 * Open-addressing (linear probing) hash map with power-of-two
 * capacity. Insert-only; rehashes at 7/8 load.
 */
template <typename Key, typename Value, typename Hash>
class FlatHashMap
{
  public:
    FlatHashMap() = default;

    std::size_t size() const { return size_; }

    /**
     * Sizes the table so `n` entries fill at most half of it. Linear
     * probing at the 7/8 growth threshold walks long runs on a miss;
     * a map whose final size is known up front can avoid that.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t capacity = 16;
        while (capacity < 2 * n)
            capacity *= 2;
        if (capacity > buckets_.size())
            rehash(capacity);
    }

    /** Pointer to the value for `key`, or nullptr when absent. */
    const Value*
    find(const Key& key) const
    {
        return find(hash_(key),
                    [&key](const Key& stored) { return stored == key; });
    }

    /**
     * Lookup by a probe that is never built as a `Key`: `hash` must be
     * what `Hash` returns for the matching stored key, and `matches`
     * tells whether a stored key is that match.
     * @return the matching value, or nullptr when absent
     */
    template <typename Matches>
    const Value*
    find(std::uint64_t hash, const Matches& matches) const
    {
        if (buckets_.empty())
            return nullptr;
        const std::size_t mask = buckets_.size() - 1;
        for (std::size_t i = static_cast<std::size_t>(hash) & mask;
             occupied_[i]; i = (i + 1) & mask) {
            if (matches(buckets_[i].first))
                return &buckets_[i].second;
        }
        return nullptr;
    }

    /**
     * Inserts (key, value) unless the key is already present.
     * @return the stored value (the existing one on duplicate keys).
     *         Unlike std::unordered_map, the reference is invalidated
     *         by any later insert (rehash moves the flat storage) —
     *         copy it out before inserting again.
     */
    const Value&
    insert(Key key, Value value)
    {
        if (buckets_.empty() ||
            (size_ + 1) * 8 > buckets_.size() * 7) {
            rehash(buckets_.empty() ? 16 : buckets_.size() * 2);
        }
        const std::size_t mask = buckets_.size() - 1;
        std::size_t i = static_cast<std::size_t>(hash_(key)) & mask;
        while (occupied_[i]) {
            if (buckets_[i].first == key)
                return buckets_[i].second;
            i = (i + 1) & mask;
        }
        occupied_[i] = 1;
        buckets_[i] = {std::move(key), std::move(value)};
        ++size_;
        return buckets_[i].second;
    }

  private:
    void
    rehash(std::size_t newCapacity)
    {
        std::vector<std::pair<Key, Value>> oldBuckets;
        std::vector<std::uint8_t> oldOccupied;
        oldBuckets.swap(buckets_);
        oldOccupied.swap(occupied_);
        buckets_.resize(newCapacity);
        occupied_.assign(newCapacity, 0);
        const std::size_t mask = newCapacity - 1;
        for (std::size_t b = 0; b < oldBuckets.size(); ++b) {
            if (!oldOccupied[b])
                continue;
            std::size_t i = static_cast<std::size_t>(
                                hash_(oldBuckets[b].first)) &
                            mask;
            while (occupied_[i])
                i = (i + 1) & mask;
            occupied_[i] = 1;
            buckets_[i] = std::move(oldBuckets[b]);
        }
    }

    std::vector<std::pair<Key, Value>> buckets_;
    std::vector<std::uint8_t> occupied_;
    std::size_t size_ = 0;
    Hash hash_;
};

} // namespace scar

#endif // SCAR_COMMON_FLAT_HASH_H
