#include "sched/segmentation.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/units.h"
#include "cost/comm_model.h"

namespace scar
{

namespace
{

/**
 * Candidate split vectors stored back to back: candidate i's sorted
 * split gaps (split after gap g) are flat[start[i], start[i + 1]).
 * One growing array instead of a vector per candidate keeps the
 * enumeration free of per-candidate allocations.
 */
struct SplitList
{
    std::vector<int> flat;
    std::vector<std::size_t> start{0};

    std::size_t size() const { return start.size() - 1; }
    const int* splits(std::size_t i) const { return flat.data() + start[i]; }
    std::size_t numSplits(std::size_t i) const
    {
        return start[i + 1] - start[i];
    }

    /** Makes the gaps appended since the last candidate a candidate. */
    void commit() { start.push_back(flat.size()); }

    /** Drops the gaps appended since the last candidate. */
    void discard() { flat.resize(start.back()); }
};

/** Hash-set key naming a run of split gaps inside a SplitList. */
struct SplitKey
{
    const std::vector<int>* flat = nullptr;
    std::size_t first = 0;
    std::size_t n = 0;

    std::size_t size() const { return n; }
    const int* begin() const { return flat->data() + first; }
    const int* end() const { return begin() + n; }

    bool
    operator==(const SplitKey& other) const
    {
        return n == other.n && std::equal(begin(), end(), other.begin());
    }
};

/** Builds a segmentation from sorted split gaps (split after gap g). */
Segmentation
fromSplits(const LayerRange& range, const int* splits, std::size_t n)
{
    Segmentation seg;
    seg.segments.reserve(n + 1);
    int first = range.first;
    for (std::size_t k = 0; k < n; ++k) {
        seg.segments.push_back(LayerRange{first, range.first + splits[k]});
        first = range.first + splits[k] + 1;
    }
    seg.segments.push_back(LayerRange{first, range.last});
    return seg;
}

/** Balanced splits: numSegs equal-size parts. */
std::vector<int>
balancedSplits(int layers, int numSegs)
{
    std::vector<int> splits;
    for (int s = 1; s < numSegs; ++s)
        splits.push_back(s * layers / numSegs - 1);
    return splits;
}

/** Number of ways to choose `k` from `n`, saturating at a large cap. */
double
choose(int n, int k)
{
    double result = 1.0;
    for (int i = 0; i < k; ++i) {
        result *= static_cast<double>(n - i) / (i + 1);
        if (result > 1.0e12)
            return 1.0e12;
    }
    return result;
}

/**
 * Appends the sorted split gaps of every candidate, in the order
 * enumerateSegmentations returns them: segment counts ascending, each
 * count either fully enumerated in lexicographic order or, above the
 * cap, the balanced candidate followed by distinct random samples in
 * first-seen order.
 */
void
enumerateSplits(int layers, int maxSegs, int capPerCount, Rng& rng,
                SplitList& out)
{
    const int segLimit = std::min(maxSegs, layers);
    for (int numSegs = 1; numSegs <= segLimit; ++numSegs) {
        const int splitsNeeded = numSegs - 1;
        const std::size_t n = static_cast<std::size_t>(splitsNeeded);
        const int gaps = layers - 1;
        const double count = choose(gaps, splitsNeeded);

        if (count <= capPerCount) {
            // Full enumeration of split combinations.
            std::vector<int> splits(splitsNeeded);
            for (int i = 0; i < splitsNeeded; ++i)
                splits[i] = i;
            while (true) {
                out.flat.insert(out.flat.end(), splits.begin(),
                                splits.end());
                out.commit();
                // Next combination in lexicographic order.
                int i = splitsNeeded - 1;
                while (i >= 0 && splits[i] == gaps - splitsNeeded + i)
                    --i;
                if (i < 0)
                    break;
                ++splits[i];
                for (int j = i + 1; j < splitsNeeded; ++j)
                    splits[j] = splits[j - 1] + 1;
            }
        } else {
            debug("segmentation enumeration capped: C(", gaps, ",",
                  splitsNeeded, ") > ", capPerCount);
            FlatHashMap<SplitKey, char, IntSequenceHash> seen;
            seen.reserve(static_cast<std::size_t>(std::max(capPerCount, 1)));
            // Always include the balanced candidate.
            const std::vector<int> balanced =
                balancedSplits(layers, numSegs);
            const std::size_t balancedFirst = out.flat.size();
            out.flat.insert(out.flat.end(), balanced.begin(),
                            balanced.end());
            seen.insert(SplitKey{&out.flat, balancedFirst, n}, 0);
            out.commit();
            int distinct = 1;
            int attempts = 0;
            while (distinct < capPerCount && attempts < capPerCount * 4) {
                ++attempts;
                // Draw splitsNeeded distinct gaps into the tail of the
                // list, kept sorted.
                const std::size_t first = out.flat.size();
                while (out.flat.size() - first < n) {
                    const int gap = rng.uniformInt(0, gaps - 1);
                    const auto at = std::lower_bound(
                        out.flat.begin() + first, out.flat.end(), gap);
                    if (at == out.flat.end() || *at != gap)
                        out.flat.insert(at, gap);
                }
                const SplitKey key{&out.flat, first, n};
                if (seen.find(key) == nullptr) {
                    seen.insert(key, 0);
                    out.commit();
                    ++distinct;
                } else {
                    out.discard();
                }
            }
        }
    }
}

/**
 * The quick score with the per-model constants hoisted: one instance
 * scores every candidate of a ranking.
 */
class QuickScorer
{
  public:
    QuickScorer(const CostDb& db, int model, OptTarget target)
        : model_(db.scenario().models[model]),
          cycles_(db.expectedCyclesRow(model)),
          energyNj_(db.expectedEnergyNjRow(model)),
          batch_(model_.batch),
          nopPjPerBit_(db.mcm().params().nopEnergyPjPerBit),
          target_(target)
    {
        const CommModel comm(db.mcm());
        nopBytesPerCycle_ = comm.nopBytesPerCycle();
        hopLatencyCycles_ = comm.hopLatencyCycles();
    }

    /** Scores `numSegs` contiguous segments; rangeAt(k) is the k-th. */
    template <typename RangeAt>
    double
    score(std::size_t numSegs, RangeAt rangeAt) const
    {
        double sumCycles = 0.0;
        double maxSeg = 0.0;
        double energyNj = 0.0;
        int prevLast = -1;
        for (std::size_t k = 0; k < numSegs; ++k) {
            const LayerRange r = rangeAt(k);
            double cycles = 0.0;
            for (int l = r.first; l <= r.last; ++l) {
                cycles += cycles_[l];
                energyNj += energyNj_[l] * batch_;
            }
            // 1-hop NoP handoff into this segment (placement-free
            // proxy).
            if (k > 0) {
                const double bytes = model_.layers[prevLast].outputBytes();
                cycles += bytes / nopBytesPerCycle_ + hopLatencyCycles_;
                energyNj += pjToNj(bytes * 8.0 * nopPjPerBit_) * batch_;
            }
            prevLast = r.last;
            sumCycles += cycles;
            maxSeg = std::max(maxSeg, cycles);
        }
        const double latCycles = sumCycles + (batch_ - 1) * maxSeg;
        const Metrics metrics{cyclesToSeconds(latCycles),
                              njToJoules(energyNj)};
        return metrics.value(target_);
    }

    /** Scores the segmentation that `n` split gaps make of `range`. */
    double
    score(const LayerRange& range, const int* splits, std::size_t n) const
    {
        return score(n + 1, [&](std::size_t k) {
            return LayerRange{
                k == 0 ? range.first : range.first + splits[k - 1] + 1,
                k < n ? range.first + splits[k] : range.last};
        });
    }

  private:
    const Model& model_;
    const std::vector<double>& cycles_;
    const std::vector<double>& energyNj_;
    int batch_;
    double nopPjPerBit_;
    OptTarget target_;
    double nopBytesPerCycle_ = 0.0;
    double hopLatencyCycles_ = 0.0;
};

} // namespace

std::vector<Segmentation>
enumerateSegmentations(const LayerRange& range, int maxSegs,
                       int capPerCount, Rng& rng)
{
    SCAR_REQUIRE(!range.empty(), "cannot segment an empty range");
    SCAR_REQUIRE(maxSegs >= 1, "need at least one segment");
    SplitList splits;
    enumerateSplits(range.size(), maxSegs, capPerCount, rng, splits);
    std::vector<Segmentation> out;
    out.reserve(splits.size());
    for (std::size_t i = 0; i < splits.size(); ++i)
        out.push_back(fromSplits(range, splits.splits(i),
                                 splits.numSplits(i)));
    return out;
}

double
quickScore(const CostDb& db, int model, const Segmentation& seg,
           OptTarget target)
{
    return QuickScorer(db, model, target)
        .score(seg.segments.size(),
               [&](std::size_t k) { return seg.segments[k]; });
}

std::vector<Segmentation>
rankSegmentations(const CostDb& db, int model, const LayerRange& range,
                  int maxSegs, OptTarget target,
                  const SegmentationOptions& opts, Rng& rng)
{
    SCAR_REQUIRE(!range.empty(), "cannot segment an empty range");
    SCAR_REQUIRE(maxSegs >= 1, "need at least one segment");
    SplitList candidates;
    enumerateSplits(range.size(), maxSegs, opts.enumCapPerCount, rng,
                    candidates);

    // Score each candidate once; ties keep enumeration order.
    const QuickScorer scorer(db, model, target);
    std::vector<std::pair<double, std::size_t>> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        scored.emplace_back(scorer.score(range, candidates.splits(i),
                                         candidates.numSplits(i)),
                            i);
    }

    // Per-segment-count diversity: always keep each count's best, in
    // (score, index) order.
    using Scored = std::pair<double, std::size_t>;
    const std::size_t none = candidates.size();
    std::vector<Scored> bestOf(maxSegs + 1, Scored{0.0, none});
    for (const Scored& entry : scored) {
        Scored& best = bestOf[candidates.numSplits(entry.second) + 1];
        if (best.second == none || entry < best)
            best = entry;
    }
    std::vector<Scored> picked;
    for (const Scored& best : bestOf) {
        if (best.second != none)
            picked.push_back(best);
    }
    std::sort(picked.begin(), picked.end());

    // Fill up to pruneK with the best remaining candidates. At most
    // picked.size() of the pruneK best are taken already, so the
    // sorted head of length pruneK holds every candidate this adds.
    const std::size_t head = std::min<std::size_t>(
        scored.size(), static_cast<std::size_t>(std::max(opts.pruneK, 0)));
    std::partial_sort(scored.begin(), scored.begin() + head, scored.end());
    for (std::size_t i = 0; i < head; ++i) {
        if (static_cast<int>(picked.size()) >= opts.pruneK)
            break;
        const Scored& entry = scored[i];
        const Scored& best =
            bestOf[candidates.numSplits(entry.second) + 1];
        if (best.second != entry.second)
            picked.push_back(entry);
    }

    // Re-sort the picked set by score so callers see best-first order.
    std::sort(picked.begin(), picked.end(),
              [](const Scored& a, const Scored& b) {
                  return a.first < b.first;
              });

    std::vector<Segmentation> top;
    top.reserve(picked.size());
    for (const Scored& entry : picked) {
        top.push_back(fromSplits(range, candidates.splits(entry.second),
                                 candidates.numSplits(entry.second)));
    }
    return top;
}

} // namespace scar
