#include "sched/evolutionary.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/error.h"

namespace scar
{

EvolutionaryWindowSearch::EvolutionaryWindowSearch(
    const CostDb& db, OptTarget target, WindowSearchOptions schedOpts,
    EvoOptions evoOpts)
    : db_(db), target_(target), scheduler_(db, target, schedOpts),
      evo_(evoOpts), counters_(schedOpts.counters)
{
    SCAR_REQUIRE(evo_.population >= 2, "population must be >= 2");
    SCAR_REQUIRE(evo_.generations >= 1, "generations must be >= 1");
    SCAR_REQUIRE(evo_.eliteCount < evo_.population,
                 "elite count must be below population");
}

EvolutionaryWindowSearch::Genome
EvolutionaryWindowSearch::randomGenome(const std::vector<int>& present,
                                       const WindowAssignment& wa,
                                       const NodeAllocation& nodes,
                                       Rng& rng) const
{
    Genome genome;
    for (int m : present) {
        const int layers = wa.perModel[m].size();
        const int maxSegs = std::min(nodes[m], layers);
        const int numSegs = rng.uniformInt(1, maxSegs);
        std::set<int> picks;
        while (static_cast<int>(picks.size()) < numSegs - 1)
            picks.insert(rng.uniformInt(0, layers - 2));
        genome.emplace_back(picks.begin(), picks.end());
    }
    return genome;
}

void
EvolutionaryWindowSearch::mutate(Genome& genome,
                                 const std::vector<int>& present,
                                 const WindowAssignment& wa,
                                 const NodeAllocation& nodes,
                                 Rng& rng) const
{
    for (std::size_t i = 0; i < genome.size(); ++i) {
        if (!rng.chance(evo_.mutationProb))
            continue;
        const int m = present[i];
        const int layers = wa.perModel[m].size();
        const int maxSplits = std::min(nodes[m], layers) - 1;
        std::set<int> splits(genome[i].begin(), genome[i].end());
        const int op = rng.uniformInt(0, 2);
        if (op == 0 && static_cast<int>(splits.size()) < maxSplits &&
            layers >= 2) {
            splits.insert(rng.uniformInt(0, layers - 2));
        } else if (op == 1 && !splits.empty()) {
            auto it = splits.begin();
            std::advance(it, rng.index(splits.size()));
            splits.erase(it);
        } else if (!splits.empty() && layers >= 2) {
            auto it = splits.begin();
            std::advance(it, rng.index(splits.size()));
            const int moved =
                std::clamp(*it + (rng.chance(0.5) ? 1 : -1), 0,
                           layers - 2);
            splits.erase(it);
            splits.insert(moved);
        }
        genome[i].assign(splits.begin(), splits.end());
    }
}

std::vector<Segmentation>
EvolutionaryWindowSearch::decode(const Genome& genome,
                                 const std::vector<int>& present,
                                 const WindowAssignment& wa) const
{
    std::vector<Segmentation> segs;
    for (std::size_t i = 0; i < genome.size(); ++i) {
        const LayerRange& range = wa.perModel[present[i]];
        Segmentation seg;
        int first = range.first;
        for (int gap : genome[i]) {
            seg.segments.push_back(LayerRange{first, range.first + gap});
            first = range.first + gap + 1;
        }
        seg.segments.push_back(LayerRange{first, range.last});
        segs.push_back(std::move(seg));
    }
    return segs;
}

WindowScheduler::Result
EvolutionaryWindowSearch::search(const WindowAssignment& wa,
                                 const NodeAllocation& nodes,
                                 std::uint64_t seed,
                                 const std::vector<int>& entry) const
{
    const std::vector<int> present = WindowScheduler::presentModels(wa);
    SCAR_REQUIRE(!present.empty(), "window has no layers to schedule");

    Rng rng(mixSeed(seed, 0x5EEDuLL));

    struct Individual
    {
        Genome genome;
        double fitness = std::numeric_limits<double>::infinity();
        WindowScheduler::Result result;
    };

    // Seed the population: top-1 ranked segmentation + random genomes.
    std::vector<Individual> population;
    {
        Individual seeded;
        Rng seedRng(1);
        for (int m : present) {
            SegmentationOptions segOpts;
            segOpts.topK = 1;
            const auto ranked =
                rankSegmentations(db_, m, wa.perModel[m], nodes[m],
                                  target_, segOpts, seedRng);
            std::vector<int> splits;
            const LayerRange& range = wa.perModel[m];
            for (std::size_t k = 0;
                 k + 1 < ranked.front().segments.size(); ++k) {
                splits.push_back(ranked.front().segments[k].last -
                                 range.first);
            }
            seeded.genome.push_back(std::move(splits));
        }
        population.push_back(std::move(seeded));
    }
    while (static_cast<int>(population.size()) < evo_.population) {
        Individual ind;
        ind.genome = randomGenome(present, wa, nodes, rng);
        population.push_back(std::move(ind));
    }

    // Fitness evaluation (beam placement + full window evaluation)
    // carries no RNG; the shared solo-cost cache only memoizes
    // deterministic values. Candidate lists merge in population index
    // order.
    WindowScheduler::Result global;
    WindowScheduler::SoloCache soloCache;
    // The EA re-places thousands of genomes on the same topology, so
    // one shared path memo serves the whole run (deterministic
    // values; see PathCache).
    PathCache pathCache;
    pathCache.setCounters(counters_);
    auto evaluate = [&](Individual& ind) {
        ind.result = scheduler_.placeSegmentations(
            present, decode(ind.genome, present, wa), entry, &soloCache,
            &pathCache);
        ind.fitness = ind.result.found
                          ? ind.result.best.score
                          : std::numeric_limits<double>::infinity();
        if (ind.result.found) {
            global.top.insert(global.top.end(), ind.result.top.begin(),
                              ind.result.top.end());
        }
    };
    for (Individual& ind : population)
        evaluate(ind);

    auto byFitness = [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
    };

    for (int gen = 1; gen < evo_.generations; ++gen) {
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::eaGenerations);
        std::stable_sort(population.begin(), population.end(),
                         byFitness);
        std::vector<Individual> next(
            population.begin(), population.begin() + evo_.eliteCount);
        auto tournament = [&]() -> const Individual& {
            const Individual& a = population[rng.index(population.size())];
            const Individual& b = population[rng.index(population.size())];
            return a.fitness < b.fitness ? a : b;
        };
        // Selection/crossover/mutation only read the previous
        // generation's fitness, so all children are bred first (one
        // serial RNG stream) and evaluated as one batch.
        while (static_cast<int>(next.size()) < evo_.population) {
            Individual child;
            child.genome = tournament().genome;
            if (rng.chance(evo_.crossoverProb)) {
                const Individual& other = tournament();
                for (std::size_t i = 0; i < child.genome.size(); ++i) {
                    if (rng.chance(0.5))
                        child.genome[i] = other.genome[i];
                }
            }
            mutate(child.genome, present, wa, nodes, rng);
            next.push_back(std::move(child));
        }
        for (std::size_t i = evo_.eliteCount; i < next.size(); ++i)
            evaluate(next[i]);
        population = std::move(next);
    }

    if (global.top.empty())
        return global;
    std::stable_sort(global.top.begin(), global.top.end(),
                     [](const ScoredPlacement& a,
                        const ScoredPlacement& b) {
                         return a.score < b.score;
                     });
    global.best = global.top.front();
    global.found = true;
    return global;
}

} // namespace scar
