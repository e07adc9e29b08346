#include "sched/provisioner.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace scar
{

namespace
{

/** Expected value of the target metric for a model's window layers. */
double
expectedWindowMetric(const WindowAssignment& wa, const CostDb& db,
                     OptTarget target, int model)
{
    const LayerRange& range = wa.perModel[model];
    if (range.empty())
        return 0.0;
    const int batch = db.scenario().models[model].batch;
    const std::vector<double>& cyclesRow = db.expectedCyclesRow(model);
    const std::vector<double>& energyRow = db.expectedEnergyNjRow(model);
    double cycles = 0.0;
    double energyNj = 0.0;
    for (int l = range.first; l <= range.last; ++l) {
        cycles += cyclesRow[l] * batch;
        energyNj += energyRow[l] * batch;
    }
    switch (target) {
      case OptTarget::Latency: return cycles;
      case OptTarget::Energy:  return energyNj;
      case OptTarget::Edp:
        return cyclesToSeconds(cycles) * njToJoules(energyNj);
    }
    return cycles;
}

/** Recursively enumerates allocations for the present models. */
void
enumerateAllocations(const std::vector<int>& present, int numChiplets,
                     int perModelCap, int maxCandidates,
                     std::vector<int>& current, std::size_t idx,
                     int used, int numModels,
                     std::vector<NodeAllocation>& out)
{
    if (maxCandidates > 0 &&
        static_cast<int>(out.size()) >= maxCandidates)
        return;
    if (idx == present.size()) {
        NodeAllocation alloc(numModels, 0);
        for (std::size_t i = 0; i < present.size(); ++i)
            alloc[present[i]] = current[i];
        out.push_back(std::move(alloc));
        return;
    }
    const int remainingModels = static_cast<int>(present.size() - idx) - 1;
    const int maxHere = std::min(perModelCap,
                                 numChiplets - used - remainingModels);
    for (int n = 1; n <= maxHere; ++n) {
        current[idx] = n;
        enumerateAllocations(present, numChiplets, perModelCap,
                             maxCandidates, current, idx + 1, used + n,
                             numModels, out);
    }
}

} // namespace

std::vector<NodeAllocation>
provisionNodes(const WindowAssignment& wa, const CostDb& db,
               OptTarget target, const ProvisionerOptions& opts)
{
    const int numModels = static_cast<int>(wa.perModel.size());
    const int numChiplets = db.mcm().numChiplets();

    std::vector<int> present;
    for (int m = 0; m < numModels; ++m) {
        if (!wa.perModel[m].empty())
            present.push_back(m);
    }
    SCAR_REQUIRE(!present.empty(), "window has no layers to provision");
    SCAR_REQUIRE(static_cast<int>(present.size()) <= numChiplets,
                 "more concurrent models (", present.size(),
                 ") than chiplets (", numChiplets, ")");

    const int cap = opts.maxNodesPerModel > 0
                        ? opts.maxNodesPerModel
                        : numChiplets;

    if (opts.mode == ProvisionerOptions::Mode::Exhaustive) {
        std::vector<NodeAllocation> out;
        std::vector<int> current(present.size(), 1);
        enumerateAllocations(present, numChiplets, cap,
                             opts.maxCandidates, current, 0, 0,
                             numModels, out);
        // The exhaustive candidate set is a superset of the rule's
        // allocation even when the enumeration cap truncates it.
        ProvisionerOptions ruleOpts = opts;
        ruleOpts.mode = ProvisionerOptions::Mode::Rule;
        NodeAllocation rule =
            provisionNodes(wa, db, target, ruleOpts).front();
        if (std::find(out.begin(), out.end(), rule) == out.end())
            out.push_back(std::move(rule));
        return out;
    }

    // Rule mode: Eq. 2 with floor 1, Heuristic-2 cap, and repair so the
    // allocations fit on the package.
    std::vector<double> expect(present.size(), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < present.size(); ++i) {
        expect[i] = expectedWindowMetric(wa, db, target, present[i]);
        total += expect[i];
    }

    NodeAllocation alloc(numModels, 0);
    for (std::size_t i = 0; i < present.size(); ++i) {
        const double share = total > 0.0 ? expect[i] / total
                                         : 1.0 / present.size();
        int nodes = static_cast<int>(std::lround(share * numChiplets));
        nodes = std::clamp(nodes, 1, cap);
        alloc[present[i]] = nodes;
    }

    // Repair: trim the largest allocations until they fit.
    int used = 0;
    for (int m : present)
        used += alloc[m];
    while (used > numChiplets) {
        int largest = present.front();
        for (int m : present) {
            if (alloc[m] > alloc[largest])
                largest = m;
        }
        SCAR_ASSERT(alloc[largest] > 1, "cannot repair node allocation");
        --alloc[largest];
        --used;
    }
    return {alloc};
}

} // namespace scar
