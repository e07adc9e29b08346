#include "sched/greedy_packing.h"

#include <algorithm>

#include "common/error.h"

namespace scar
{

double
expectedModelCycles(const CostDb& db, int model)
{
    double total = 0.0;
    for (const double cycles : db.expectedCyclesRow(model))
        total += cycles;
    return total * db.scenario().models[model].batch;
}

namespace
{

WindowPlan
packGreedy(const CostDb& db, int nsplits)
{
    const Scenario& sc = db.scenario();
    const int numModels = sc.numModels();
    const int numWindows = nsplits + 1;

    // Time horizon: the worst-case expected model latency.
    double horizon = 0.0;
    for (int m = 0; m < numModels; ++m)
        horizon = std::max(horizon, expectedModelCycles(db, m));

    // Periodic cumulative boundaries rho[w].
    std::vector<double> rho(numWindows);
    for (int w = 0; w < numWindows; ++w)
        rho[w] = horizon * (w + 1) / numWindows;

    WindowPlan plan;
    plan.windows.resize(numWindows);
    for (WindowAssignment& wa : plan.windows)
        wa.perModel.resize(numModels);

    for (int m = 0; m < numModels; ++m) {
        const Model& model = sc.models[m];
        const std::vector<double>& expectedRow = db.expectedCyclesRow(m);
        int winIdx = 0;
        double usedCycles = 0.0;
        int rangeFirst = 0;

        for (int l = 0; l < model.numLayers(); ++l) {
            const double expected = expectedRow[l] * model.batch;
            while (true) {
                const bool unbounded = winIdx >= numWindows - 1;
                const double slack =
                    unbounded ? 0.0 : rho[winIdx] - usedCycles;
                if (unbounded || expected <= slack) {
                    usedCycles += expected;
                    break;
                }
                // Close the current window for this model and defer
                // the layer to the next window (Algorithm 1 l.16-20).
                if (l > rangeFirst) {
                    plan.windows[winIdx].perModel[m] =
                        LayerRange{rangeFirst, l - 1};
                    rangeFirst = l;
                }
                usedCycles = rho[winIdx];
                ++winIdx;
            }
        }
        plan.windows[winIdx].perModel[m] =
            LayerRange{rangeFirst, model.numLayers() - 1};
    }
    return plan;
}

WindowPlan
packUniform(const CostDb& db, int nsplits)
{
    const Scenario& sc = db.scenario();
    const int numModels = sc.numModels();
    const int numWindows = nsplits + 1;

    WindowPlan plan;
    plan.windows.resize(numWindows);
    for (WindowAssignment& wa : plan.windows)
        wa.perModel.resize(numModels);

    for (int m = 0; m < numModels; ++m) {
        const int layers = sc.models[m].numLayers();
        int start = 0;
        for (int w = 0; w < numWindows; ++w) {
            const int count = layers / numWindows +
                              (w < layers % numWindows ? 1 : 0);
            if (count > 0) {
                plan.windows[w].perModel[m] =
                    LayerRange{start, start + count - 1};
                start += count;
            }
        }
    }
    return plan;
}

} // namespace

WindowPlan
packLayers(const CostDb& db, int nsplits, PackingPolicy policy)
{
    SCAR_REQUIRE(nsplits >= 0, "nsplits must be >= 0");
    WindowPlan plan = policy == PackingPolicy::GreedyFirstFit
                          ? packGreedy(db, nsplits)
                          : packUniform(db, nsplits);

    // Skip trivial windows with no workloads (Section IV-A).
    std::vector<WindowAssignment> kept;
    for (WindowAssignment& wa : plan.windows) {
        if (!wa.empty())
            kept.push_back(std::move(wa));
    }
    plan.windows = std::move(kept);

    plan.validate(db.scenario());
    return plan;
}

} // namespace scar
