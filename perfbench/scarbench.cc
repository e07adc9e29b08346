/**
 * @file
 * The repository benchmark: three workloads, one process each, timed
 * end to end (--trace 0) or layer by layer (--trace 1).
 *
 *   scarbench --workload paper_solve|fleet_arvr|fleet_llm --seed N
 *             --seconds S --trace 0|1 [--spans PATH]
 *
 * Host load is a closed loop: the next solve or simulation starts
 * when the previous one returns, on the main thread plus at most a
 * 2-thread solve pool. Serving traffic is an open loop in virtual
 * time (Poisson arrivals; latency counts from the scheduled
 * arrival). Host time and virtual time are reported apart; every
 * virtual figure is a pure function of the seed.
 *
 * Every run checks its outputs (see checkSchedule / checkRecords);
 * failures count into the final line's "failed" field. The last
 * stdout line is one JSON object {correct, attempted, failed,
 * metrics}; lines before it start with "# " and carry host metadata,
 * the virtual-output digest and, in a traced run, each layer's self
 * time. Traced runs also write their spans to --spans.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "cost/cost_db.h"
#include "cost/window_evaluator.h"
#include "eval/reporter.h"
#include "eval/scenario_suite.h"
#include "obs/flight_recorder.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "runtime/serving_report.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace
{

using namespace scar;
using namespace scar::runtime;
using Clock = std::chrono::steady_clock;

/** Solve-pool concurrency of the serving workloads (caller + 1). */
constexpr int kSolvePool = 2;
/**
 * Set-ups at the start of a run. The workloads also set up again
 * after every timed item, so the median (setup_s) samples the whole
 * run rather than one moment of it: a 1 ms set-up is otherwise at the
 * mercy of whatever the host does in that millisecond.
 */
constexpr int kSetupReps = 5;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double>& v)
{
    double logSum = 0.0;
    for (const double x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0 : std::exp(logSum / v.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a over the exact bits of every virtual output. */
class Digest
{
  public:
    void add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double x)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        add(bits);
    }
    void add(long x) { add(static_cast<std::uint64_t>(x)); }
    void add(int x) { add(static_cast<std::uint64_t>(x)); }
    std::uint64_t value() const { return h_; }
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ------------------------------------------------------------ tracing

/**
 * In-memory span recorder. Span names are "<layer>.<call>"; a span's
 * parent is the innermost span open when it started. Disabled, open()
 * and close() do nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startMs = 0.0;
        double endMs = 0.0;
        int parent = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int open(const std::string& name)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.startMs = msSince(origin_);
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[id].endMs = msSince(origin_);
        stack_.pop_back();
    }

    /** Self time per layer: span time minus its children's time. */
    std::map<std::string, double> layerSelfMs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endMs - spans_[i].startMs;
        for (const Span& s : spans_)
            if (s.parent >= 0)
                self[s.parent] -= s.endMs - s.startMs;
        std::map<std::string, double> layers;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            layers[layerOf(spans_[i].name)] += self[i];
        return layers;
    }

    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "{\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"id\": " << i
                << ", \"name\": \"" << s.name << "\", \"start_ms\": "
                << s.startMs << ", \"end_ms\": " << s.endMs
                << ", \"parent\": " << s.parent << "}";
        }
        out << "],\n\"layer_self_ms\": {";
        bool first = true;
        for (const auto& [layer, ms] : layerSelfMs()) {
            out << (first ? "" : ", ") << "\"" << layer << "\": " << ms;
            first = false;
        }
        out << "}}\n";
        return static_cast<bool>(out);
    }

  private:
    static std::string layerOf(const std::string& name)
    {
        return name.substr(0, name.find('.'));
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.open(name))
    {}
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

// --------------------------------------------------------- run record

/** Everything one run reports. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::vector<std::string> notes;

    void metric(const std::string& name, double value,
                const std::string& unit)
    {
        metrics[name] = {value, unit};
    }
    void fail(long n, const std::string& why)
    {
        failed += n;
        if (errors.size() < 20)
            errors.push_back(why);
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

// ---------------------------------------------------- schedule checks

/**
 * Re-validates every returned window and checks that the window
 * costs add up to the schedule totals. WindowEvaluator::evaluate
 * validates a placement (ranges, exclusive chiplets) before pricing
 * it; the re-priced cost must reproduce the stored one bit for bit.
 * Also checks every layer of every model is placed exactly once.
 * Returns an empty string when the schedule is sound.
 */
std::string
checkSchedule(const Scenario& scenario, const Scar& scar,
              const ScheduleResult& result, Tracer& tracer,
              std::vector<double>* evalUs, std::vector<double>* soloUs)
{
    const WindowEvaluator full(scar.db());
    EvaluatorOptions soloOpts;
    soloOpts.contention = false;
    soloOpts.dramRoofline = false;
    const WindowEvaluator solo(scar.db(), soloOpts);

    std::vector<std::vector<int>> placed(scenario.models.size());
    for (std::size_t m = 0; m < scenario.models.size(); ++m)
        placed[m].assign(scenario.models[m].numLayers(), 0);

    double cycles = 0.0;
    double energyNj = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        WindowCost cost;
        {
            ScopedSpan span(tracer, "cost.window_eval");
            const auto t0 = Clock::now();
            cost = full.evaluate(sw.placement);
            if (evalUs)
                evalUs->push_back(msSince(t0) * 1000.0);
        }
        if (cost.latencyCycles != sw.cost.latencyCycles ||
            cost.energyNj != sw.cost.energyNj)
            return "window cost does not re-evaluate to its stored value";
        cycles += sw.cost.latencyCycles;
        energyNj += sw.cost.energyNj;

        for (const ModelPlacement& mp : sw.placement.models) {
            if (mp.modelIdx < 0 ||
                mp.modelIdx >= static_cast<int>(placed.size()))
                return "placement names an unknown model";
            for (const PlacedSegment& seg : mp.segments)
                for (int l = seg.range.first; l <= seg.range.last; ++l)
                    if (l >= 0 &&
                        l < static_cast<int>(placed[mp.modelIdx].size()))
                        ++placed[mp.modelIdx][l];
            if (soloUs) {
                WindowPlacement one;
                one.models.push_back(mp);
                one.entryChiplet = sw.placement.entryChiplet;
                ScopedSpan span(tracer, "cost.window_eval_solo");
                const auto t0 = Clock::now();
                const SoloWindowCost sc = solo.evaluateSolo(one);
                soloUs->push_back(msSince(t0) * 1000.0);
                if (!(sc.latencyCycles > 0.0))
                    return "solo window cost is not positive";
            }
        }
    }
    for (const auto& layers : placed)
        for (const int n : layers)
            if (n != 1)
                return "a layer is not placed exactly once";
    const Metrics sum{cyclesToSeconds(cycles), njToJoules(energyNj)};
    if (sum.latencySec != result.metrics.latencySec ||
        sum.energyJ != result.metrics.energyJ)
        return "window costs do not add up to the schedule metrics";
    if (!(result.metrics.edp() > 0.0))
        return "schedule EDP is not positive";
    return "";
}

void
digestSchedule(Digest& d, const ScheduleResult& r)
{
    d.add(r.metrics.latencySec);
    d.add(r.metrics.energyJ);
    for (const ScheduledWindow& sw : r.windows)
        for (const ModelPlacement& mp : sw.placement.models) {
            d.add(mp.modelIdx);
            for (const PlacedSegment& seg : mp.segments) {
                d.add(seg.range.first);
                d.add(seg.range.last);
                d.add(seg.chiplet);
            }
        }
}

/** One timed solve: cold table cache, Scar construction, run(). */
struct Solve
{
    double ctorMs = 0.0;
    double runMs = 0.0;
    obs::SolveProfile profile;
    CostDb::TableStats tables; ///< tableCacheTotals delta
    ScheduleResult result;
    std::string error; ///< empty when the schedule checked out
    std::vector<double> evalUs;
    std::vector<double> soloUs;

    double totalMs() const { return ctorMs + runMs; }
};

Solve
solveOnce(const Scenario& scenario, const Mcm& mcm, SearchMode mode,
          std::uint64_t seed, int threads, bool profiled, Tracer& tracer)
{
    Solve s;
    ScarOptions opts;
    opts.mode = mode;
    opts.seed = seed;
    opts.threads = threads;
    if (profiled)
        opts.profile = &s.profile;
    ScopedSpan root(tracer, "bench.solve");
    try {
        CostDb::clearTableCache();
        const CostDb::TableStats before = CostDb::tableCacheTotals();
        std::unique_ptr<Scar> scar;
        const auto t0 = Clock::now();
        {
            ScopedSpan span(tracer, "cost.db_build");
            scar = std::make_unique<Scar>(scenario, mcm, opts);
        }
        s.ctorMs = msSince(t0);
        const auto t1 = Clock::now();
        {
            ScopedSpan span(tracer, "sched.run");
            s.result = scar->run();
        }
        s.runMs = msSince(t1);
        const CostDb::TableStats after = CostDb::tableCacheTotals();
        s.tables.hits = after.hits - before.hits;
        s.tables.misses = after.misses - before.misses;
        s.error = checkSchedule(scenario, *scar, s.result, tracer,
                                tracer.enabled() ? &s.evalUs : nullptr,
                                tracer.enabled() ? &s.soloUs : nullptr);
    } catch (const std::exception& e) {
        s.error = e.what();
    }
    return s;
}

/** Per-layer solver figures aggregated over a set of solves. */
void
reportSolveLayers(Outcome& out, const std::vector<Solve>& solves,
                  const std::vector<Solve>& eaSolves, double speedup2t)
{
    std::vector<double> ctor, pack, prov, search, ea, evalUs, soloUs;
    long soloHits = 0, soloLookups = 0, pathHits = 0, pathLookups = 0;
    long evals = 0, range = 0, layer = 0, combos = 0, allocs = 0;
    long tableHits = 0, tableMisses = 0;
    for (const Solve& s : solves) {
        ctor.push_back(s.ctorMs);
        pack.push_back(s.profile.packMs);
        prov.push_back(s.profile.provisionMs);
        search.push_back(s.profile.searchMs);
        soloHits += s.profile.soloHits;
        soloLookups += s.profile.soloHits + s.profile.soloMisses;
        pathHits += s.profile.pathHits;
        pathLookups += s.profile.pathHits + s.profile.pathMisses;
        evals += s.profile.windowEvals;
        range += s.profile.costDbRangeQueries;
        layer += s.profile.costDbLayerQueries;
        combos += s.profile.combosPlaced;
        allocs += s.profile.allocationsSearched;
        tableHits += s.tables.hits;
        tableMisses += s.tables.misses;
        evalUs.insert(evalUs.end(), s.evalUs.begin(), s.evalUs.end());
        soloUs.insert(soloUs.end(), s.soloUs.begin(), s.soloUs.end());
    }
    for (const Solve& s : eaSolves)
        ea.push_back(s.profile.searchMs);
    const double n = std::max<std::size_t>(solves.size(), 1);
    out.metric("cost.db_build_ms", median(ctor), "ms");
    out.metric("cost.window_eval_us", median(evalUs), "us");
    out.metric("cost.window_eval_solo_us", median(soloUs), "us");
    out.metric("cost.window_evals", evals / n, "count");
    out.metric("cost.range_query_frac", ratio(range, range + layer),
               "fraction");
    out.metric("cost.table_hits", tableHits / n, "count");
    out.metric("cost.table_misses", tableMisses / n, "count");
    out.metric("sched.pack_ms", median(pack), "ms");
    out.metric("sched.provision_ms", median(prov), "ms");
    out.metric("sched.search_ms", median(search), "ms");
    out.metric("sched.ea_search_ms", median(ea), "ms");
    out.metric("sched.solo_hit_rate", ratio(soloHits, soloLookups),
               "fraction");
    out.metric("sched.path_hit_rate", ratio(pathHits, pathLookups),
               "fraction");
    out.metric("sched.combos_placed", combos / n, "count");
    out.metric("sched.allocations_searched", allocs / n, "count");
    out.metric("sched.fanout_speedup_2t", speedup2t, "x");
}

// ---------------------------------------------------- serving checks

/**
 * Checks one fleet run: every offered request completed, and per
 * record arrival <= dispatch <= first token <= completion (and, for
 * autoregressive requests, every output token generated). Returns
 * the number of requests that failed a check.
 */
long
checkRecords(const std::vector<Request>& trace,
             const std::vector<Request>& records,
             const ServingReport& report, bool llm,
             std::vector<std::string>& errors)
{
    long bad = 0;
    if (report.completed != report.offered ||
        report.offered != static_cast<long>(trace.size()) ||
        records.size() != trace.size()) {
        errors.push_back("completed != offered");
        bad += std::max<long>(static_cast<long>(trace.size()) -
                                  report.completed,
                              1);
    }
    for (const Request& r : records) {
        bool ok = r.completed() && r.dispatchSec >= r.arrivalSec &&
                  r.completionSec >= r.dispatchSec;
        if (llm)
            ok = ok && r.firstTokenSec >= r.dispatchSec &&
                 r.completionSec >= r.firstTokenSec &&
                 r.outputTokens >= 1 &&
                 r.generatedTokens == r.outputTokens;
        if (!ok) {
            ++bad;
            if (errors.size() < 20)
                errors.push_back("request " + std::to_string(r.id) +
                                 " violates causality or token count");
        }
    }
    return std::min<long>(bad, static_cast<long>(trace.size()));
}

/** First output of a request: its first token, else its completion. */
double
firstOutputSec(const Request& r)
{
    return r.firstTokenSec >= 0.0 ? r.firstTokenSec : r.completionSec;
}

std::uint64_t
digestRecords(const std::vector<Request>& records,
              const ServingReport& report)
{
    Digest d;
    for (const Request& r : records) {
        d.add(static_cast<std::uint64_t>(r.id));
        d.add(r.modelIdx);
        d.add(r.arrivalSec);
        d.add(r.dispatchSec);
        d.add(r.firstTokenSec);
        d.add(r.completionSec);
        d.add(r.generatedTokens);
    }
    d.add(report.dispatches);
    d.add(report.cache.misses);
    d.add(report.p99LatencySec);
    d.add(report.llmJoins);
    return d.value();
}

// ------------------------------------------------------------ workloads

/** The paper's schedules: Table III Sc1-Sc10 plus Sc4 on 6x6 (EA). */
struct PaperCase
{
    std::string label;
    Scenario scenario;
    Mcm mcm;
    SearchMode mode = SearchMode::BruteForce;
};

std::vector<PaperCase>
paperCases()
{
    std::vector<PaperCase> cases;
    const Mcm dc = templates::hetSides3x3();
    const Mcm arvr = templates::hetSides3x3(templates::kArvrPes);
    for (int idx = 1; idx <= 10; ++idx)
        cases.push_back({suite::scenarioLabel(idx), suite::byIndex(idx),
                         idx <= 5 ? dc : arvr, SearchMode::BruteForce});
    cases.push_back({"Sc4 on hetCross6x6 (EA)",
                     suite::datacenterScenario(4),
                     templates::hetCross6x6(), SearchMode::Evolutionary});
    return cases;
}

/** A serving workload's inputs. */
struct FleetInputs
{
    std::vector<ServedModel> catalog;
    Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    FleetOptions options;
    std::vector<Request> trace;
    bool llm = false;
};

// The two catalogs below copy bench_cluster_scaling's AR/VR catalog
// and bench_llm_serving's chat decoder, so this benchmark's inputs
// stay fixed when those benches change.

/** The 8-model AR/VR catalog at `scale` x the saturating base rate. */
std::vector<ServedModel>
arvrCatalog(double scale)
{
    struct Entry
    {
        Model model;
        double rateRps;
        double sloSec;
    };
    const std::vector<Entry> entries = {
        {zoo::eyeCod(8), 10.0, 0.5},   {zoo::handSP(4), 6.0, 0.5},
        {zoo::sp2Dense(4), 4.5, 0.5},  {zoo::emformer(2), 2.5, 1.0},
        {zoo::hrvit(2), 1.5, 1.0},     {zoo::googleNet(4), 4.0, 1.0},
        {zoo::midas(1), 0.75, 2.0},    {zoo::d2go(1), 0.75, 2.0}};
    std::vector<ServedModel> catalog;
    for (const Entry& e : entries) {
        ServedModel sm;
        sm.model = e.model;
        sm.rateRps = e.rateRps * scale;
        sm.sloSec = e.sloSec;
        catalog.push_back(std::move(sm));
    }
    return catalog;
}

/** The chat decoder of the LLM serving bench at `rateRps`. */
std::vector<ServedModel>
chatCatalog(double rateRps)
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 4;
    cfg.dModel = 256;
    cfg.dFf = 1024;
    cfg.vocab = 0;
    std::vector<ServedModel> catalog(1);
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = 8;
    catalog[0].rateRps = rateRps;
    catalog[0].sloSec = 2.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 16;
    catalog[0].llm.meanPromptTokens = 96;
    catalog[0].llm.maxPromptTokens = 256;
    catalog[0].llm.meanOutputTokens = 48.0;
    catalog[0].llm.maxOutputTokens = 384;
    return catalog;
}

/**
 * Builds a serving workload's inputs; `requests` and `shards` size
 * the AR/VR variant (the fleet_arvr workload and the serving probe of
 * paper_solve share it). Build and trace-generation times land in
 * *buildMs and *traceMs.
 */
FleetInputs
fleetInputs(bool llm, int shards, int requests, std::uint64_t seed,
            Tracer& tracer, double* buildMs, double* traceMs)
{
    FleetInputs in;
    in.llm = llm;
    auto t0 = Clock::now();
    {
        ScopedSpan span(tracer, "workload.build");
        in.catalog = llm ? chatCatalog(480.0)
                         : arvrCatalog(0.6 * static_cast<double>(shards));
    }
    *buildMs = msSince(t0);
    FleetOptions& o = in.options;
    o.shards = shards;
    o.routing = RoutingPolicy::BestFit;
    o.serving.modeledSolveSec = llm ? 0.002 : 0.01;
    o.serving.switchOverheadSec = llm ? 0.0005 : 0.002;
    o.serving.admission.maxQueueDelaySec = llm ? 0.01 : 0.02;
    if (llm)
        o.serving.admission.llmBatching = LlmBatchingMode::Continuous;
    t0 = Clock::now();
    {
        ScopedSpan span(tracer, "arrival.trace_gen");
        in.trace = llm ? llmPoissonTrace(in.catalog, requests, seed)
                       : poissonTrace(in.catalog, requests, seed);
    }
    *traceMs = msSince(t0);
    return in;
}

/** One served trace on a fresh simulator (cold schedule cache). */
struct Served
{
    std::unique_ptr<FleetSimulator> fleet;
    ServingReport report;
    double wallMs = 0.0;
    std::uint64_t digest = 0;
    long bad = 0;
};

Served
serveOnce(const FleetInputs& in, ThreadPool& pool,
          obs::FlightRecorder* recorder, Tracer& tracer,
          std::vector<std::string>& errors)
{
    Served s;
    FleetOptions o = in.options;
    o.serving.pool = &pool;
    o.recorder = recorder;
    ScopedSpan span(tracer, "runtime.fleet_run");
    try {
        const auto t0 = Clock::now();
        s.fleet = std::make_unique<FleetSimulator>(in.catalog, in.mcm, o);
        s.report = s.fleet->run(in.trace);
        s.wallMs = msSince(t0);
        s.bad = checkRecords(in.trace, s.fleet->records(), s.report,
                             in.llm, errors);
        s.digest = digestRecords(s.fleet->records(), s.report);
    } catch (const std::exception& e) {
        errors.push_back(e.what());
        s.bad = static_cast<long>(in.trace.size());
    }
    return s;
}

/**
 * Layer-by-layer serving figures of one workload: warm replays on the
 * cold run's simulator, report summarization and rendering, and a
 * cold run with a flight recorder attached. `coldMs` is the median
 * cold wall time of `in`. Returns the tracing overhead measured on
 * the fully warm replays (traced against untraced).
 */
double
reportServingLayers(Outcome& out, const FleetInputs& in, Served& cold,
                    double coldMs, ThreadPool& pool, Tracer& tracer)
{
    const ServingReport& r = cold.report;
    double queueP99 = 0.0;
    for (const ModelServingBreakdown& m : r.perModel)
        queueP99 = std::max(queueP99, m.p99QueueSec);
    std::vector<double> firstOut;
    for (const Request& q : cold.fleet->records())
        firstOut.push_back(firstOutputSec(q) - q.arrivalSec);

    out.metric("runtime.solves", r.cache.misses, "count");
    out.metric("runtime.cache_hit_rate", r.cache.hitRate(), "fraction");
    out.metric("runtime.solve_stall_s", r.solveStallSec, "s");
    out.metric("runtime.queue_wait_p99_s", queueP99, "s");
    out.metric("runtime.contested_routes", r.contestedRoutes, "count");
    out.metric("runtime.dispatches", r.dispatches, "count");
    out.metric("runtime.decode_rounds", r.llmDecodeRounds, "count");
    out.metric("runtime.joins", r.llmJoins, "count");
    out.metric("runtime.mean_decode_batch", r.llmMeanDecodeBatch,
               "count");
    out.metric("runtime.slo_miss_rate", r.sloViolationRate, "fraction");
    out.metric("runtime.latency_p99_s", r.p99LatencySec, "s");
    out.metric("runtime.ttft_p99_s", percentileSec(firstOut, 99.0), "s");

    // Warm replays: same trace, same simulator. Replays without the
    // stalls of the cold run form new mixes, so they repeat (up to 5)
    // until one solves nothing; warm_solves counts the first one's
    // solves. Then four fully cached replays alternate untraced and
    // traced.
    Tracer off(false);
    ServingReport warm, latest;
    std::vector<double> warmMs, tracedMs, untracedMs;
    auto replay = [&](Tracer& t) {
        const auto t0 = Clock::now();
        {
            ScopedSpan span(t, "runtime.fleet_run_warm");
            latest = cold.fleet->run(in.trace);
        }
        const double ms = msSince(t0);
        out.attempted += static_cast<long>(in.trace.size());
        out.failed += checkRecords(in.trace, cold.fleet->records(),
                                   latest, in.llm, out.errors);
        return ms;
    };
    replay(off);
    warm = latest;
    for (int i = 1; i < 5 && latest.cache.misses > 0; ++i)
        replay(off);
    for (int i = 0; i < 4; ++i) {
        const bool traced = i % 2 == 1;
        const double ms = replay(traced ? tracer : off);
        warmMs.push_back(ms);
        (traced ? tracedMs : untracedMs).push_back(ms);
    }
    const double events =
        static_cast<double>(in.trace.size()) + latest.dispatches +
        latest.completed;
    out.metric("runtime.solve_share", 1.0 - ratio(median(warmMs), coldMs),
               "fraction");
    out.metric("runtime.warm_solves", warm.cache.misses, "count");
    out.metric("runtime.loop_us_per_event",
               median(warmMs) * 1000.0 / events, "us");

    // Summarize the latest replay's records again from outside.
    std::vector<std::string> names;
    for (const ServedModel& sm : in.catalog)
        names.push_back(sm.model.name);
    ServingReport again;
    double sumMs = 0.0;
    {
        ScopedSpan span(tracer, "runtime.summarize");
        const auto t0 = Clock::now();
        again = summarizeServing(cold.fleet->records(), latest.offered,
                                 latest.dispatches, 0, latest.cache,
                                 latest.uniqueMixes, names);
        sumMs = msSince(t0);
    }
    if (again.p99LatencySec != latest.p99LatencySec)
        out.fail(1, "summarizeServing disagrees with run()'s report");
    out.metric("runtime.summarize_ms", sumMs, "ms");
    std::string rendered;
    double renderMs = 0.0;
    {
        ScopedSpan span(tracer, "eval.render");
        const auto t0 = Clock::now();
        rendered = describeServingReport(r);
        renderMs = msSince(t0);
    }
    if (rendered.empty())
        out.fail(1, "empty serving report");
    out.metric("eval.render_ms", renderMs, "ms");

    // Flight recorder attached: same virtual outputs, more host time.
    obs::FlightRecorder recorder;
    std::vector<std::string> errors;
    Served rec = serveOnce(in, pool, &recorder, tracer, errors);
    if (rec.bad || rec.digest != cold.digest)
        out.fail(1, "a recorded run changed the virtual outputs");
    const double spec = static_cast<double>(
        recorder.metrics().counter("solves.speculative").value());
    out.metric("runtime.spec_solve_frac",
               ratio(spec, rec.report.cache.misses), "fraction");
    out.metric("runtime.deferrals",
               static_cast<double>(
                   recorder.metrics().counter("routing.deferrals").value()),
               "count");
    out.metric("obs.recorder_overhead_frac",
               ratio(rec.wallMs, coldMs) - 1.0, "fraction");
    return ratio(median(tracedMs), median(untracedMs)) - 1.0;
}

/** Runs `build` and appends its wall time in seconds to `samples`. */
template <typename Build>
void
timeSetup(std::vector<double>& samples, Build&& build)
{
    const auto t0 = Clock::now();
    build();
    samples.push_back(msSince(t0) / 1000.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ------------------------------------------------------- paper_solve

void
runPaperSolve(const Args& args, Outcome& out, Tracer& tracer)
{
    std::vector<PaperCase> cases;
    std::vector<double> buildMs;
    std::vector<double> setupS;
    auto setUp = [&] {
        timeSetup(setupS, [&] {
            const auto t0 = Clock::now();
            ScopedSpan span(tracer, "workload.build");
            cases = paperCases();
            buildMs.push_back(msSince(t0));
        });
    };
    for (int i = 0; i < kSetupReps; ++i)
        setUp();
    // One pass solves every case once, in a seeded order.
    const std::uint64_t searchSeed = mixSeed(args.seed, 0);
    Rng order(mixSeed(args.seed, 1));
    Digest digest;
    bool haveDigest = false;
    std::vector<Solve> lastPass;
    std::vector<Solve> traced, eaTraced;
    auto pass = [&](int threads, bool profiled,
                    std::vector<double>* solveMs) {
        std::vector<std::size_t> idx(cases.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        for (std::size_t i = idx.size(); i > 1; --i)
            std::swap(idx[i - 1], idx[order.index(i)]);
        std::vector<Solve> solves(cases.size());
        double wallMs = 0.0;
        for (const std::size_t i : idx) {
            const PaperCase& c = cases[i];
            solves[i] = solveOnce(c.scenario, c.mcm, c.mode, searchSeed,
                                  threads, profiled, tracer);
            ++out.attempted;
            wallMs += solves[i].totalMs();
            if (solveMs)
                solveMs->push_back(solves[i].totalMs());
            if (!solves[i].error.empty())
                out.fail(1, c.label + ": " + solves[i].error);
        }
        Digest d;
        for (const Solve& s : solves)
            digestSchedule(d, s.result);
        if (!haveDigest) {
            digest = d;
            haveDigest = true;
        } else if (d.value() != digest.value()) {
            out.fail(1, "a repeated pass produced different schedules");
        }
        if (profiled)
            for (std::size_t i = 0; i < cases.size(); ++i)
                (cases[i].mode == SearchMode::Evolutionary ? eaTraced
                                                           : traced)
                    .push_back(solves[i]);
        lastPass = std::move(solves);
        return wallMs;
    };

    // host_us_per_item is the median pass time over the solves in a
    // pass: the per-solve times are multimodal (one mode per case),
    // so their own median jumps between cases under noise.
    std::vector<double> solveMs, passMs;
    double refPassMs = 0.0;
    if (args.trace)
        refPassMs = pass(1, false, nullptr);
    const auto start = Clock::now();
    while (passMs.empty() || msSince(start) < args.seconds * 1000.0) {
        ScopedSpan span(tracer, "bench.pass");
        passMs.push_back(pass(1, args.trace, &solveMs));
        setUp();
    }
    const double measuredMs = msSince(start);
    const double usPerSolve = median(passMs) * 1000.0 / cases.size();
    out.notes.push_back(std::to_string(passMs.size()) + " passes, " +
                        std::to_string(solveMs.size()) +
                        " solves; solve ms p50 " +
                        std::to_string(quantile(solveMs, 0.5)) +
                        ", p90 " + std::to_string(quantile(solveMs, 0.9)) +
                        ", solves/s " +
                        std::to_string(solveMs.size() * 1000.0 /
                                       measuredMs));
    out.notes.push_back("pass ms min " + std::to_string(quantile(passMs, 0)) +
                        ", median " + std::to_string(median(passMs)) +
                        ", max " + std::to_string(quantile(passMs, 1)));
    out.notes.push_back("digest " + digest.hex());

    if (!args.trace) {
        std::vector<double> latency, edp;
        for (const Solve& s : lastPass) {
            latency.push_back(s.result.metrics.latencySec);
            edp.push_back(s.result.metrics.edp());
        }
        out.metric("setup_s", median(setupS), "s");
        out.metric("host_us_per_item", usPerSolve, "us");
        out.metric("virt_latency_s", geomean(latency), "s");
        out.metric("edp_geomean", geomean(edp), "J.s");
        out.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    out.metric("obs.trace_overhead_frac",
               ratio(median(passMs), refPassMs) - 1.0, "fraction");
    const double pass2tMs = pass(2, false, nullptr);
    reportSolveLayers(out, traced, eaTraced, ratio(refPassMs, pass2tMs));
    out.metric("workload.build_ms", median(buildMs), "ms");

    // Rendering the schedules (Figure 9 + Table VI reports).
    double renderMs = 0.0;
    {
        ScopedSpan span(tracer, "eval.render");
        const auto t0 = Clock::now();
        std::size_t chars = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const PaperCase& c = cases[i];
            const ScheduleResult& r = lastPass[i].result;
            chars += describeSchedule(c.scenario, c.mcm, r).size();
            chars += describeWindowBreakdown(c.scenario, r).size();
        }
        renderMs = msSince(t0);
        if (chars == 0)
            out.fail(1, "empty schedule report");
    }

    // Serving probe: the runtime does no work in this workload, so a
    // small one-shard AR/VR stream gives its layers a reading.
    ThreadPool pool(kSolvePool);
    double probeBuildMs = 0.0, probeTraceMs = 0.0;
    const FleetInputs in = fleetInputs(false, 1, 100, args.seed, tracer,
                                       &probeBuildMs, &probeTraceMs);
    Served cold = serveOnce(in, pool, nullptr, tracer, out.errors);
    out.attempted += static_cast<long>(in.trace.size());
    out.failed += cold.bad;
    if (cold.fleet)
        reportServingLayers(out, in, cold, cold.wallMs, pool, tracer);
    out.metric("arrival.trace_gen_ms", probeTraceMs, "ms");
    // This workload's reports are schedules, not the probe's serving
    // report.
    out.metric("eval.render_ms", renderMs, "ms");
}

// ------------------------------------------------------ fleet workloads

void
runFleet(const Args& args, bool llm, Outcome& out, Tracer& tracer)
{
    // fleet_arvr's cost per request varies with the trace, so a run
    // serves three independent traces and reports pooled figures.
    const int shards = llm ? 8 : 4;
    const int requests = llm ? 40000 : 2000;
    const int traces = llm ? 1 : 3;
    std::vector<FleetInputs> ins;
    std::vector<double> buildMs, traceMs;
    std::vector<double> setupS;
    auto setUp = [&] {
        timeSetup(setupS, [&] {
            ins.clear();
            for (int k = 0; k < traces; ++k) {
                double b = 0.0, t = 0.0;
                ins.push_back(fleetInputs(llm, shards, requests,
                                          mixSeed(args.seed, k), tracer,
                                          &b, &t));
                buildMs.push_back(b);
                traceMs.push_back(t);
            }
        });
    };
    for (int i = 0; i < kSetupReps; ++i)
        setUp();
    const long cycleRequests = static_cast<long>(requests) * traces;

    ThreadPool pool(kSolvePool);

    // Closed loop over cycles; a cycle serves every trace once, each
    // on a fresh simulator. Virtual figures come from the first cycle
    // and every later cycle must reproduce them.
    std::vector<std::uint64_t> digests;
    std::vector<double> latencies, usPerReq, trace0Ms;
    long solves = 0, dispatches = 0;
    Served kept; // trace 0 of the last cycle, for the layer figures
    const auto start = Clock::now();
    for (int cycle = 0;
         cycle == 0 || msSince(start) < args.seconds * 1000.0; ++cycle) {
        double cycleMs = 0.0;
        for (int k = 0; k < traces; ++k) {
            Served s = serveOnce(ins[k], pool, nullptr, tracer, out.errors);
            out.attempted += requests;
            out.failed += s.bad;
            cycleMs += s.wallMs;
            if (cycle == 0) {
                digests.push_back(s.digest);
                solves += s.report.cache.misses;
                dispatches += s.report.dispatches;
                if (s.fleet)
                    for (const Request& r : s.fleet->records())
                        latencies.push_back(r.latencySec());
            } else if (s.digest != digests[k]) {
                out.fail(1, "a repeated run produced different outputs");
            }
            if (k == 0) {
                trace0Ms.push_back(s.wallMs);
                if (args.trace)
                    kept = std::move(s);
            }
            setUp();
        }
        usPerReq.push_back(cycleMs * 1000.0 / cycleRequests);
    }
    Digest d;
    for (const std::uint64_t x : digests)
        d.add(x);
    const double meanLatency =
        std::accumulate(latencies.begin(), latencies.end(), 0.0) /
        std::max<std::size_t>(latencies.size(), 1);
    const double p99 = percentileSec(latencies, 99.0);
    out.notes.push_back(
        std::to_string(usPerReq.size()) + " cycles of " +
        std::to_string(traces) + " x " + std::to_string(requests) +
        " requests; first cycle: " + std::to_string(solves) +
        " solves, " + std::to_string(dispatches) +
        " dispatches, latency mean " + std::to_string(meanLatency) +
        " s, p99 " + std::to_string(p99) + " s");
    out.notes.push_back("digest " + d.hex());

    // The catalog as one scenario on the shard package: the schedule
    // quality guard of this workload, and its solver layer figures.
    const FleetInputs& in = ins[0];
    Scenario catalogMix;
    catalogMix.name = llm ? "chat catalog" : "AR/VR catalog";
    for (const ServedModel& sm : in.catalog)
        catalogMix.models.push_back(sm.model);
    const std::uint64_t searchSeed = mixSeed(args.seed, traces);
    const Solve probe = solveOnce(catalogMix, in.mcm,
                                  SearchMode::BruteForce, searchSeed, 1,
                                  args.trace, tracer);
    ++out.attempted;
    if (!probe.error.empty())
        out.fail(1, "catalog solve: " + probe.error);

    if (!args.trace) {
        out.metric("setup_s", median(setupS), "s");
        out.metric("host_us_per_item", median(usPerReq), "us");
        out.metric("virt_latency_s", meanLatency, "s");
        out.metric("edp_geomean", probe.result.metrics.edp(), "J.s");
        out.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    const Solve ea = solveOnce(catalogMix, in.mcm,
                               SearchMode::Evolutionary, searchSeed, 1,
                               true, tracer);
    Tracer off(false);
    const Solve oneThread = solveOnce(
        catalogMix, in.mcm, SearchMode::BruteForce, searchSeed, 1, false, off);
    const Solve twoThreads = solveOnce(
        catalogMix, in.mcm, SearchMode::BruteForce, searchSeed, 2, false, off);
    out.attempted += 3;
    if (!ea.error.empty() || !oneThread.error.empty() ||
        !twoThreads.error.empty())
        out.fail(1, "a catalog solve (EA, 1 or 2 threads) failed");
    reportSolveLayers(out, {probe}, {ea},
                      ratio(oneThread.totalMs(), twoThreads.totalMs()));
    if (kept.fleet)
        out.metric("obs.trace_overhead_frac",
                   reportServingLayers(out, in, kept, median(trace0Ms),
                                       pool, tracer),
                   "fraction");
    out.metric("workload.build_ms", median(buildMs), "ms");
    out.metric("arrival.trace_gen_ms", median(traceMs), "ms");
}

// ----------------------------------------------------------------- main

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spansPath = v;
        else
            return false;
    }
    return argc % 2 == 1 &&
           (a.workload == "paper_solve" || a.workload == "fleet_arvr" ||
            a.workload == "fleet_llm");
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception&) {
        std::cerr << "usage: scarbench --workload paper_solve|fleet_arvr|"
                     "fleet_llm --seed N --seconds S --trace 0|1 "
                     "[--spans PATH]\n";
        return 2;
    }
    const std::string buildType = SCARBENCH_BUILD_TYPE;
    std::cout << "# host {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu\": \"" << cpuModel() << "\", \"compiler\": \""
              << SCARBENCH_COMPILER << "\", \"build_type\": \"" << buildType
              << "\", \"solve_pool\": " << kSolvePool << "}\n";
    if (buildType != "Release")
        std::cout << "# WARNING: non-Release build; timings are not "
                     "comparable\n";
    std::cout << "# accuracy: the model has no hardware reference (the "
                 "repository holds only self-generated goldens, not the "
                 "paper's numbers), so no simulated-accuracy error is "
                 "given\n";

    Outcome out;
    Tracer tracer(args.trace);
    try {
        if (args.workload == "paper_solve")
            runPaperSolve(args, out, tracer);
        else
            runFleet(args, args.workload == "fleet_llm", out, tracer);
    } catch (const std::exception& e) {
        out.fail(std::max<long>(out.attempted - out.failed, 1), e.what());
        out.attempted = std::max<long>(out.attempted, 1);
    }

    for (const std::string& n : out.notes)
        std::cout << "# " << n << "\n";
    for (const std::string& e : out.errors)
        std::cout << "# FAILED: " << e << "\n";
    if (args.trace) {
        for (const auto& [layer, ms] : tracer.layerSelfMs())
            std::cout << "# self_ms " << layer << " " << ms << "\n";
        if (!args.spansPath.empty() && !tracer.write(args.spansPath))
            out.fail(1, "could not write " + args.spansPath);
    }

    const bool correct = out.failed == 0 && out.errors.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : out.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(vu.first)
                  << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
