/**
 * @file
 * Golden determinism suite: the byte-identity contract of the search
 * hot path (docs/ARCHITECTURE.md "Determinism and threading").
 *
 * `Scar::run()` and the serving runtime are pure functions of
 * (scenario, MCM, options, seed): every cost the evaluator produces
 * lands in the returned `ScheduleResult`, so any change to the cost
 * model's arithmetic — including "harmless" reassociation of a sum —
 * is observable. This suite pins the full output down to the last
 * floating-point bit:
 *
 *  - goldens are captured from a reference build (the state BEFORE a
 *    hot-path optimization) by running the test binary with
 *    SCAR_GOLDEN_CAPTURE=1, and committed under tests/golden/;
 *  - every later build must reproduce them byte-for-byte with 1, 4
 *    and 8 solves side by side on a pool of that size (and a serving
 *    run on such a solve pool), on the Table-4 datacenter and Table-5
 *    AR/VR golden scenarios and on a serving-runtime report;
 *  - floating-point bit patterns are toolchain-dependent (FMA
 *    contraction differs across compilers and -O levels), so the
 *    comparison is gated on a toolchain signature recorded at capture
 *    time: a foreign compiler or build type skips instead of failing
 *    spuriously. The thread-count invariance checks (1 == 4 == 8)
 *    run unconditionally — they need no stored golden.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/mcm_templates.h"
#include "common/thread_pool.h"
#include "eval/scenario_suite.h"
#include "runtime/fleet.h"
#include "sched/scar.h"

namespace scar
{
namespace
{

using runtime::FleetOptions;
using runtime::FleetSimulator;
using runtime::Request;
using runtime::ServedModel;
using runtime::ServingReport;
using runtime::ShardReport;

/** Exact (bit-preserving) rendering of a double. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

void
putD(std::ostringstream& os, const char* tag, double v)
{
    os << tag << '=' << hexDouble(v) << '\n';
}

/**
 * The toolchain fingerprint goldens are valid for. FP bit patterns
 * depend on the compiler (contraction policy), the optimization
 * level, and the target ISA extensions actually enabled (FMA/AVX
 * change contraction and vectorization), so the signature folds in
 * every flag-sensitive macro observable from inside the build. Not
 * airtight — e.g. -O2 vs -O3 are indistinguishable by macro — but a
 * clang build, a Debug/sanitizer build, -Ofast, or -march=native all
 * skip instead of failing spuriously.
 */
std::string
toolchainSignature()
{
    std::ostringstream os;
    os << __VERSION__ << " |"
#ifdef NDEBUG
       << " opt"
#else
       << " noopt"
#endif
#ifdef __OPTIMIZE__
       << " O"
#endif
#ifdef __FAST_MATH__
       << " fastmath"
#endif
#ifdef __FMA__
       << " fma"
#endif
#ifdef __AVX2__
       << " avx2"
#endif
#ifdef __AVX512F__
       << " avx512f"
#endif
        ;
    return os.str();
}

std::string
goldenDir()
{
    if (const char* env = std::getenv("SCAR_GOLDEN_DIR"))
        return env;
#ifdef SCAR_GOLDEN_DIR_DEFAULT
    return SCAR_GOLDEN_DIR_DEFAULT;
#else
    return "tests/golden";
#endif
}

bool
captureMode()
{
    const char* env = std::getenv("SCAR_GOLDEN_CAPTURE");
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0;
}

std::string
serialize(const ScheduleResult& result)
{
    std::ostringstream os;
    os << "windows=" << result.windows.size() << '\n';
    for (const ScheduledWindow& w : result.windows) {
        os << "window\n";
        os << "assignment";
        for (const LayerRange& r : w.assignment.perModel)
            os << ' ' << r.first << ':' << r.last;
        os << '\n';
        os << "nodes";
        for (int n : w.nodes)
            os << ' ' << n;
        os << '\n';
        os << "entry";
        for (int e : w.placement.entryChiplet)
            os << ' ' << e;
        os << '\n';
        for (const ModelPlacement& mp : w.placement.models) {
            os << "model " << mp.modelIdx;
            for (const PlacedSegment& seg : mp.segments) {
                os << ' ' << seg.range.first << ':' << seg.range.last
                   << '@' << seg.chiplet;
            }
            os << '\n';
        }
        putD(os, "latencyCycles", w.cost.latencyCycles);
        putD(os, "energyNj", w.cost.energyNj);
        putD(os, "dramBytes", w.cost.dramBytes);
        putD(os, "dramBoundCycles", w.cost.dramBoundCycles);
        os << "maxLinkSharers=" << w.cost.maxLinkSharers << '\n';
        for (const ModelWindowCost& mc : w.cost.perModel) {
            putD(os, "m.latencyCycles", mc.latencyCycles);
            putD(os, "m.energyNj", mc.energyNj);
            for (const SegmentCost& sc : mc.segments) {
                putD(os, "s.first", sc.firstSampleCycles);
                putD(os, "s.steady", sc.steadySampleCycles);
                putD(os, "s.energy", sc.energyNj);
                os << "s.resident=" << (sc.weightsResident ? 1 : 0)
                   << '\n';
            }
        }
    }
    putD(os, "metrics.latency", result.metrics.latencySec);
    putD(os, "metrics.energy", result.metrics.energyJ);
    os << "candidates=" << result.candidates.size() << '\n';
    for (const Metrics& c : result.candidates) {
        putD(os, "c.latency", c.latencySec);
        putD(os, "c.energy", c.energyJ);
    }
    return os.str();
}

std::string
serialize(const ServingReport& report)
{
    std::ostringstream os;
    os << "offered=" << report.offered << '\n'
       << "completed=" << report.completed << '\n'
       << "dispatches=" << report.dispatches << '\n';
    putD(os, "horizonSec", report.horizonSec);
    putD(os, "throughputRps", report.throughputRps);
    putD(os, "meanLatencySec", report.meanLatencySec);
    putD(os, "p50LatencySec", report.p50LatencySec);
    putD(os, "p95LatencySec", report.p95LatencySec);
    putD(os, "p99LatencySec", report.p99LatencySec);
    putD(os, "maxLatencySec", report.maxLatencySec);
    os << "sloViolations=" << report.sloViolations << '\n';
    putD(os, "sloViolationRate", report.sloViolationRate);
    os << "cache.hits=" << report.cache.hits << '\n'
       << "cache.misses=" << report.cache.misses << '\n'
       << "cache.evictions=" << report.cache.evictions << '\n'
       << "uniqueMixes=" << report.uniqueMixes << '\n';
    putD(os, "batchOccupancy", report.batchOccupancy);
    for (const ShardReport& shard : report.shards) {
        os << "shard=" << shard.shardIdx << ' ' << shard.mcmName << ' '
           << shard.dispatches << '\n';
        putD(os, "sh.busySec", shard.busySec);
        putD(os, "sh.utilization", shard.utilization);
        putD(os, "sh.solveStallSec", shard.solveStallSec);
        putD(os, "sh.switchOverheadSec", shard.switchOverheadSec);
        os << "sh.preemptions=" << shard.preemptions << '\n';
    }
    putD(os, "solveStallSec", report.solveStallSec);
    putD(os, "switchOverheadSec", report.switchOverheadSec);
    os << "contestedRoutes=" << report.contestedRoutes << '\n'
       << "costOptimalRoutes=" << report.costOptimalRoutes << '\n';
    putD(os, "costOptimalRouteFrac", report.costOptimalRouteFrac);
    os << "preemptionEnabled=" << (report.preemptionEnabled ? 1 : 0)
       << '\n'
       << "preemptions=" << report.preemptions << '\n';
    putD(os, "resumeOverheadSec", report.resumeOverheadSec);
    os << "preemptedRequests=" << report.preemptedRequests << '\n';
    putD(os, "preemptedP99Sec", report.preemptedP99Sec);
    return os.str();
}

/**
 * Compares `produced` against the stored golden, or (re)writes the
 * golden in capture mode. Skips when the stored toolchain signature
 * does not match this build.
 */
void
checkGolden(const std::string& name, const std::string& produced)
{
    const std::string path = goldenDir() + "/" + name + ".golden.txt";
    const std::string sigPath = goldenDir() + "/toolchain.txt";
    if (captureMode()) {
        std::ofstream sigOut(sigPath);
        ASSERT_TRUE(sigOut.good()) << "cannot write " << sigPath;
        sigOut << toolchainSignature() << '\n';
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << produced;
        SUCCEED() << "captured golden " << path;
        return;
    }

    std::ifstream sigIn(sigPath);
    ASSERT_TRUE(sigIn.good())
        << "missing " << sigPath
        << " — capture goldens first (SCAR_GOLDEN_CAPTURE=1)";
    std::string storedSig;
    std::getline(sigIn, storedSig);
    if (storedSig != toolchainSignature()) {
        GTEST_SKIP() << "goldens captured under a different toolchain "
                        "(stored: "
                     << storedSig << "; this build: "
                     << toolchainSignature()
                     << ") — FP bit patterns are not comparable";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream stored;
    stored << in.rdbuf();
    EXPECT_EQ(stored.str(), produced)
        << "hot-path output drifted from the golden " << path
        << " — the optimization changed observable bits";
}

/**
 * Runs `threads` identical solves side by side on a pool of that size
 * and returns their serialization; every run must agree on it.
 */
std::string
runScar(const Scenario& sc, const Mcm& mcm, int threads)
{
    ThreadPool pool(threads);
    std::vector<std::future<ScheduleResult>> runs;
    for (int i = 0; i < threads; ++i)
        runs.push_back(pool.submit([&] { return Scar(sc, mcm).run(); }));
    const std::string first = serialize(runs.front().get());
    for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(first, serialize(runs[i].get())) << "run " << i;
    return first;
}

ServingReport
runServing(int threads)
{
    const Scenario sc4 = suite::datacenterScenario(4);
    const std::vector<double> ratesRps = {12.0, 36.0, 1.5, 48.0};
    const std::vector<double> slosSec = {2.5, 1.5, 2.0, 1.0};
    std::vector<ServedModel> catalog;
    for (std::size_t m = 0; m < sc4.models.size(); ++m) {
        ServedModel sm;
        sm.model = sc4.models[m];
        sm.rateRps = ratesRps[m];
        sm.sloSec = slosSec[m];
        catalog.push_back(std::move(sm));
    }
    FleetOptions options;
    options.serving.admission.maxQueueDelaySec = 0.1;
    ThreadPool pool(threads);
    options.serving.pool = &pool;
    FleetSimulator sim(catalog, templates::hetSides3x3(), options);
    const std::vector<Request> trace =
        runtime::poissonTrace(catalog, 600, /*seed=*/7);
    return sim.run(trace);
}

// ---- Table-4 datacenter golden scenario (Sc4, Het-Sides 3x3) -------

TEST(GoldenDeterminism, DatacenterSc4ByteIdentical)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetSides3x3();
    const std::string at1 = runScar(sc, mcm, 1);
    const std::string at4 = runScar(sc, mcm, 4);
    const std::string at8 = runScar(sc, mcm, 8);
    // Pool-size invariance needs no golden: always enforced.
    EXPECT_EQ(at1, at4);
    EXPECT_EQ(at1, at8);
    checkGolden("datacenter_sc4", at1);
}

// ---- Table-5 AR/VR golden scenario (Sc7, Het-Sides 3x3 @256 PE) ----

TEST(GoldenDeterminism, ArvrSc7ByteIdentical)
{
    const Scenario sc = suite::arvrScenario(7);
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    const std::string at1 = runScar(sc, mcm, 1);
    const std::string at4 = runScar(sc, mcm, 4);
    const std::string at8 = runScar(sc, mcm, 8);
    EXPECT_EQ(at1, at4);
    EXPECT_EQ(at1, at8);
    checkGolden("arvr_sc7", at1);
}

// ---- Serving-runtime golden (ServingReport over a Poisson trace) ---

TEST(GoldenDeterminism, ServingReportByteIdentical)
{
    const std::string at1 = serialize(runServing(1));
    const std::string at4 = serialize(runServing(4));
    const std::string at8 = serialize(runServing(8));
    EXPECT_EQ(at1, at4);
    EXPECT_EQ(at1, at8);
    checkGolden("serving_sc4", at1);
}

} // namespace
} // namespace scar
