/**
 * @file
 * Shared main() body for the Google-Benchmark micro benches.
 *
 * Header-only on purpose: bench_util.cc links into every bench
 * binary, and only the micro benches link benchmark::benchmark, so
 * the one function that touches the benchmark API must not live in
 * the shared library. Each micro bench's main() is one call:
 *
 *   int main(int argc, char** argv)
 *   { return scar::bench::runMicroBench("micro_sched", argc, argv); }
 *
 * Behavior: always leaves bench_results/<name>.json (the
 * regression-gate artifact) and honors the SCAR_BENCH_MIN_TIME_S
 * smoke knob; explicit --benchmark_* flags win over both defaults
 * (see microBenchArgs).
 */

#ifndef SCAR_BENCH_MICRO_BENCH_MAIN_H
#define SCAR_BENCH_MICRO_BENCH_MAIN_H

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace scar
{
namespace bench
{

/**
 * Body of every calibration benchmark (BM_MaestroLiteGemm/0,
 * BM_CalibrationGemm, BM_ObsCalibrationGemm,
 * BM_RuntimeCalibrationGemm): the frozen calibrationGemm kernel on a
 * 128x5120x1280 GEMM on a default 4096-PE chiplet.
 */
inline void
runCalibrationGemm(benchmark::State& state)
{
    const Layer gemm = makeGemmLayer(0, "g", 128, 5120, 1280);
    const ChipletSpec spec;
    for (auto _ : state)
        benchmark::DoNotOptimize(calibrationGemm(gemm, spec));
}

inline int
runMicroBench(const std::string& name, int argc, char** argv)
{
    std::vector<std::string> args = microBenchArgs(name, argc, argv);
    std::vector<char*> argvExt;
    argvExt.reserve(args.size());
    for (std::string& arg : args)
        argvExt.push_back(arg.data());
    int argcExt = static_cast<int>(argvExt.size());
    benchmark::Initialize(&argcExt, argvExt.data());
    if (benchmark::ReportUnrecognizedArguments(argcExt, argvExt.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace bench
} // namespace scar

#endif // SCAR_BENCH_MICRO_BENCH_MAIN_H
