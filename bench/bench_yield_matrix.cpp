// Estimator-zoo benchmark matrix: every registered yield estimator
// (yield::EstimatorRegistry) runs over every registered scenario
// (yield::scenario_names), one benchmark per {estimator} x {scenario} cell,
// and every cell appends one row to <YPM_BENCH_DIR>/yield_matrix.csv:
//
//   estimator,scenario,samples,pilot_samples,total_samples,reached_target,
//   yield,ci_low,ci_high,ci_half_width,ess,ess_per_sample,max_weight_share,
//   refits,components,wall_ms
//
// scripts/check_matrix.py gates the per-column floors on this artifact in
// the bench-matrix CI job (IS family vs plain MC on rare_ota, mixture
// family vs single shift on bimodal_ota, scale-adapted CE vs mean-only CE,
// fail-side ESS floors on each estimator's home scenario).
//
// Cells are registered dynamically (custom main below): the matrix shape
// follows the two registries, so adding an estimator or a scenario grows
// the matrix without touching this file.
//
// Environment knobs (on top of bench_common.hpp's):
//   YPM_BENCH_YIELD_TARGET  OTA-scenario CI half-width target (default 0.0035)
//   YPM_BENCH_YIELD_SIGMA   OTA spec depth in sigmas          (default 2.4)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/engine.hpp"
#include "util/rng.hpp"
#include "yield/estimator.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"

using namespace ypm;

namespace {

double env_double(const char* name, double fallback) {
    // Read before any bench thread starts; nothing calls setenv, so the
    // getenv race clang-tidy guards against cannot occur.
    const char* v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtod(v, nullptr);
}

/// Scenarios are calibrated once (the OTA ones run a 512-sample MC
/// population at construction) and shared across their column's cells.
const yield::Scenario& get_scenario(const std::string& name) {
    static std::map<std::string, yield::Scenario> cache = [] {
        yield::ScenarioOptions options;
        options.target_half_width =
            env_double("YPM_BENCH_YIELD_TARGET", 0.0035);
        options.spec_depth = env_double("YPM_BENCH_YIELD_SIGMA", 2.4);
        std::map<std::string, yield::Scenario> scenarios;
        for (const std::string& n : yield::scenario_names())
            scenarios.emplace(n, yield::make_scenario(n, options));
        return scenarios;
    }();
    return cache.at(name);
}

/// Append one cell row to the matrix CSV. First write of the process
/// truncates, so a rerun replaces the artifact instead of interleaving
/// stale rows into it.
void dump_cell(const std::string& estimator, const std::string& scenario,
               const yield::SequentialYieldResult& result, double wall_ms) {
    namespace fs = std::filesystem;
    const fs::path dir = benchx::artifact_dir();
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path csv = dir / "yield_matrix.csv";
    static bool appending = false;
    std::ofstream out(csv, appending ? std::ios::app : std::ios::trunc);
    if (!out) return; // artifact only; never fail the bench on IO
    if (!appending)
        out << "estimator,scenario,samples,pilot_samples,total_samples,"
               "reached_target,yield,ci_low,ci_high,ci_half_width,ess,"
               "ess_per_sample,max_weight_share,refits,components,wall_ms\n";
    appending = true;
    const std::size_t total = result.samples_used + result.pilot_samples;
    const double ess_per_sample =
        result.samples_used > 0
            ? result.estimate.ess / static_cast<double>(result.samples_used)
            : 0.0;
    out << estimator << ',' << scenario << ',' << result.samples_used << ','
        << result.pilot_samples << ',' << total << ','
        << (result.reached_target ? 1 : 0) << ',' << result.estimate.yield
        << ',' << result.estimate.ci_low << ',' << result.estimate.ci_high
        << ',' << result.estimate.half_width() << ',' << result.estimate.ess
        << ',' << ess_per_sample << ',' << result.estimate.max_weight_share
        << ',' << result.refinements << ','
        << result.proposal.components.size() << ',' << wall_ms << '\n';
}

void run_cell(benchmark::State& state, const std::string& estimator_name,
              const std::string& scenario_name) {
    const yield::Scenario& sc = get_scenario(scenario_name);
    const auto estimator =
        yield::EstimatorRegistry::instance().create(estimator_name);
    yield::SequentialYieldResult result;
    double wall_ms = 0.0;
    for (auto _ : state) {
        eval::EngineConfig engine_config;
        engine_config.cache_capacity = 0;
        eval::Engine engine(engine_config);
        const util::TickNs t0 = util::now_ns();
        result = estimator->estimate(engine, sc.config, sc.specs, sc.factory,
                                     sc.dimension, Rng(73));
        wall_ms = util::seconds_since(t0) * 1e3;
    }
    dump_cell(estimator_name, scenario_name, result, wall_ms);
    state.counters["samples"] =
        static_cast<double>(result.samples_used + result.pilot_samples);
    state.counters["yield"] = result.estimate.yield;
    state.counters["ci_half_width"] = result.estimate.half_width();
    state.counters["ess"] = result.estimate.ess;
    state.counters["reached_target"] = result.reached_target ? 1.0 : 0.0;
}

} // namespace

int main(int argc, char** argv) {
    for (const std::string& scenario : yield::scenario_names())
        for (const std::string& estimator :
             yield::EstimatorRegistry::instance().names()) {
            const std::string name = "BM_Matrix/" + estimator + "/" + scenario;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [estimator, scenario](benchmark::State& state) {
                    run_cell(state, estimator, scenario);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
