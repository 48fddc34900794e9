// Estimator-zoo benchmark matrix: every yield estimator
// (yield::kEstimators) runs over every registered scenario
// (yield::scenario_names), one benchmark per {estimator} x {scenario} cell,
// and every cell appends one row to <YPM_BENCH_DIR>/yield_matrix.csv:
//
//   estimator,scenario,samples,pilot_samples,total_samples,reached_target,
//   yield,ci_low,ci_high,ci_half_width,ess,ess_per_sample,max_weight_share,
//   refits,components,wall_ms,reference_yield
//
// reference_yield is the scenario's pinned brute-force yield (empty where
// none is pinned). scripts/check_matrix.py gates the per-column floors on
// this artifact in the yield_matrix_gate ctest (IS family vs plain MC on
// rare_ota, mixture family vs single shift on bimodal_ota, scale-adapted
// CE vs mean-only CE, fail-side ESS floors, every OTA interval containing
// its reference).
//
// Cells are registered dynamically (custom main below): the matrix shape
// follows kEstimators and the scenario registry, so adding an estimator or
// a scenario grows the matrix without touching this file.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "eval/engine.hpp"
#include "util/rng.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"

using namespace ypm;

namespace {

/// Scenarios are calibrated once (the OTA ones run a 512-sample MC
/// population at construction) and shared across their column's cells.
const yield::Scenario& get_scenario(const std::string& name) {
    static std::map<std::string, yield::Scenario> cache = [] {
        std::map<std::string, yield::Scenario> scenarios;
        for (const std::string& n : yield::scenario_names())
            scenarios.emplace(n, yield::make_scenario(n));
        return scenarios;
    }();
    return cache.at(name);
}

/// Append one cell row to the matrix CSV. First write of the process
/// truncates, so a rerun replaces the artifact instead of interleaving
/// stale rows into it.
void dump_cell(std::string_view estimator, const yield::Scenario& scenario,
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
               "ess_per_sample,max_weight_share,refits,components,wall_ms,"
               "reference_yield\n";
    appending = true;
    const std::size_t total = result.samples_used + result.pilot_samples;
    const double ess_per_sample =
        result.samples_used > 0
            ? result.estimate.ess / static_cast<double>(result.samples_used)
            : 0.0;
    out << estimator << ',' << scenario.name << ',' << result.samples_used
        << ',' << result.pilot_samples << ',' << total << ','
        << (result.reached_target ? 1 : 0) << ',' << result.estimate.yield
        << ',' << result.estimate.ci_low << ',' << result.estimate.ci_high
        << ',' << result.estimate.half_width() << ',' << result.estimate.ess
        << ',' << ess_per_sample << ',' << result.estimate.max_weight_share
        << ',' << result.refinements << ','
        << result.proposal.components.size() << ',' << wall_ms << ',';
    if (scenario.reference_yield) out << *scenario.reference_yield;
    out << '\n';
}

void run_cell(benchmark::State& state, yield::Estimator estimator,
              const std::string& scenario_name) {
    const yield::Scenario& sc = get_scenario(scenario_name);
    yield::SequentialConfig config = sc.config;
    config.estimator = estimator;
    yield::SequentialYieldResult result;
    double wall_ms = 0.0;
    for (auto _ : state) {
        eval::EngineConfig engine_config;
        engine_config.cache_capacity = 0;
        eval::Engine engine(engine_config);
        const util::TickNs t0 = util::now_ns();
        yield::SequentialYieldRunner runner(engine, config, sc.specs,
                                            sc.factory, sc.dimension, Rng(73));
        result = runner.run();
        wall_ms = util::seconds_since(t0) * 1e3;
    }
    dump_cell(yield::estimator_name(estimator), sc, result, wall_ms);
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
        for (const yield::Estimator estimator : yield::kEstimators) {
            const std::string name =
                "BM_Matrix/" + std::string(yield::estimator_name(estimator)) +
                "/" + scenario;
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
