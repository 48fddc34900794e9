// Variance-reduction yield bench - the gating experiments for the
// importance-sampling subsystem (src/yield/).
//
// Scenario 1 (rare spec): yield::make_scenario("rare_ota") - the nominal
// OTA sizing under c35 process variation with a *rare* gain spec placed
// deep in the lower tail of the Monte Carlo gain population
// (mean - k*sigma, k = 2.4 by default -> ~1 % failure rate). Exactly the
// regime where the paper's 500-sample "100 % yield" runs are weakest, and
// where plain MC needs thousands of samples per CI digit.
//
//   BM_YieldBruteForceReference - a large plain-MC reference estimate
//     (YPM_BENCH_YIELD_REF samples, default 50000);
//   BM_YieldSequentialPlainMc   - the "plain_mc" estimator (no pilot, zero
//     shift) running to the CI half-width target;
//   BM_YieldSequentialImportance - the "single_shift" estimator (two-stage
//     pilot + single mean shift, legacy ISLE proposal mode).
//
// Scenario 2 (bimodal two-spec): yield::make_scenario("bimodal_ota") - a
// low-tail gain spec plus a high-tail phase-margin spec (gain and PM are
// positively correlated under c35 variation, so the two ~1 % failure modes
// sit in well-separated directions of the standardized process space). A
// single fitted mean shift points *between* the modes and its fail-side
// ESS collapses; the defensive mixture (nominal + per-spec components,
// cross-entropy refined) covers both.
//
//   BM_YieldBimodalReference   - plain-MC reference
//     (YPM_BENCH_YIELD_BIMODAL_REF samples, default 30000);
//   BM_YieldBimodalSingleShift - the "single_shift" estimator (ESS collapse);
//   BM_YieldBimodalMixture     - the "mixture_ce" estimator.
//
// Both scenarios and all four drivers come from the shared scenario
// registry and estimator zoo (yield/scenarios.hpp + yield/estimator.hpp):
// the spec thresholds, calibration seeds and driver recipes live there
// exactly once, shared with tests/ and bench_yield_matrix, so this bench's
// CI gates and the unit tests can never drift apart.
//
// The CI gates (bench-smoke job) assert that the single-shift IS driver
// reaches the rare-spec target in <= 1/3 of the plain-MC samples, that on
// the bimodal scenario the single shift's fail-side ESS collapses below
// 10 % of its samples while the mixture reaches the same target in fewer
// samples, and that every estimate overlaps its brute-force reference
// interval. All drivers dump their samples-vs-half-width trajectory to
// <YPM_BENCH_DIR>/yield_is_trajectory.csv for the uploaded artifact.
//
// Environment knobs (on top of bench_common.hpp's):
//   YPM_BENCH_YIELD_REF         rare-spec reference samples (default 50000)
//   YPM_BENCH_YIELD_TARGET      CI half-width target        (default 0.0035)
//   YPM_BENCH_YIELD_SIGMA       spec depth in sigmas        (default 2.4)
//   YPM_BENCH_YIELD_BIMODAL_REF bimodal reference samples   (default 30000)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "eval/engine.hpp"
#include "util/rng.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"
#include "yield/weighted.hpp"

using namespace ypm;

namespace {

double env_double(const char* name, double fallback) {
    // Read before any bench thread starts; nothing calls setenv, so the
    // getenv race clang-tidy guards against cannot occur.
    const char* v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtod(v, nullptr);
}

eval::Engine make_engine() {
    eval::EngineConfig config;
    config.cache_capacity = 0;
    return eval::Engine(config);
}

yield::ScenarioOptions scenario_options() {
    yield::ScenarioOptions options;
    options.target_half_width = env_double("YPM_BENCH_YIELD_TARGET", 0.0035);
    options.spec_depth = env_double("YPM_BENCH_YIELD_SIGMA", 2.4);
    return options;
}

/// One scenario + its brute-force reference, built once per column.
struct BenchScenario {
    yield::Scenario scenario;
    yield::WeightedYieldEstimate reference;
    std::size_t reference_samples = 0;
};

const BenchScenario& rare_scenario() {
    static const BenchScenario s = [] {
        BenchScenario sc;
        sc.scenario = yield::make_scenario("rare_ota", scenario_options());
        sc.reference_samples = benchx::env_size("YPM_BENCH_YIELD_REF", 50000);
        eval::Engine engine = make_engine();
        sc.reference = yield::scenario_reference(engine, sc.scenario,
                                                 sc.reference_samples, Rng(72));
        return sc;
    }();
    return s;
}

const BenchScenario& bimodal_scenario() {
    static const BenchScenario s = [] {
        BenchScenario sc;
        sc.scenario = yield::make_scenario("bimodal_ota", scenario_options());
        sc.reference_samples =
            benchx::env_size("YPM_BENCH_YIELD_BIMODAL_REF", 30000);
        eval::Engine engine = make_engine();
        sc.reference = yield::scenario_reference(engine, sc.scenario,
                                                 sc.reference_samples, Rng(72));
        return sc;
    }();
    return s;
}

/// Run one zoo member on one scenario with the historical driver seed
/// (Rng(73)).
yield::SequentialYieldResult run_estimator(const BenchScenario& sc,
                                           yield::Estimator estimator) {
    eval::Engine engine = make_engine();
    yield::SequentialConfig config = sc.scenario.config;
    config.estimator = estimator;
    yield::SequentialYieldRunner runner(engine, config, sc.scenario.specs,
                                        sc.scenario.factory,
                                        sc.scenario.dimension, Rng(73));
    return runner.run();
}

/// Append one driver's convergence trajectory to the artifact CSV.
void dump_trajectory(const std::string& driver,
                     const yield::SequentialYieldResult& result) {
    namespace fs = std::filesystem;
    const fs::path dir = benchx::artifact_dir();
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path csv = dir / "yield_is_trajectory.csv";
    // First write of this process truncates: a rerun must replace the
    // artifact, not interleave stale trajectories into it.
    static bool appending = false;
    std::ofstream out(csv, appending ? std::ios::app : std::ios::trunc);
    if (!out) return; // artifact only; never fail the bench on IO
    if (!appending) out << "driver,samples,ci_half_width\n";
    appending = true;
    for (const auto& [samples, half_width] : result.trajectory)
        out << driver << ',' << samples + result.pilot_samples << ','
            << half_width << '\n';
}

void reference_counters(benchmark::State& state, const BenchScenario& sc) {
    state.counters["samples"] = static_cast<double>(sc.reference_samples);
    state.counters["yield"] = sc.reference.yield;
    state.counters["ci_low"] = sc.reference.ci_low;
    state.counters["ci_high"] = sc.reference.ci_high;
}

void BM_YieldBruteForceReference(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(rare_scenario().reference.yield);
    }
    reference_counters(state, rare_scenario());
}
BENCHMARK(BM_YieldBruteForceReference)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_YieldSequentialPlainMc(benchmark::State& state) {
    yield::SequentialYieldResult result;
    for (auto _ : state)
        result = run_estimator(rare_scenario(), yield::Estimator::plain_mc);
    dump_trajectory("plain_mc", result);
    state.counters["samples"] = static_cast<double>(result.samples_used);
    state.counters["yield"] = result.estimate.yield;
    state.counters["ci_half_width"] = result.estimate.half_width();
    state.counters["reached_target"] = result.reached_target ? 1.0 : 0.0;
}
BENCHMARK(BM_YieldSequentialPlainMc)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_YieldSequentialImportance(benchmark::State& state) {
    yield::SequentialYieldResult result;
    for (auto _ : state)
        result = run_estimator(rare_scenario(), yield::Estimator::single_shift);
    dump_trajectory("importance", result);
    state.counters["samples"] =
        static_cast<double>(result.samples_used + result.pilot_samples);
    state.counters["yield"] = result.estimate.yield;
    state.counters["ci_low"] = result.estimate.ci_low;
    state.counters["ci_high"] = result.estimate.ci_high;
    state.counters["ci_half_width"] = result.estimate.half_width();
    state.counters["ess"] = result.estimate.ess;
    state.counters["shift_norm"] = result.shift.norm();
    state.counters["reached_target"] = result.reached_target ? 1.0 : 0.0;
}
BENCHMARK(BM_YieldSequentialImportance)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_YieldBimodalReference(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(bimodal_scenario().reference.yield);
    }
    reference_counters(state, bimodal_scenario());
}
BENCHMARK(BM_YieldBimodalReference)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Shared counter block of the two bimodal drivers. `pilot_skipped` is
/// logged for the artifact record; these drivers run their own pilots
/// directly, so it is 0 here - the flag is set by run_adaptive_yield when
/// a cross-point budget starves a pilot.
void bimodal_counters(benchmark::State& state,
                      const yield::SequentialYieldResult& result) {
    state.counters["samples"] =
        static_cast<double>(result.samples_used + result.pilot_samples);
    state.counters["yield"] = result.estimate.yield;
    state.counters["ci_low"] = result.estimate.ci_low;
    state.counters["ci_high"] = result.estimate.ci_high;
    state.counters["ci_half_width"] = result.estimate.half_width();
    state.counters["ess"] = result.estimate.ess;
    state.counters["ess_per_sample"] =
        result.samples_used > 0
            ? result.estimate.ess / static_cast<double>(result.samples_used)
            : 0.0;
    state.counters["components"] =
        static_cast<double>(result.proposal.components.size());
    state.counters["refinements"] = static_cast<double>(result.refinements);
    state.counters["reached_target"] = result.reached_target ? 1.0 : 0.0;
    state.counters["pilot_skipped"] = result.pilot_skipped ? 1.0 : 0.0;
}

void BM_YieldBimodalSingleShift(benchmark::State& state) {
    yield::SequentialYieldResult result;
    for (auto _ : state)
        result =
            run_estimator(bimodal_scenario(), yield::Estimator::single_shift);
    dump_trajectory("bimodal_single_shift", result);
    bimodal_counters(state, result);
}
BENCHMARK(BM_YieldBimodalSingleShift)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_YieldBimodalMixture(benchmark::State& state) {
    yield::SequentialYieldResult result;
    for (auto _ : state)
        result = run_estimator(bimodal_scenario(), yield::Estimator::mixture_ce);
    dump_trajectory("bimodal_mixture", result);
    bimodal_counters(state, result);
}
BENCHMARK(BM_YieldBimodalMixture)->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
