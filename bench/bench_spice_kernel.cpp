// Ablation A4 - simulator kernel throughput.
//
// The flow's cost is dominated by DC Newton solves and AC sweeps of the OTA
// testbench; this binary benchmarks those kernels plus the underlying LU
// factorisation at representative sizes, so changes to the numerics are
// caught before they hit the multi-minute experiments. The chunk benchmarks
// at the bottom report the headline engine number: per-point testbench
// rebuild vs prototype-reuse batch evaluation at paper-scale chunk sizes
// (population 100), with a cross-check between the two paths: within the
// reduced-sweep tolerances, since the prototype takes the Hessenberg-reduced
// sweep for every circuit (OTA, transistor-level and behavioural filter).

#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "circuits/filter.hpp"
#include "circuits/ota.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "linalg/lu.hpp"
#include "mc/monte_carlo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "process/variation.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/ac_sweep.hpp"
#include "spice/analysis/dc.hpp"
#include "util/rng.hpp"

using namespace ypm;

namespace {

/// Deterministic sizing chunk spanning the Table 1 box (seeded so the
/// rebuild and prototype benches see identical work).
std::vector<circuits::OtaSizing> sizing_chunk(std::size_t n) {
    Rng rng(2008);
    const auto specs = circuits::OtaSizing::parameter_specs();
    std::vector<circuits::OtaSizing> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        v.reserve(specs.size());
        for (const auto& s : specs) v.push_back(rng.uniform(s.lo, s.hi));
        out.push_back(circuits::OtaSizing::from_vector(v));
    }
    return out;
}

/// |a - b| <= tol, with NaN == NaN (failure sentinels).
bool near(double a, double b, double tol) {
    return (std::isnan(a) && std::isnan(b)) || std::fabs(a - b) <= tol;
}

// The reduced AC sweep's contract against the run_ac rebuild path (the same
// tolerances tests/test_prototype.cpp asserts).
constexpr double kGainTolDb = 1e-5;
constexpr double kPmTolDeg = 1e-6;
constexpr double kFreqRelTol = 1e-8;
constexpr double kPassbandTolDb = 1e-6;

/// V(out)/V(in) of a freshly built circuit through the generic DcSolver +
/// run_ac path; empty when DC or AC fails.
std::vector<std::complex<double>> rebuild_transfer(spice::Circuit& ckt,
                                                   const std::vector<double>& freqs,
                                                   const char* out, const char* in) {
    const spice::DcSolver solver;
    const spice::DcResult op = solver.solve(ckt);
    if (!op.converged) return {};
    try {
        const spice::AcResult ac = spice::run_ac(ckt, op.solution, freqs);
        return ac.transfer(*ckt.find_node(out), *ckt.find_node(in));
    } catch (const NumericalError&) {
        return {};
    }
}

/// The rebuild arm: one OTA point with no prototype - build the testbench,
/// bind the process (nullptr = nominal), solve it cold, extract the Bode
/// metrics.
circuits::OtaPerformance rebuild_ota(const circuits::OtaConfig& cfg,
                                     const circuits::OtaSizing& sizing,
                                     const process::Realization* real = nullptr) {
    circuits::OtaPerformance perf;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    if (real != nullptr) ckt.apply_process(*real);
    const auto freqs =
        spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const auto h = rebuild_transfer(ckt, freqs, "out", "inp");
    if (h.empty()) return perf;
    perf.bode = spice::bode_metrics(freqs, h);
    perf.gain_db = perf.bode.dc_gain_db;
    perf.pm_deg = perf.bode.phase_margin_deg;
    perf.valid = !std::isnan(perf.pm_deg) && perf.gain_db > 0.0;
    return perf;
}

/// Objective vectors of the two arms must agree within the reduced-sweep
/// tolerances (the OTA prototype takes the Hessenberg-reduced AC sweep).
bool chunk_matches_scalar(const circuits::OtaEvaluator& evaluator,
                          const std::vector<circuits::OtaSizing>& sizings) {
    const auto chunk = evaluator.measure_chunk(sizings);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto rebuilt = rebuild_ota(evaluator.config(), sizings[i]);
        if (rebuilt.valid != chunk[i].valid) return false;
        if (!rebuilt.valid) continue;
        if (!near(rebuilt.gain_db, chunk[i].gain_db, kGainTolDb) ||
            !near(rebuilt.pm_deg, chunk[i].pm_deg, kPmTolDeg))
            return false;
    }
    return true;
}

/// The Monte Carlo arm against per-sample cold rebuilds: the prototype
/// starts each sample's DC from the nominal OP, so the two agree within the
/// reduced-sweep tolerances, not bit for bit.
bool process_chunk_matches_rebuild(const circuits::OtaEvaluator& evaluator,
                                   const circuits::OtaSizing& sizing,
                                   const std::vector<process::Realization>& reals) {
    const auto chunk = evaluator.measure_chunk(sizing, reals);
    for (std::size_t i = 0; i < reals.size(); ++i) {
        const auto rebuilt = rebuild_ota(evaluator.config(), sizing, &reals[i]);
        if (rebuilt.valid != chunk[i].valid) return false;
        if (!rebuilt.valid) continue;
        if (!near(rebuilt.gain_db, chunk[i].gain_db, kGainTolDb) ||
            !near(rebuilt.pm_deg, chunk[i].pm_deg, kPmTolDeg))
            return false;
    }
    return true;
}

std::vector<circuits::FilterSizing> filter_sizing_chunk(std::size_t n) {
    Rng rng(42);
    std::vector<circuits::FilterSizing> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                       rng.uniform(2e-12, 60e-12)});
    return out;
}

/// The filter rebuild arm: build, solve, extract the mask metrics.
circuits::FilterPerformance rebuild_filter(const circuits::FilterEvaluator& evaluator,
                                           const circuits::FilterSizing& sizing,
                                           circuits::OtaModelKind kind) {
    const circuits::FilterConfig& cfg = evaluator.config();
    spice::Circuit ckt = circuits::build_filter(sizing, cfg, kind);
    const auto freqs =
        spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const auto h = rebuild_transfer(ckt, freqs, "vout", "vin");
    if (h.empty()) return {};
    return circuits::metrics_from_transfer(freqs, h, evaluator.mask());
}

bool filter_chunk_matches_scalar(
    const circuits::FilterEvaluator& evaluator,
    const std::vector<circuits::FilterSizing>& sizings,
    circuits::OtaModelKind kind) {
    const auto chunk = evaluator.measure_chunk(sizings, kind);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto rebuilt = rebuild_filter(evaluator, sizings[i], kind);
        if (rebuilt.valid != chunk[i].valid) return false;
        if (!rebuilt.valid) continue;
        const double fc = rebuilt.fc;
        if (!near(fc, chunk[i].fc, kFreqRelTol * std::fabs(fc)) ||
            !near(rebuilt.worst_passband_dev_db, chunk[i].worst_passband_dev_db,
                  kPassbandTolDb))
            return false;
    }
    return true;
}

void BM_LuFactorSolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    linalg::MatrixD a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += static_cast<double>(n);
    }
    std::vector<double> b(n, 1.0);
    for (auto _ : state) {
        auto x = linalg::solve(a, b);
        benchmark::DoNotOptimize(x);
    }
    state.SetComplexityN(static_cast<long long>(n));
}
BENCHMARK(BM_LuFactorSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_LuComplexFactorSolve(benchmark::State& state) {
    using C = std::complex<double>;
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(43);
    linalg::MatrixC a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        a(i, i) += C(static_cast<double>(n), 0.0);
    }
    std::vector<C> b(n, C(1.0, 0.0));
    for (auto _ : state) {
        auto x = linalg::solve(a, b);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_LuComplexFactorSolve)->Arg(8)->Arg(16)->Arg(32);

void BM_OtaDcOperatingPoint(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
        const spice::DcSolver solver;
        auto op = solver.solve(ckt);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_OtaDcOperatingPoint)->Unit(benchmark::kMicrosecond);

void BM_OtaAcSweep(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    const auto freqs = spice::log_sweep(cfg.f_start, cfg.f_stop,
                                        cfg.points_per_decade);
    for (auto _ : state) {
        auto ac = spice::run_ac(ckt, op.solution, freqs);
        benchmark::DoNotOptimize(ac);
    }
    state.counters["freq_points"] = static_cast<double>(freqs.size());
}
BENCHMARK(BM_OtaAcSweep)->Unit(benchmark::kMillisecond);

// The chunk kernels' AC sweep on the same testbench and frequencies: one
// Hessenberg reduction per operating point, then an O(n^2) solve per
// frequency, in a warm workspace. The bench-smoke CI job gates its median
// at >= 3x faster than BM_OtaAcSweep.
void BM_OtaAcSweepReduced(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    const auto freqs = spice::log_sweep(cfg.f_start, cfg.f_stop,
                                        cfg.points_per_decade);
    const auto out = *ckt.find_node("out");
    const auto inp = *ckt.find_node("inp");
    spice::AcSweepWorkspace ws;
    (void)spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp, ws);
    for (auto _ : state) {
        auto h = spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp, ws);
        benchmark::DoNotOptimize(h);
    }
    state.counters["freq_points"] = static_cast<double>(freqs.size());
}
BENCHMARK(BM_OtaAcSweepReduced)->Unit(benchmark::kMillisecond);

void BM_OtaFullMeasurement(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        auto perf = evaluator.measure(sizing);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_OtaFullMeasurement)->Unit(benchmark::kMillisecond);

void BM_CircuitConstruction(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        auto ckt = circuits::build_ota_testbench(sizing, cfg);
        benchmark::DoNotOptimize(ckt);
    }
}
BENCHMARK(BM_CircuitConstruction)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ chunk kernel comparison
//
// The headline pair: the same chunk of random sizings measured by
// rebuilding the full testbench per point (build_ota_testbench + DcSolver +
// run_ac, no prototype) vs through one shared CircuitPrototype
// (measure_chunk). Identical work, objective vectors equal within the
// reduced-sweep tolerances; `points_per_second` is the throughput to
// compare.

void BM_OtaChunkRebuildPerPoint(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = sizing_chunk(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (const auto& s : sizings) {
            auto perf = rebuild_ota(evaluator.config(), s);
            benchmark::DoNotOptimize(perf);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkRebuildPerPoint)
    ->Arg(16)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_OtaChunkPrototypeReuse(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = sizing_chunk(static_cast<std::size_t>(state.range(0)));
    if (!chunk_matches_scalar(evaluator, sizings)) {
        state.SkipWithError("prototype-reuse results diverge from rebuild path");
        return;
    }
    for (auto _ : state) {
        auto perfs = evaluator.measure_chunk(sizings);
        benchmark::DoNotOptimize(perfs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkPrototypeReuse)
    ->Arg(16)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// The Monte Carlo point: one sizing under a chunk of c35 process draws
// through one leased prototype, as every MC, corner and certification
// chunk runs it. Unlike BM_OtaChunkPrototypeReuse (nominal sizings only),
// each sample here starts its DC Newton from the sizing's cached nominal
// operating point.
void BM_OtaChunkUnderProcess(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto geometries =
        circuits::build_ota_testbench(sizing, evaluator.config()).mos_geometries();
    Rng rng(2008);
    std::vector<process::Realization> reals;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        reals.push_back(sampler.sample(rng, geometries));
    if (!process_chunk_matches_rebuild(evaluator, sizing, reals)) {
        state.SkipWithError("process chunk diverges from the rebuild path");
        return;
    }
    for (auto _ : state) {
        auto perfs = evaluator.measure_chunk(sizing, reals);
        benchmark::DoNotOptimize(perfs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkUnderProcess)->Arg(100)->Unit(benchmark::kMillisecond);

// Gate: disabled-mode observability is a no-op. The same chunk work as
// BM_OtaChunkPrototypeReuse plus exactly the instrumentation pattern the
// engine dispatch path runs per chunk - a disarmed obs::Span (one relaxed
// load and a branch), the guarded instant-event check, and the always-on
// per-chunk counter bump. The bench-smoke CI job asserts the throughput
// ratio against the uninstrumented twin stays >= 0.98.
void BM_OtaChunkObsDisabledOverhead(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = sizing_chunk(static_cast<std::size_t>(state.range(0)));
    obs::Counter& chunks =
        obs::MetricsRegistry::global().counter("bench.obs_overhead.chunks");
    for (auto _ : state) {
        obs::Span span("bench.chunk", "bench");
        auto perfs = evaluator.measure_chunk(sizings);
        span.arg("points", static_cast<double>(perfs.size()));
        if (obs::Tracer::enabled())
            obs::Tracer::instant("bench.tick", "bench",
                                 {{"points", static_cast<double>(perfs.size())}});
        chunks.add();
        benchmark::DoNotOptimize(perfs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkObsDisabledOverhead)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_FilterChunkRebuildPerPoint(benchmark::State& state) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings =
        filter_sizing_chunk(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (const auto& s : sizings) {
            auto perf = rebuild_filter(evaluator, s,
                                       circuits::OtaModelKind::behavioural);
            benchmark::DoNotOptimize(perf);
        }
    }
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterChunkRebuildPerPoint)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_FilterChunkPrototypeReuse(benchmark::State& state) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings =
        filter_sizing_chunk(static_cast<std::size_t>(state.range(0)));
    if (!filter_chunk_matches_scalar(evaluator, sizings,
                                     circuits::OtaModelKind::behavioural)) {
        state.SkipWithError("prototype-reuse results diverge from rebuild path");
        return;
    }
    for (auto _ : state) {
        auto perfs =
            evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
        benchmark::DoNotOptimize(perfs);
    }
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterChunkPrototypeReuse)->Arg(30)->Unit(benchmark::kMillisecond);

// ------------------------------------------- overlapped Monte Carlo stages
//
// The flow's step 4 runs, per Pareto point, a nominal Bode measurement, a
// Monte Carlo stage and the variation statistics. The blocking engine
// barriers between points: the pool drains, stragglers of the last chunk
// run alone, the serial Bode/stats work keeps the workers idle, then the
// next point starts from scratch. The async path submits every point's
// Bode batch and MC run up front and retires them in order, so chunks from
// all points stream onto the pool while the retiring thread does the
// serial work. Results are bit-identical (pre-checked once below).

constexpr std::size_t kMcParetoPoints = 6;
constexpr std::uint64_t kBodeBenchTag = 0x626f6465; // flow's nominal tag

/// The engine of one pass (each timed pass builds its own): a private pool
/// of 4 workers in both arms, so the overlap ratio does not move with the
/// host's core count (the shared global pool sizes itself to it).
eval::EngineConfig mc_engine_config() {
    eval::EngineConfig cfg;
    cfg.cache_capacity = 0;
    cfg.threads = 4;
    return cfg;
}

double consume_variation(const mc::McResult& result) {
    const auto gain_var = result.column_variation(0);
    const auto pm_var = result.column_variation(1);
    return gain_var.delta_3sigma_pct + pm_var.delta_3sigma_pct;
}

eval::ChunkKernelFn bode_kernel(const circuits::OtaEvaluator& evaluator) {
    return [&evaluator](std::span<const eval::EvalRequest* const> requests,
                        std::span<Rng>) {
        std::vector<circuits::OtaSizing> sizings;
        sizings.reserve(requests.size());
        for (const eval::EvalRequest* r : requests)
            sizings.push_back(circuits::OtaSizing::from_vector(r->params));
        std::vector<std::vector<double>> rows;
        rows.reserve(requests.size());
        for (const auto& perf : evaluator.measure_chunk(sizings)) {
            if (!perf.valid)
                rows.emplace_back(4, std::numeric_limits<double>::quiet_NaN());
            else
                rows.push_back({perf.gain_db, perf.pm_deg, perf.bode.f3db,
                                perf.bode.gbw});
        }
        return rows;
    };
}

struct PointOutcome {
    std::vector<double> bode;
    mc::McResult mc;
};

/// One full blocking pass over all points (the flow's step 4, point by
/// point): Bode batch, MC run, stats.
std::vector<PointOutcome>
run_points_blocking(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                    const process::ProcessSampler& sampler,
                    const std::vector<circuits::OtaSizing>& sizings,
                    std::size_t samples, Rng& rng, double& sink) {
    const eval::ChunkKernelFn bode = bode_kernel(evaluator);
    std::vector<PointOutcome> out;
    out.reserve(sizings.size());
    for (const auto& s : sizings) {
        PointOutcome point;
        eval::EvalBatch bode_batch(kBodeBenchTag);
        bode_batch.add(s.to_vector());
        point.bode =
            engine.evaluate(std::move(bode_batch), bode).front().values;
        point.mc = core::run_ota_monte_carlo(engine, evaluator, s, sampler,
                                             samples, rng);
        sink += consume_variation(point.mc);
        out.push_back(std::move(point));
    }
    return out;
}

/// The same pass overlapped: all Bode batches and MC runs in flight before
/// the first retirement.
std::vector<PointOutcome>
run_points_async(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                 const process::ProcessSampler& sampler,
                 const std::vector<circuits::OtaSizing>& sizings,
                 std::size_t samples, Rng& rng, double& sink) {
    const eval::ChunkKernelFn bode = bode_kernel(evaluator);
    std::vector<eval::Engine::Ticket> bode_tickets;
    std::vector<mc::McTicket> mc_tickets;
    bode_tickets.reserve(sizings.size());
    mc_tickets.reserve(sizings.size());
    for (const auto& s : sizings) {
        eval::EvalBatch bode_batch(kBodeBenchTag);
        bode_batch.add(s.to_vector());
        bode_tickets.push_back(engine.submit(std::move(bode_batch), bode));
        mc_tickets.push_back(core::submit_ota_monte_carlo(
            engine, evaluator, s, sampler, samples, rng));
    }
    std::vector<PointOutcome> out;
    out.reserve(sizings.size());
    for (std::size_t p = 0; p < sizings.size(); ++p) {
        PointOutcome point;
        point.bode = engine.wait(std::move(bode_tickets[p])).front().values;
        point.mc = mc::wait_monte_carlo(engine, std::move(mc_tickets[p]));
        sink += consume_variation(point.mc);
        out.push_back(std::move(point));
    }
    return out;
}

bool rows_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bit-identity cross-check, run once per process: the overlapped pass
/// must reproduce the blocking pass result-for-result (re-running it per
/// benchmark repetition would only add untimed wall-clock to CI).
bool async_mc_matches_blocking_once(std::size_t samples) {
    static const std::size_t checked_samples = samples;
    static const bool matches = [] {
        const circuits::OtaEvaluator evaluator;
        const process::ProcessSampler sampler(evaluator.config().card,
                                              process::VariationSpec::c35());
        const auto sizings = sizing_chunk(kMcParetoPoints);
        eval::Engine blocking(mc_engine_config()), async(mc_engine_config());
        Rng rb(2008), ra(2008);
        double sink_b = 0.0, sink_a = 0.0;
        const auto b = run_points_blocking(blocking, evaluator, sampler, sizings,
                                           checked_samples, rb, sink_b);
        const auto a = run_points_async(async, evaluator, sampler, sizings,
                                        checked_samples, ra, sink_a);
        for (std::size_t p = 0; p < sizings.size(); ++p) {
            if (!rows_bits_equal(a[p].bode, b[p].bode)) return false;
            if (a[p].mc.rows.size() != b[p].mc.rows.size()) return false;
            for (std::size_t i = 0; i < a[p].mc.rows.size(); ++i)
                if (!rows_bits_equal(a[p].mc.rows[i], b[p].mc.rows[i]))
                    return false;
        }
        return true;
    }();
    return samples == checked_samples && matches;
}

void BM_OtaMcParetoPointsBlocking(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = sizing_chunk(kMcParetoPoints);
    const auto samples = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        eval::Engine engine(mc_engine_config());
        Rng rng(2008);
        double sink = 0.0;
        auto outcomes = run_points_blocking(engine, evaluator, sampler, sizings,
                                            samples, rng, sink);
        benchmark::DoNotOptimize(outcomes);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kMcParetoPoints) *
                            state.range(0));
    state.counters["samples_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kMcParetoPoints) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaMcParetoPointsBlocking)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_OtaMcParetoPointsAsync(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = sizing_chunk(kMcParetoPoints);
    const auto samples = static_cast<std::size_t>(state.range(0));
    if (!async_mc_matches_blocking_once(samples)) {
        state.SkipWithError("overlapped MC results diverge from blocking engine");
        return;
    }
    for (auto _ : state) {
        eval::Engine engine(mc_engine_config());
        Rng rng(2008);
        double sink = 0.0;
        auto outcomes = run_points_async(engine, evaluator, sampler, sizings,
                                         samples, rng, sink);
        benchmark::DoNotOptimize(outcomes);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kMcParetoPoints) *
                            state.range(0));
    state.counters["samples_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kMcParetoPoints) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaMcParetoPointsAsync)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

} // namespace

BENCHMARK_MAIN();
