// Unit tests for the prototype-backed measurement path: spice::CircuitPrototype
// and every OTA/filter evaluator entry point (scalar and chunk) must agree
// with a fresh build of the testbench solved by the generic DcSolver +
// run_ac path - for OTA and filter, nominal and under process realisations -
// be safe to re-bind repeatedly, carry no state between callers of one warm
// lease, and be thread-count invariant when driven through the evaluation
// engine.
//
// Two contracts. Prototype results are bit-identical to each other: chunk
// vs scalar, warm vs cold lease, any engine thread count, MC chunk vs
// per-sample streams. Against the run_ac oracle, every circuit (OTA,
// transistor-level filter, behavioural filter) takes the Hessenberg-reduced
// sweep and agrees to the tolerances below; only a guard fallback is
// bit-identical to run_ac.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/filter_problem.hpp"
#include "circuits/ota_problem.hpp"
#include "core/flow.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "moo/population_eval.hpp"
#include "moo/wbga.hpp"
#include "obs/metrics.hpp"
#include "process/sampler.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/ac_sweep.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/devices/capacitor.hpp"
#include "spice/devices/controlled.hpp"
#include "spice/devices/sources.hpp"
#include "spice/prototype.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace {

using namespace ypm;

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise comparison that treats NaN == NaN (failure sentinels).
void expect_rows_identical(const std::vector<double>& a,
                           const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i])) continue;
        EXPECT_TRUE(bits_equal(a[i], b[i]))
            << "column " << i << ": " << a[i] << " vs " << b[i];
    }
}

void expect_perf_identical(const circuits::OtaPerformance& reference,
                           const circuits::OtaPerformance& actual) {
    ASSERT_EQ(reference.valid, actual.valid);
    if (!reference.valid) return;
    EXPECT_TRUE(bits_equal(reference.gain_db, actual.gain_db));
    EXPECT_TRUE(bits_equal(reference.pm_deg, actual.pm_deg));
    EXPECT_TRUE(bits_equal(reference.bode.unity_freq, actual.bode.unity_freq));
}

void expect_h_identical(const std::vector<std::complex<double>>& reference,
                        const std::vector<std::complex<double>>& actual) {
    ASSERT_EQ(reference.size(), actual.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(bits_equal(reference[i].real(), actual[i].real())) << "freq " << i;
        EXPECT_TRUE(bits_equal(reference[i].imag(), actual[i].imag())) << "freq " << i;
    }
}

// ------------------------------------------------ reduced-sweep tolerances
//
// How far the Hessenberg-reduced AC sweep may sit from the dense run_ac
// oracle. Measured worst cases over 400 random Table 1 sizings sit one to
// three orders of magnitude inside these.

constexpr double kGainTolDb = 1e-5;      ///< OTA DC gain, filter gains
constexpr double kPmTolDeg = 1e-6;       ///< OTA phase margin
constexpr double kFreqRelTol = 1e-8;     ///< f_unity and fc, relative
constexpr double kPassbandTolDb = 1e-6;  ///< filter passband deviation
constexpr double kHRelTol = 1e-5;        ///< |dh| <= kHRelTol*max(|h|, kHFloor)
constexpr double kHFloor = 1e-3;

/// |actual - reference| <= tol, with NaN == NaN (failure sentinels).
::testing::AssertionResult near_or_both_nan(double reference, double actual,
                                            double tol) {
    if (std::isnan(reference) && std::isnan(actual))
        return ::testing::AssertionSuccess();
    if (std::fabs(actual - reference) <= tol) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << actual << " vs " << reference << " (tolerance " << tol << ")";
}

::testing::AssertionResult rel_close(double reference, double actual, double rel) {
    return near_or_both_nan(reference, actual, rel * std::fabs(reference));
}

void expect_perf_close(const circuits::OtaPerformance& reference,
                       const circuits::OtaPerformance& actual) {
    ASSERT_EQ(reference.valid, actual.valid);
    if (!reference.valid) return;
    EXPECT_TRUE(near_or_both_nan(reference.gain_db, actual.gain_db, kGainTolDb));
    EXPECT_TRUE(near_or_both_nan(reference.pm_deg, actual.pm_deg, kPmTolDeg));
    EXPECT_TRUE(rel_close(reference.bode.unity_freq, actual.bode.unity_freq,
                          kFreqRelTol));
}

void expect_h_close(const std::vector<std::complex<double>>& reference,
                    const std::vector<std::complex<double>>& actual) {
    ASSERT_EQ(reference.size(), actual.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_LE(std::abs(actual[i] - reference[i]),
                  kHRelTol * std::max(std::abs(reference[i]), kHFloor))
            << "freq " << i << ": " << actual[i] << " vs " << reference[i];
}

/// OTA objective rows {gain_db, pm_deg} within the reduced-sweep contract.
void expect_ota_rows_close(const std::vector<double>& reference,
                           const std::vector<double>& actual) {
    ASSERT_EQ(reference.size(), 2u);
    ASSERT_EQ(actual.size(), 2u);
    EXPECT_TRUE(near_or_both_nan(reference[0], actual[0], kGainTolDb));
    EXPECT_TRUE(near_or_both_nan(reference[1], actual[1], kPmTolDeg));
}

// ------------------------------------------------------- rebuild oracle
//
// The reference every prototype result is held to: a freshly built
// circuit at the default OtaConfig / FilterConfig / FilterSpecMask, solved
// by the generic DcSolver + run_ac path. Nothing here touches a
// CircuitPrototype or an evaluator's pool.

/// V(out)/V(in) of a fresh circuit; empty when DC or AC fails.
std::vector<std::complex<double>> rebuild_transfer(spice::Circuit& ckt,
                                                   const std::vector<double>& freqs,
                                                   const std::string& out,
                                                   const std::string& in) {
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

std::vector<double> ota_freqs(const circuits::OtaConfig& cfg) {
    return spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
}

std::vector<std::complex<double>>
rebuild_ota_transfer(const circuits::OtaSizing& sizing,
                     const process::Realization* real,
                     const circuits::OtaConfig& cfg = {}) {
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    if (real != nullptr) ckt.apply_process(*real);
    return rebuild_transfer(ckt, ota_freqs(cfg), "out", "inp");
}

circuits::OtaPerformance rebuild_ota(const circuits::OtaSizing& sizing,
                                     const process::Realization* real,
                                     const circuits::OtaConfig& cfg = {}) {
    circuits::OtaPerformance perf;
    const auto h = rebuild_ota_transfer(sizing, real, cfg);
    if (h.empty()) return perf;
    perf.bode = spice::bode_metrics(ota_freqs(cfg), h);
    perf.gain_db = perf.bode.dc_gain_db;
    perf.pm_deg = perf.bode.phase_margin_deg;
    perf.valid = !std::isnan(perf.pm_deg) && perf.gain_db > 0.0;
    return perf;
}

std::vector<double> ota_row(const circuits::OtaPerformance& perf) {
    if (!perf.valid) return moo::failed_evaluation(2);
    return {perf.gain_db, perf.pm_deg};
}

std::vector<double> filter_freqs(const circuits::FilterConfig& cfg) {
    return spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
}

std::vector<std::complex<double>>
rebuild_filter_transfer(const circuits::FilterSizing& sizing,
                        circuits::OtaModelKind kind,
                        const va::BehaviouralOtaSpec* ota1 = nullptr,
                        const va::BehaviouralOtaSpec* ota2 = nullptr,
                        const process::Realization* real = nullptr) {
    const circuits::FilterConfig cfg;
    spice::Circuit ckt = circuits::build_filter(sizing, cfg, kind);
    if (ota1 != nullptr)
        dynamic_cast<va::BehaviouralOta&>(*ckt.find_device("ota1")).set_spec(*ota1);
    if (ota2 != nullptr)
        dynamic_cast<va::BehaviouralOta&>(*ckt.find_device("ota2")).set_spec(*ota2);
    if (real != nullptr) ckt.apply_process(*real);
    return rebuild_transfer(ckt, filter_freqs(cfg), "vout", "vin");
}

circuits::FilterPerformance
rebuild_filter(const circuits::FilterSizing& sizing, circuits::OtaModelKind kind,
               const va::BehaviouralOtaSpec* ota1 = nullptr,
               const va::BehaviouralOtaSpec* ota2 = nullptr,
               const process::Realization* real = nullptr) {
    const auto h = rebuild_filter_transfer(sizing, kind, ota1, ota2, real);
    if (h.empty()) return {};
    return circuits::metrics_from_transfer(filter_freqs(circuits::FilterConfig{}), h,
                                           circuits::FilterSpecMask{});
}

void expect_filter_identical(const circuits::FilterPerformance& reference,
                             const circuits::FilterPerformance& actual) {
    ASSERT_EQ(reference.valid, actual.valid);
    if (!reference.valid) return;
    EXPECT_TRUE(bits_equal(reference.fc, actual.fc));
    EXPECT_TRUE(bits_equal(reference.passband_gain_db, actual.passband_gain_db));
    EXPECT_TRUE(bits_equal(reference.stopband_atten_db, actual.stopband_atten_db));
    EXPECT_TRUE(bits_equal(reference.worst_passband_dev_db,
                           actual.worst_passband_dev_db));
}

void expect_filter_close(const circuits::FilterPerformance& reference,
                         const circuits::FilterPerformance& actual) {
    ASSERT_EQ(reference.valid, actual.valid);
    if (!reference.valid) return;
    EXPECT_TRUE(rel_close(reference.fc, actual.fc, kFreqRelTol));
    EXPECT_TRUE(near_or_both_nan(reference.passband_gain_db,
                                 actual.passband_gain_db, kGainTolDb));
    EXPECT_TRUE(near_or_both_nan(reference.stopband_atten_db,
                                 actual.stopband_atten_db, kGainTolDb));
    EXPECT_TRUE(near_or_both_nan(reference.worst_passband_dev_db,
                                 actual.worst_passband_dev_db, kPassbandTolDb));
}

std::vector<double> filter_row(const circuits::FilterPerformance& perf) {
    const circuits::FilterSpecMask mask;
    if (!perf.valid || std::isnan(perf.fc)) return moo::failed_evaluation(2);
    return {std::fabs(perf.fc - mask.fc_target) / mask.fc_target,
            perf.worst_passband_dev_db};
}

/// Filter objective rows {|fc - target|/target, worst passband deviation}
/// within the reduced-sweep contract: fc/target = 1 +- row[0], so the fc
/// tolerance is kFreqRelTol * (1 + row[0]) on the first column.
void expect_filter_rows_close(const std::vector<double>& reference,
                              const std::vector<double>& actual) {
    ASSERT_EQ(reference.size(), 2u);
    ASSERT_EQ(actual.size(), 2u);
    EXPECT_TRUE(near_or_both_nan(reference[0], actual[0],
                                 kFreqRelTol * (1.0 + reference[0])));
    EXPECT_TRUE(near_or_both_nan(reference[1], actual[1], kPassbandTolDb));
}

std::vector<circuits::FilterSizing> random_filter_sizings(std::size_t n,
                                                          std::uint64_t seed) {
    Rng rng(seed);
    std::vector<circuits::FilterSizing> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                       rng.uniform(2e-12, 60e-12)});
    return out;
}

std::vector<circuits::OtaSizing> random_sizings(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    const auto specs = circuits::OtaSizing::parameter_specs();
    std::vector<circuits::OtaSizing> out;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        for (const auto& s : specs) v.push_back(rng.uniform(s.lo, s.hi));
        out.push_back(circuits::OtaSizing::from_vector(v));
    }
    return out;
}

// -------------------------------------------------------- sweep primitives

std::uint64_t counter_value(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
}

TEST(AcSweep, TransferMatchesRunAc) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    ASSERT_TRUE(op.converged);
    const auto freqs =
        spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const auto ac = spice::run_ac(ckt, op.solution, freqs);
    const auto out = *ckt.find_node("out");
    const auto inp = *ckt.find_node("inp");
    const auto h_ref = ac.transfer(out, inp);

    const std::uint64_t reduced = counter_value("spice.ac.reduced_sweeps");
    spice::AcSweepWorkspace ws;
    const auto h = spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp, ws);
    // The all-affine OTA testbench takes the reduced path.
    EXPECT_EQ(counter_value("spice.ac.reduced_sweeps"), reduced + 1);
    expect_h_close(h_ref, h);
}

TEST(AcSweep, ReducedMatchesDenseAcrossSizingsAndRealizations) {
    // 200 random Table 1 sizings, every other one under a c35 process
    // realisation: the reduced sweep must answer every one (no guard
    // fallback) and stay within tolerance of run_ac in h and in the Bode
    // metrics the flow optimises.
    const circuits::OtaConfig cfg;
    const auto freqs = ota_freqs(cfg);
    const process::ProcessSampler sampler(cfg.card, process::VariationSpec::c35());
    const auto sizings = random_sizings(200, 2008);
    Rng rng(97);
    spice::AcSweepWorkspace ws;
    const std::uint64_t reduced = counter_value("spice.ac.reduced_sweeps");
    const std::uint64_t fallbacks = counter_value("spice.ac.guard_fallbacks");
    std::uint64_t swept = 0;
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        spice::Circuit ckt = circuits::build_ota_testbench(sizings[i], cfg);
        if (i % 2 == 1) ckt.apply_process(sampler.sample(rng, ckt.mos_geometries()));
        const spice::DcSolver solver;
        const auto op = solver.solve(ckt);
        if (!op.converged) continue;
        const auto out = *ckt.find_node("out");
        const auto inp = *ckt.find_node("inp");
        const auto h_ref = spice::run_ac(ckt, op.solution, freqs).transfer(out, inp);
        const auto h = spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp, ws);
        ++swept;
        expect_h_close(h_ref, h);
        const auto bode_ref = spice::bode_metrics(freqs, h_ref);
        const auto bode = spice::bode_metrics(freqs, h);
        EXPECT_TRUE(near_or_both_nan(bode_ref.dc_gain_db, bode.dc_gain_db, kGainTolDb))
            << "point " << i;
        EXPECT_TRUE(near_or_both_nan(bode_ref.phase_margin_deg, bode.phase_margin_deg,
                                     kPmTolDeg))
            << "point " << i;
        EXPECT_TRUE(rel_close(bode_ref.unity_freq, bode.unity_freq, kFreqRelTol))
            << "point " << i;
    }
    EXPECT_GE(swept, 190u);
    EXPECT_EQ(counter_value("spice.ac.reduced_sweeps"), reduced + swept);
    EXPECT_EQ(counter_value("spice.ac.guard_fallbacks"), fallbacks);
}

TEST(AcSweep, GuardFallsBackToDense) {
    // A negative conductance g across a capacitor C with g/C equal to the
    // sweep's shift s0 makes A0 = K + s0*C exactly singular (the 1e-15 node
    // floor rounds away against g >= 16). The guard must hand the whole
    // sweep to the dense path, which is bit-identical to run_ac.
    const auto freqs = spice::log_sweep(1.0, 1e6, 10);
    const double s0 = 2.0 * mathx::pi * std::sqrt(freqs.front() * freqs.back());
    ASSERT_GE(s0, 16.0);
    spice::Circuit ckt;
    const spice::NodeId in = ckt.node("in");
    const spice::NodeId x = ckt.node("x");
    ckt.add<spice::VoltageSource>("vin", in, spice::ground, 0.0, 1.0);
    ckt.add<spice::Vccs>("gin", spice::ground, x, in, spice::ground, 1e-3);
    ckt.add<spice::Capacitor>("c", x, spice::ground, 1.0);
    ckt.add<spice::Vccs>("gneg", x, spice::ground, x, spice::ground, -s0);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    ASSERT_TRUE(op.converged);
    const auto h_ref = spice::run_ac(ckt, op.solution, freqs).transfer(x, in);

    const std::uint64_t fallbacks = counter_value("spice.ac.guard_fallbacks");
    const std::uint64_t reduced = counter_value("spice.ac.reduced_sweeps");
    spice::AcSweepWorkspace ws;
    const auto h = spice::ac_sweep_transfer(ckt, op.solution, freqs, x, in, ws);
    EXPECT_EQ(counter_value("spice.ac.guard_fallbacks"), fallbacks + 1);
    EXPECT_EQ(counter_value("spice.ac.reduced_sweeps"), reduced);
    expect_h_identical(h_ref, h);
}

/// A front design and its index in the WBGA archive.
struct FrontDesign {
    std::size_t archive_index;
    circuits::OtaSizing sizing;
};

/// Both ends of three small WBGA fronts, as the yield_certify benchmark
/// workload picks its designs.
std::vector<FrontDesign> wbga_front_designs() {
    const circuits::OtaProblem problem;
    moo::WbgaConfig ga;
    ga.population = 24;
    ga.generations = 8;
    std::vector<FrontDesign> designs;
    for (std::uint64_t g = 0; g < 3; ++g) {
        Rng ga_rng = Rng(2024).child(1 + g);
        const moo::WbgaResult archive = moo::Wbga(problem, ga).run(ga_rng);
        std::vector<std::size_t> front;
        for (std::size_t idx : core::extract_front_indices(archive)) {
            const auto& o = archive.archive[idx].objectives;
            if (!moo::evaluation_failed(o) && o[1] >= 10.0 && o[0] >= 1.0)
                front.push_back(idx);
        }
        EXPECT_GE(front.size(), 2u);
        if (front.empty()) continue;
        for (std::size_t idx : {front.front(), front.back()})
            designs.push_back(
                {idx, circuits::OtaSizing::from_vector(archive.archive[idx].params)});
    }
    return designs;
}

/// `n` c35 draws for `sizing` at `scale` x the nominal sigma.
std::vector<process::Realization> widened_draws(const circuits::OtaSizing& sizing,
                                                double scale, std::size_t n,
                                                Rng rng) {
    const circuits::OtaConfig cfg;
    const process::ProcessSampler sampler(cfg.card, process::VariationSpec::c35());
    const auto geometries = circuits::build_ota_testbench(sizing, cfg).mos_geometries();
    process::SampleShift widened;
    widened.scale = scale;
    std::vector<process::Realization> reals;
    for (std::size_t i = 0; i < n; ++i)
        reals.push_back(sampler.sample_shifted(rng, geometries, widened).realization);
    return reals;
}

TEST(AcSweep, FrontDesignsUnderWidenedDrawsStayReduced) {
    // Regression for the balancing step of the reduction: the OTA
    // testbench's 1e6 H feedback inductor and 1 F AC ground beside fF-pF
    // device capacitances leave M = A0^-1 C badly scaled. Unbalanced, the
    // reduction missed the endpoint guard at f_start on up to a quarter of
    // the sweeps of the front's high-PM end (~50 dB gain) under widened
    // process draws. Designs: both ends of small WBGA fronts; draws: the
    // yield_certify workload's certification pilot proposal (sigma x 2).
    const circuits::OtaEvaluator evaluator;
    const auto designs = wbga_front_designs();
    ASSERT_EQ(designs.size(), 6u);
    const std::uint64_t fallbacks = counter_value("spice.ac.guard_fallbacks");
    std::size_t valid = 0;
    for (const auto& [idx, sizing] : designs)
        for (const auto& perf : evaluator.measure_chunk(
                 sizing, widened_draws(sizing, 2.0, 48, Rng(91).child(idx))))
            if (perf.valid) ++valid;
    EXPECT_GE(valid, 250u);
    EXPECT_EQ(counter_value("spice.ac.guard_fallbacks"), fallbacks);
}

// ---------------------------------------------------------------- warm DC
//
// A process sample's DC Newton starts from its sizing's nominal OP. The
// contract: the same operating point as a cold solve within the Newton
// tolerances, the cold path whenever the nominal OP cannot answer, and
// results that stay a function of (sizing, realisation) alone.

TEST(WarmDc, MatchesColdOverWidenedDrawsOfFrontDesigns) {
    // sigma x 3 draws, wider than the certification pilot's x 2.
    const circuits::OtaConfig cfg;
    const std::uint64_t fallbacks = counter_value("spice.dc.warm_fallbacks");
    std::size_t compared = 0;
    std::size_t warm_iterations = 0;
    std::size_t cold_iterations = 0;
    const auto designs = wbga_front_designs();
    ASSERT_EQ(designs.size(), 6u);
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const circuits::OtaSizing& sizing = designs[d].sizing;
        spice::CircuitPrototype proto(circuits::build_ota_testbench(sizing, cfg));
        auto inst = proto.instance();
        const spice::DcResult nominal = inst.solve_op();
        ASSERT_TRUE(nominal.converged);
        for (const auto& real : widened_draws(sizing, 3.0, 32, Rng(93).child(d))) {
            inst.bind_process(&real);
            const spice::DcResult cold = inst.solve_op();
            const spice::DcResult warm = inst.solve_op(nominal.solution);
            ASSERT_TRUE(cold.converged);
            ASSERT_TRUE(warm.converged);
            EXPECT_EQ(warm.method, "newton");
            for (std::size_t i = 0; i < proto.circuit().node_count(); ++i)
                EXPECT_LE(std::fabs(warm.solution.raw()[i] - cold.solution.raw()[i]),
                          1e-8)
                    << "design " << d << " node " << i;
            warm_iterations += warm.iterations;
            cold_iterations += cold.iterations;
            ++compared;
        }
    }
    EXPECT_EQ(compared, 6u * 32u);
    EXPECT_EQ(counter_value("spice.dc.warm_fallbacks"), fallbacks);
    EXPECT_LT(2 * warm_iterations, cold_iterations);
}

TEST(WarmDc, FailedNominalMeasuresSamplesCold) {
    // A 120 A tail: the nominal OP does not converge, while about half of
    // the process samples do from a cold start. With no nominal OP to start
    // from, every sample must take the cold path and answer like the
    // fresh-build oracle.
    circuits::OtaConfig cfg;
    cfg.i_tail = 120.0;
    const circuits::OtaEvaluator evaluator(cfg);
    const circuits::OtaSizing sizing;
    const auto nominal = evaluator.measure(sizing);
    ASSERT_FALSE(nominal.valid);
    ASSERT_EQ(nominal.failure, "dc operating point did not converge");

    const process::ProcessSampler sampler(cfg.card, process::VariationSpec::c35());
    const auto geometries = circuits::build_ota_testbench(sizing, cfg).mos_geometries();
    Rng rng(5);
    std::vector<process::Realization> reals;
    for (int i = 0; i < 40; ++i) reals.push_back(sampler.sample(rng, geometries));

    const std::uint64_t starts = counter_value("spice.dc.warm_starts");
    const auto chunk = evaluator.measure_chunk(sizing, reals);
    EXPECT_EQ(counter_value("spice.dc.warm_starts"), starts);
    std::size_t dc_converged = 0;
    for (std::size_t i = 0; i < reals.size(); ++i) {
        spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
        ckt.apply_process(reals[i]);
        const bool converged = spice::DcSolver().solve(ckt).converged;
        EXPECT_EQ(converged, chunk[i].failure != "dc operating point did not converge")
            << "sample " << i;
        if (converged) ++dc_converged;
        expect_perf_close(rebuild_ota(sizing, &reals[i], cfg), chunk[i]);
        expect_perf_identical(chunk[i], evaluator.measure(sizing, reals[i]));
    }
    EXPECT_GT(dc_converged, 0u);
}

TEST(WarmDc, BitIdenticalAcrossEntryPointsLeasesAndThreads) {
    // The cached nominal OP is a function of the sizing alone, so whether
    // a lease hits or misses the cache, which entry point asks and how the
    // engine splits the samples must not show in a single bit.
    const circuits::OtaSizing sizing = random_sizings(1, 83).front();
    const auto reals = widened_draws(sizing, 2.0, 24, Rng(89));
    const std::uint64_t starts = counter_value("spice.dc.warm_starts");

    const circuits::OtaEvaluator fresh;
    const auto cold_lease = fresh.measure_chunk(sizing, reals);
    EXPECT_GT(counter_value("spice.dc.warm_starts"), starts);
    std::size_t valid = 0;
    for (std::size_t i = 0; i < reals.size(); ++i) {
        expect_perf_close(rebuild_ota(sizing, &reals[i]), cold_lease[i]);
        if (cold_lease[i].valid) ++valid;
    }
    EXPECT_GT(valid, 0u);

    // A lease warm on another sizing's nominal OP, then a cache hit.
    const circuits::OtaEvaluator used;
    const auto other = random_sizings(2, 97);
    (void)used.measure_chunk(other[0], widened_draws(other[0], 1.0, 4, Rng(3)));
    const std::vector<circuits::OtaSizing> repeated(reals.size(), sizing);
    const std::uint64_t misses = counter_value("ota.nominal_op_misses");
    const std::vector<std::vector<circuits::OtaPerformance>> runs = {
        used.measure_chunk(sizing, reals), used.measure_chunk(sizing, reals),
        used.measure_chunk(repeated, reals)};
    // The first chunk misses the cache once; its repeats hit.
    EXPECT_EQ(counter_value("ota.nominal_op_misses"), misses + 1);
    for (const auto& run : runs)
        for (std::size_t i = 0; i < reals.size(); ++i)
            expect_perf_identical(cold_lease[i], run[i]);
    (void)used.measure(other[1]);
    for (std::size_t i = 0; i < reals.size(); ++i)
        expect_perf_identical(cold_lease[i], used.measure(sizing, reals[i]));
    // A nominal measure re-keys the cache: the first scalar sample misses.
    EXPECT_EQ(counter_value("ota.nominal_op_misses"), misses + 2);

    // Monte Carlo through engines of 1, 2 and 4 threads.
    const process::ProcessSampler sampler(fresh.config().card,
                                          process::VariationSpec::c35());
    std::vector<mc::McResult> mc_runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        eval::EngineConfig config;
        config.threads = threads;
        eval::Engine engine(config);
        Rng rng(101);
        mc_runs.push_back(
            core::run_ota_monte_carlo(engine, used, sizing, sampler, 40, rng));
    }
    for (std::size_t t = 1; t < mc_runs.size(); ++t) {
        ASSERT_EQ(mc_runs[t].rows.size(), mc_runs[0].rows.size());
        for (std::size_t i = 0; i < mc_runs[0].rows.size(); ++i)
            expect_rows_identical(mc_runs[0].rows[i], mc_runs[t].rows[i]);
    }
}

TEST(CircuitPrototype, CachesStructureAndSlots) {
    spice::CircuitPrototype proto(
        circuits::build_ota_testbench(circuits::OtaSizing{}, {}));
    EXPECT_TRUE(proto.circuit().finalized());
    EXPECT_EQ(proto.mosfets().size(), 10u);
    EXPECT_EQ(proto.node("out"), *proto.circuit().find_node("out"));
    EXPECT_NO_THROW((void)proto.device<spice::Mosfet>("m1"));
    EXPECT_THROW((void)proto.device<spice::Mosfet>("nope"), InvalidInputError);
    EXPECT_THROW((void)proto.node("nope"), InvalidInputError);
}

// ------------------------------------------------------------- OTA chunks

TEST(OtaChunk, BitIdenticalToScalarAcrossRandomSizings) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(12, 7);
    const auto chunk = evaluator.measure_chunk(sizings);
    ASSERT_EQ(chunk.size(), sizings.size());
    std::size_t valid = 0;
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto reference = rebuild_ota(sizings[i], nullptr);
        expect_perf_close(reference, chunk[i]);
        expect_perf_identical(chunk[i], evaluator.measure(sizings[i]));
        if (reference.valid) ++valid;
    }
    // The box sampling must exercise the real path, not just failures.
    EXPECT_GT(valid, 0u);
}

TEST(OtaChunk, BitIdenticalUnderProcessRealizations) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing; // nominal center point
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, evaluator.config());
    const auto geometries = ckt.mos_geometries();
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());

    Rng rng(11);
    std::vector<process::Realization> reals;
    for (int i = 0; i < 8; ++i) reals.push_back(sampler.sample(rng, geometries));

    const auto chunk = evaluator.measure_chunk(sizing, reals);
    ASSERT_EQ(chunk.size(), reals.size());
    for (std::size_t i = 0; i < reals.size(); ++i) {
        const auto reference = rebuild_ota(sizing, &reals[i]);
        expect_perf_close(reference, chunk[i]);
        expect_perf_identical(chunk[i], evaluator.measure(sizing, reals[i]));
    }
}

TEST(OtaChunk, PairedSizingsAndRealizations) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(5, 3);
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    Rng rng(5);
    std::vector<process::Realization> reals;
    for (const auto& s : sizings) {
        spice::Circuit ckt = circuits::build_ota_testbench(s, evaluator.config());
        reals.push_back(sampler.sample(rng, ckt.mos_geometries()));
    }
    const auto chunk = evaluator.measure_chunk(sizings, reals);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto reference = rebuild_ota(sizings[i], &reals[i]);
        expect_perf_close(reference, chunk[i]);
        expect_perf_identical(chunk[i], evaluator.measure(sizings[i], reals[i]));
    }
}

TEST(OtaChunk, PairedChunkRejectsMismatchedSizes) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(2, 1);
    const std::vector<process::Realization> reals(1);
    EXPECT_THROW((void)evaluator.measure_chunk(sizings, reals), InvalidInputError);
}

TEST(OtaChunk, PrototypeSafeToRebindRepeatedly) {
    // A -> B -> A through one prototype: the third measurement must equal
    // the first bit-for-bit (no state leaks across re-binds), and both must
    // agree with the fresh-build path.
    const circuits::OtaEvaluator evaluator;
    const auto ab = random_sizings(2, 19);
    const std::vector<circuits::OtaSizing> seq = {ab[0], ab[1], ab[0], ab[1],
                                                  ab[0]};
    const auto chunk = evaluator.measure_chunk(seq);
    expect_perf_identical(chunk[0], chunk[2]);
    expect_perf_identical(chunk[0], chunk[4]);
    expect_perf_identical(chunk[1], chunk[3]);
    expect_perf_close(rebuild_ota(ab[0], nullptr), chunk[0]);
    expect_perf_close(rebuild_ota(ab[1], nullptr), chunk[1]);
}

// ---------------------------------------------------------- prototype pool

TEST(PrototypePool, WarmInstanceBitIdenticalToCold) {
    // The persistent pool hands the same instance to successive chunk
    // calls; a warm instance (already measured dozens of points) must
    // answer bit-identically to a cold instance's measurement.
    const circuits::OtaEvaluator evaluator;
    const auto first = random_sizings(8, 41);
    const auto second = random_sizings(8, 43);

    const auto cold_rows = evaluator.measure_chunk(first);
    ASSERT_GE(evaluator.prototype_pool().created(), 1u);
    const std::size_t created_after_first = evaluator.prototype_pool().created();

    // Second chunk: must reuse the warm instance, not build a new one.
    const auto warm_rows = evaluator.measure_chunk(second);
    EXPECT_EQ(evaluator.prototype_pool().created(), created_after_first);
    EXPECT_GE(evaluator.prototype_pool().idle(), 1u);

    // Warm results equal a *fresh* evaluator's cold results bit-for-bit.
    const circuits::OtaEvaluator fresh;
    const auto fresh_rows = fresh.measure_chunk(second);
    ASSERT_EQ(warm_rows.size(), fresh_rows.size());
    for (std::size_t i = 0; i < warm_rows.size(); ++i)
        expect_perf_identical(fresh_rows[i], warm_rows[i]);
    // ... and the fresh-build oracle agrees too.
    for (std::size_t i = 0; i < warm_rows.size(); ++i)
        expect_perf_close(rebuild_ota(second[i], nullptr), warm_rows[i]);
    (void)cold_rows;
}

TEST(PrototypePool, WarmReuseAcrossMixedChunkEntryPoints) {
    // All three OTA chunk entry points lease from one pool: sizing-only,
    // paired, and one-sizing/many-realisations calls share warm instances.
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = random_sizings(4, 47);

    (void)evaluator.measure_chunk(sizings);
    const std::size_t created = evaluator.prototype_pool().created();

    Rng rng(3);
    spice::Circuit tb =
        circuits::build_ota_testbench(sizings[0], evaluator.config());
    const auto geometries = tb.mos_geometries();
    std::vector<process::Realization> reals;
    for (int i = 0; i < 4; ++i)
        reals.push_back(sampler.sample(rng, geometries));

    (void)evaluator.measure_chunk(sizings, reals);
    (void)evaluator.measure_chunk(sizings[0], reals);
    EXPECT_EQ(evaluator.prototype_pool().created(), created);

    // Re-binding through the warm instance leaks no process state: the
    // nominal chunk after process-bound chunks equals a cold instance's
    // chunk bit for bit, and agrees with a fresh build.
    const auto after = evaluator.measure_chunk(sizings);
    const auto cold = circuits::OtaEvaluator{}.measure_chunk(sizings);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        expect_perf_identical(cold[i], after[i]);
        expect_perf_close(rebuild_ota(sizings[i], nullptr), after[i]);
    }
}

TEST(PrototypePool, FilterPoolKeyedByModelKind) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings = random_filter_sizings(4, 53);

    // The behavioural and transistor testbenches are structurally different
    // circuits, so each kind builds (and then reuses) its own prototype.
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
    EXPECT_EQ(evaluator.prototype_pool().created(), 1u);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::transistor);
    EXPECT_EQ(evaluator.prototype_pool().created(), 2u);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::transistor);
    EXPECT_EQ(evaluator.prototype_pool().created(), 2u);
    EXPECT_EQ(evaluator.prototype_pool().idle(), 2u);

    // Warm reuse stays bit-identical to a cold instance for both kinds, and
    // matches a fresh build within the reduced-sweep tolerances.
    for (auto kind : {circuits::OtaModelKind::behavioural,
                      circuits::OtaModelKind::transistor}) {
        const auto warm = evaluator.measure_chunk(sizings, kind);
        const auto cold = circuits::FilterEvaluator{circuits::FilterConfig{},
                                                    circuits::FilterSpecMask{}}
                              .measure_chunk(sizings, kind);
        for (std::size_t i = 0; i < sizings.size(); ++i) {
            const auto reference = rebuild_filter(sizings[i], kind);
            ASSERT_EQ(reference.valid, warm[i].valid);
            if (!reference.valid) continue;
            expect_filter_identical(cold[i], warm[i]);
            expect_filter_close(reference, warm[i]);
        }
    }
}

TEST(PrototypePool, CopiedEvaluatorSharesWarmPool) {
    // Copies (constructed and assigned) measure the same configuration, so
    // they lease from the original's warm pool instead of building anew.
    const auto shares_pool = [](const auto& original, const auto& measure) {
        measure(original, 0);
        const std::size_t created = original.prototype_pool().created();
        const auto copy = original;
        measure(copy, 1);
        EXPECT_EQ(original.prototype_pool().created(), created);
        EXPECT_EQ(&copy.prototype_pool(), &original.prototype_pool());
        auto assigned = original;
        assigned = copy;
        measure(assigned, 2);
        EXPECT_EQ(original.prototype_pool().created(), created);
    };
    shares_pool(circuits::OtaEvaluator{},
                [](const circuits::OtaEvaluator& ev, std::uint64_t k) {
                    (void)ev.measure_chunk(random_sizings(2, 59 + 2 * k));
                });
    shares_pool(circuits::FilterEvaluator{circuits::FilterConfig{},
                                          circuits::FilterSpecMask{}},
                [](const circuits::FilterEvaluator& ev, std::uint64_t k) {
                    (void)ev.measure_chunk(random_filter_sizings(2, 59 + 2 * k),
                                           circuits::OtaModelKind::behavioural);
                });
}

TEST(PrototypePool, LeaseCarriesNoStateBetweenCallers) {
    // Every entry point leases from one pool, so a warm instance goes from
    // a caller that bound perturbed specs or a process realisation straight
    // to a nominal caller. Each call must re-bind every slot: the nominal
    // call on the same warm lease matches a cold lease bit-for-bit, and a
    // fresh build within the reduced-sweep tolerances.
    using circuits::OtaModelKind;
    const circuits::FilterEvaluator filter{circuits::FilterConfig{},
                                           circuits::FilterSpecMask{}};
    const circuits::FilterEvaluator cold_filter{circuits::FilterConfig{},
                                                circuits::FilterSpecMask{}};
    const circuits::FilterSizing fsizing;
    const auto f_nominal = rebuild_filter(fsizing, OtaModelKind::behavioural);
    ASSERT_TRUE(f_nominal.valid);

    // Behavioural kind: perturbed macromodel specs, then nominal.
    va::BehaviouralOtaSpec slow = filter.config().ota_spec;
    slow.gain_db -= 6.0;
    slow.f3db *= 0.5;
    va::BehaviouralOtaSpec weak = filter.config().ota_spec;
    weak.gain_db -= 20.0;
    const auto perturbed = filter.measure_behavioural(fsizing, slow, weak);
    expect_filter_close(
        rebuild_filter(fsizing, OtaModelKind::behavioural, &slow, &weak),
        perturbed);
    ASSERT_TRUE(perturbed.valid);
    EXPECT_FALSE(bits_equal(perturbed.passband_gain_db, f_nominal.passband_gain_db));
    const auto b_warm = filter.measure(fsizing, OtaModelKind::behavioural);
    expect_filter_close(f_nominal, b_warm);
    expect_filter_identical(
        cold_filter.measure(fsizing, OtaModelKind::behavioural), b_warm);
    EXPECT_EQ(filter.prototype_pool().created(), 1u);

    // The AC response on the same warm lease is the fresh run_ac transfer.
    const auto f_resp = filter.ac_response(fsizing, OtaModelKind::behavioural);
    EXPECT_EQ(f_resp.freqs, filter_freqs(filter.config()));
    expect_h_close(rebuild_filter_transfer(fsizing, OtaModelKind::behavioural),
                   f_resp.h);
    expect_h_identical(
        cold_filter.ac_response(fsizing, OtaModelKind::behavioural).h,
        f_resp.h);

    // Transistor kind: a process realisation, then nominal.
    const process::ProcessSampler sampler(filter.config().ota_config.card,
                                          process::VariationSpec::c35());
    Rng rng(71);
    const process::Realization real = sampler.sample(
        rng, circuits::build_filter(fsizing, filter.config(), OtaModelKind::transistor)
                 .mos_geometries());
    const auto t_nominal = rebuild_filter(fsizing, OtaModelKind::transistor);
    const auto varied = filter.measure_transistor(fsizing, real);
    expect_filter_close(
        rebuild_filter(fsizing, OtaModelKind::transistor, nullptr, nullptr, &real),
        varied);
    const auto t_warm = filter.measure(fsizing, OtaModelKind::transistor);
    expect_filter_close(t_nominal, t_warm);
    expect_filter_identical(cold_filter.measure(fsizing, OtaModelKind::transistor),
                            t_warm);
    const auto t_resp = filter.ac_response(fsizing, OtaModelKind::transistor).h;
    expect_h_close(rebuild_filter_transfer(fsizing, OtaModelKind::transistor), t_resp);
    expect_h_identical(cold_filter.ac_response(fsizing, OtaModelKind::transistor).h,
                       t_resp);
    EXPECT_EQ(filter.prototype_pool().created(), 2u);

    // OTA: a realisation, then nominal measure, ac_response and op_regions.
    const circuits::OtaEvaluator ota;
    const circuits::OtaSizing osizing;
    spice::Circuit tb = circuits::build_ota_testbench(osizing, ota.config());
    const process::ProcessSampler ota_sampler(ota.config().card,
                                              process::VariationSpec::c35());
    const process::Realization ota_real = ota_sampler.sample(rng, tb.mos_geometries());
    const circuits::OtaEvaluator cold_ota;
    const auto o_varied = ota.measure(osizing, ota_real);
    expect_perf_close(rebuild_ota(osizing, &ota_real), o_varied);
    const auto o_nominal = rebuild_ota(osizing, nullptr);
    ASSERT_TRUE(o_nominal.valid);
    EXPECT_FALSE(bits_equal(o_varied.gain_db, o_nominal.gain_db));
    const auto o_warm = ota.measure(osizing);
    expect_perf_close(o_nominal, o_warm);
    expect_perf_identical(cold_ota.measure(osizing), o_warm);

    (void)ota.measure(osizing, ota_real);
    const auto o_resp = ota.ac_response(osizing);
    EXPECT_EQ(o_resp.freqs, ota_freqs(ota.config()));
    expect_h_close(rebuild_ota_transfer(osizing, nullptr), o_resp.h);
    expect_h_identical(cold_ota.ac_response(osizing).h, o_resp.h);
    expect_h_close(rebuild_ota_transfer(osizing, &ota_real),
                   ota.ac_response(osizing, &ota_real).h);

    (void)ota.measure(osizing, ota_real);
    const spice::DcSolver solver;
    const auto op = solver.solve(tb);
    ASSERT_TRUE(op.converged);
    std::vector<std::pair<std::string, spice::Mosfet::Region>> regions;
    for (const auto& dev : tb.devices())
        if (const auto* mos = dynamic_cast<const spice::Mosfet*>(dev.get()))
            regions.emplace_back(mos->name(), mos->op_info(op.solution).region);
    EXPECT_EQ(ota.op_regions(osizing), regions);
    EXPECT_EQ(ota.prototype_pool().created(), 1u);
}

TEST(PrototypePool, FilterSpecsNeedBehaviouralKind) {
    circuits::FilterPrototype proto(circuits::FilterConfig{},
                                    circuits::FilterSpecMask{},
                                    circuits::OtaModelKind::transistor);
    const va::BehaviouralOtaSpec spec;
    EXPECT_THROW((void)proto.measure(circuits::FilterSizing{}, &spec, &spec),
                 InvalidInputError);
}

// ----------------------------------------------------------- filter chunks

TEST(FilterChunk, BitIdenticalToScalarBothKinds) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings = random_filter_sizings(6, 23);
    for (auto kind : {circuits::OtaModelKind::behavioural,
                      circuits::OtaModelKind::transistor}) {
        const auto chunk = evaluator.measure_chunk(sizings, kind);
        ASSERT_EQ(chunk.size(), sizings.size());
        for (std::size_t i = 0; i < sizings.size(); ++i) {
            const auto reference = rebuild_filter(sizings[i], kind);
            expect_filter_close(reference, chunk[i]);
            expect_filter_identical(chunk[i], evaluator.measure(sizings[i], kind));
        }
    }
}

TEST(FilterChunk, BehaviouralFilterTakesReducedPathOverRandomSpecs) {
    // The macromodel's AC stamp is affine, so its filters take the reduced
    // sweep like the transistor ones: random sizings x random macromodel
    // specs, every sweep answered without a guard fallback and within the
    // reduced-sweep tolerances of run_ac. Specs as macromodel_spec derives
    // them: gain 40-80 dB, rout = 1 / (2 pi f3db_char c_load) with a 10 pF
    // load, intrinsic pole pushed to 1 GHz.
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings = random_filter_sizings(12, 61);
    Rng rng(67);
    const auto random_spec = [&] {
        va::BehaviouralOtaSpec spec;
        spec.gain_db = rng.uniform(40.0, 80.0);
        const double f3db_char = std::pow(10.0, rng.uniform(2.0, 5.0));
        spec.rout = 1.0 / (2.0 * mathx::pi * f3db_char * 10e-12);
        spec.f3db = 1e9;
        return spec;
    };
    const std::uint64_t reduced = counter_value("spice.ac.reduced_sweeps");
    const std::uint64_t fallbacks = counter_value("spice.ac.guard_fallbacks");
    std::uint64_t swept = 0;
    std::size_t valid = 0;
    for (const auto& sizing : sizings) {
        for (int k = 0; k < 4; ++k) {
            const va::BehaviouralOtaSpec ota1 = random_spec();
            const va::BehaviouralOtaSpec ota2 = random_spec();
            const auto perf = evaluator.measure_behavioural(sizing, ota1, ota2);
            ++swept;
            expect_filter_close(
                rebuild_filter(sizing, circuits::OtaModelKind::behavioural,
                               &ota1, &ota2),
                perf);
            if (perf.valid) ++valid;
        }
    }
    EXPECT_GE(valid, swept / 2);
    // The rebuild oracle runs run_ac, which the counters do not see.
    EXPECT_EQ(counter_value("spice.ac.reduced_sweeps"), reduced + swept);
    EXPECT_EQ(counter_value("spice.ac.guard_fallbacks"), fallbacks);
}

// --------------------------------------------------- problem batch + engine

TEST(ProblemBatch, OtaEvaluateBatchMatchesScalar) {
    const circuits::OtaProblem problem;
    const auto sizings = random_sizings(6, 31);
    std::vector<std::vector<double>> points;
    for (const auto& s : sizings) points.push_back(s.to_vector());
    const auto batch = problem.evaluate_batch(points);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto reference = ota_row(rebuild_ota(sizings[i], nullptr));
        expect_ota_rows_close(reference, batch[i]);
        expect_rows_identical(batch[i], problem.evaluate(points[i]));
    }
}

TEST(ProblemBatch, FilterEvaluateBatchMatchesScalar) {
    const circuits::FilterProblem problem{circuits::FilterConfig{},
                                          circuits::FilterSpecMask{}};
    const auto sizings = random_filter_sizings(6, 37);
    std::vector<std::vector<double>> points;
    for (const auto& s : sizings) points.push_back(s.to_vector());
    const auto batch = problem.evaluate_batch(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto reference = filter_row(
            rebuild_filter(sizings[i], circuits::OtaModelKind::behavioural));
        expect_filter_rows_close(reference, batch[i]);
        expect_rows_identical(batch[i], problem.evaluate(points[i]));
    }
}

TEST(ProblemBatch, EngineEvaluationThreadCountInvariant) {
    // The engine chunks batches differently per worker count; the chunk
    // kernels must make that invisible.
    const circuits::OtaProblem problem;
    const auto sizings = random_sizings(10, 41);
    std::vector<std::vector<double>> points;
    for (const auto& s : sizings) points.push_back(s.to_vector());

    std::vector<std::vector<eval::EvalResult>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        eval::EngineConfig config;
        config.threads = threads;
        eval::Engine engine(config);
        runs.push_back(moo::evaluate_population(engine, problem, points));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        ASSERT_EQ(runs[t].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            expect_rows_identical(runs[0][i].values, runs[t][i].values);
    }
    // And the engine path must agree with a fresh build.
    for (std::size_t i = 0; i < points.size(); ++i)
        expect_ota_rows_close(ota_row(rebuild_ota(sizings[i], nullptr)),
                              runs[0][i].values);
}

TEST(ProblemBatch, OtaMonteCarloChunkMatchesScalarStreams) {
    // The chunked MC path (prototype reuse) must reproduce a per-sample
    // SampleFn on the same child streams: bit for bit against scalar
    // evaluator calls, within tolerance of a per-sample rebuild.
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());

    spice::Circuit proto =
        circuits::build_ota_testbench(sizing, evaluator.config());
    const auto geometries = proto.mos_geometries();

    mc::McConfig cfg;
    cfg.samples = 16;
    Rng r_scalar(77);
    const auto scalar = mc::run_monte_carlo(
        cfg, r_scalar, [&](std::size_t, Rng& sample_rng) -> std::vector<double> {
            const auto real = sampler.sample(sample_rng, geometries);
            return ota_row(evaluator.measure(sizing, real));
        });
    Rng r_rebuild(77);
    const auto rebuilt = mc::run_monte_carlo(
        cfg, r_rebuild, [&](std::size_t, Rng& sample_rng) -> std::vector<double> {
            const auto real = sampler.sample(sample_rng, geometries);
            return ota_row(rebuild_ota(sizing, &real));
        });

    eval::Engine engine;
    Rng r_chunk(77);
    const auto chunked = core::run_ota_monte_carlo(engine, evaluator, sizing,
                                                   sampler, cfg.samples, r_chunk);
    ASSERT_EQ(chunked.rows.size(), scalar.rows.size());
    ASSERT_EQ(rebuilt.rows.size(), scalar.rows.size());
    for (std::size_t i = 0; i < scalar.rows.size(); ++i) {
        expect_rows_identical(scalar.rows[i], chunked.rows[i]);
        expect_ota_rows_close(rebuilt.rows[i], chunked.rows[i]);
    }
}

} // namespace
