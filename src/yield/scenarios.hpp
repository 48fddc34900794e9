#pragma once
/// \file scenarios.hpp
/// \brief Shared scenario registry for the yield estimator zoo: the named
///        benchmark/test problems that bench_yield_matrix and the
///        unit/conformance suites all build from one definition - the spec
///        thresholds, calibration seeds, kernel constants and pinned
///        brute-force references live here exactly once, so a gate and a
///        unit test can never drift apart on "the bimodal scenario".
///
/// Scenarios come in two families:
///  - OTA scenarios (rare_ota, bimodal_ota): the paper's OTA testbench
///    under c35 process variation, with specs *calibrated* from a small
///    fixed-seed MC population (Rng(71), 512 samples - the exact
///    calibration the yield benches have always used, so the historical
///    gate numbers are preserved bit-for-bit);
///  - synthetic scenarios (synthetic_bimodal, highdim_synthetic,
///    clean_sweep): closed-form kernels over standardized coordinates,
///    cheap enough for unit tests and high-dimensional stress.
///
/// Layering note: this module lives in src/yield/ because it *is* yield
/// test/bench infrastructure, but the OTA scenarios reach up into
/// circuits/ + core/ for the testbench kernel. Nothing else in src/yield/
/// may include core headers.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mc/yield.hpp"
#include "process/sampler.hpp"
#include "util/rng.hpp"
#include "yield/sequential.hpp"

namespace ypm::yield {

/// One named yield-estimation problem: specs, kernel, and the
/// *problem-level* driver knobs (pilot/chunk sizes, caps, CI target) every
/// estimator starts from. Estimators specialize the method knobs on top
/// (see yield/estimator.hpp).
struct Scenario {
    std::string name;
    std::vector<mc::Spec> specs;
    KernelFactory factory;
    std::size_t dimension = 0; ///< standardized process-space dimension
    /// Scenario-level base configuration (problem knobs populated; method
    /// knobs at their defaults for estimators to overwrite).
    SequentialConfig config;
    /// Pinned brute-force yield (OTA scenarios only): 200k plain-MC draws of
    /// the scenario kernel at the nominal proposal from Rng(72). Every
    /// estimator's interval on the scenario must contain it
    /// (scripts/check_matrix.py).
    std::optional<double> reference_yield;
    /// Keeps alive whatever the factory captures by reference (the OTA
    /// evaluator/sampler); empty for self-contained synthetic kernels.
    std::shared_ptr<const void> backing;
};

/// All registered scenario names, in registry order:
/// {rare_ota, bimodal_ota, synthetic_bimodal, highdim_synthetic,
///  clean_sweep}.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Build one scenario by name. OTA scenarios run their fixed-seed spec
/// calibration here (a 512-sample MC population on a private engine), so
/// construction is not free - build once and reuse. \throws
/// ypm::InvalidInputError on an unknown name (the message lists the
/// registry).
[[nodiscard]] Scenario make_scenario(std::string_view name);

/// Draw one standardized coordinate vector from a mixture proposal the way
/// the synthetic scenario kernels do - the reference implementation the
/// unit tests also exercise directly. Zero/one component replays the
/// single-shift incremental formula (bit-identical to plain gauss() draws
/// at the nominal proposal, log weight exactly 0); >= 2 components consume
/// one uniform for the component pick and compute the log weight against
/// the brute-force mixture density. Honours per-dimension sigma
/// (ProposalComponent::scale_at) in both paths.
[[nodiscard]] std::vector<double>
draw_mixture_u(Rng& rng, const process::ProposalMixture& mix, std::size_t dim,
               double& log_w);

/// Synthetic 1-D yield kernel: value = mean + sigma * u with u drawn from
/// the mixture proposal via draw_mixture_u. Rows {value, log_w[, u]}.
[[nodiscard]] KernelFactory synthetic_factory(double mean, double sigma);

/// Synthetic bimodal two-spec kernel over two standardized dimensions:
/// rows {u0, u1, log_w[, u0, u1]}, so at_most(3) specs fail in the
/// disjoint regions u0 > 3 and u1 > 3 - the textbook case a single
/// mean-shift proposal cannot cover.
[[nodiscard]] KernelFactory synthetic_bimodal_factory();

} // namespace ypm::yield
