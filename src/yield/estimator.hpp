#pragma once
/// \file estimator.hpp
/// \brief The estimator zoo: a named YieldEstimator policy interface plus a
///        name -> factory registry.
///
/// Every yield estimator in this repo is a *policy over the one sequential
/// driver* (yield::SequentialYieldRunner), not a separate sampling loop: an
/// estimator takes a scenario-level base configuration (pilot size, chunk
/// size, sample caps, CI target - the knobs that belong to the problem) and
/// specializes the family-defining knobs (proposal form, CE refinement,
/// scale adaptation - the knobs that belong to the method). This keeps the
/// determinism and inflight-window invariance guarantees of the driver
/// uniform across the whole zoo, and it is what lets one conformance suite
/// and one benchmark matrix iterate over every registered estimator by
/// name.
///
/// Built-in zoo (registered lazily on first registry access):
///   plain_mc         - no pilot, nominal proposal: plain Monte Carlo.
///   single_shift     - pilot + single combined mean shift (ISLE).
///   mixture_ce       - defensive mixture + one cross-entropy mean refit.
///   mixture_ce_scale - mixture_ce whose CE refit also learns per-component
///                      diagonal variances (ShiftFitConfig::adapt_scale).
///
/// The zoo keeps only members that win at least one column of the
/// benchmark matrix (bench_yield_matrix); a member that never beats the
/// others anywhere is deleted, machinery included.
///
/// Adding an estimator: implement YieldEstimator (usually just configure()),
/// register a factory under a new name, and add it to ALL_ESTIMATORS (plus
/// the family lists it belongs to) in scripts/check_matrix.py - the
/// bench-matrix CI job then gates it on every scenario.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "yield/sequential.hpp"

namespace ypm::yield {

/// One named estimation policy. Stateless: estimate() may be called
/// concurrently on distinct engines.
class YieldEstimator {
public:
    virtual ~YieldEstimator() = default;

    /// Registry name (stable identifier used by FlowConfig, the benchmark
    /// matrix and the conformance suite).
    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Specialize a scenario-level base configuration for this estimator.
    /// Implementations override only their family-defining knobs and leave
    /// the problem-level knobs (chunk size, caps, CI target) alone, so one
    /// scenario definition drives every estimator comparably.
    [[nodiscard]] virtual SequentialConfig
    configure(SequentialConfig base) const = 0;

    /// Run one design point to completion under this policy: construct a
    /// SequentialYieldRunner on configure(base) and run() it. \throws
    /// whatever the runner constructor throws on an invalid configuration.
    [[nodiscard]] SequentialYieldResult
    estimate(eval::Engine& engine, const SequentialConfig& base,
             const std::vector<mc::Spec>& specs, const KernelFactory& factory,
             std::size_t dimension, Rng rng) const;
};

using EstimatorFactory = std::function<std::unique_ptr<YieldEstimator>()>;

/// Process-wide name -> factory registry. Built-ins are registered lazily
/// on first access (instance() construction), so a static-library link
/// cannot drop them; user estimators register on top at any time.
class EstimatorRegistry {
public:
    [[nodiscard]] static EstimatorRegistry& instance();

    /// \throws ypm::InvalidInputError on an empty name, a null factory, or
    ///         a duplicate registration (a silent overwrite would let two
    ///         translation units fight over a name).
    void add(std::string name, EstimatorFactory factory);

    [[nodiscard]] bool contains(std::string_view name) const;

    /// \throws ypm::InvalidInputError on an unknown name; the message lists
    ///         the registered names (the FlowConfig selection error).
    [[nodiscard]] std::unique_ptr<YieldEstimator>
    create(std::string_view name) const;

    /// All registered names, sorted - the iteration order of the
    /// conformance suite and the benchmark matrix.
    [[nodiscard]] std::vector<std::string> names() const;

private:
    EstimatorRegistry();
    std::vector<std::pair<std::string, EstimatorFactory>> entries_;
};

} // namespace ypm::yield
