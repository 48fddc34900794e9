#pragma once
/// \file estimator.hpp
/// \brief The estimator zoo: one typed selection of the method the
///        sequential yield runner applies.
///
/// Every yield estimator in this repo is a *method of the one sequential
/// driver* (yield::SequentialYieldRunner), not a separate sampling loop: a
/// scenario-level SequentialConfig carries the knobs that belong to the
/// problem (pilot size, chunk size, sample caps, CI target) plus one
/// `estimator` field, and the runner derives the family-defining behaviour
/// (proposal form, CE refinement, scale adaptation) from that field alone.
/// This keeps the determinism and inflight-window invariance guarantees of
/// the driver uniform across the whole zoo, and it is what lets one
/// conformance suite and one benchmark matrix iterate over kEstimators.
///
/// The zoo:
///   plain_mc         - no pilot, nominal proposal: plain Monte Carlo.
///   single_shift     - pilot + single combined mean shift (ISLE).
///   mixture_ce       - defensive mixture + one cross-entropy mean refit.
///   mixture_ce_scale - mixture_ce whose CE refit also learns per-component
///                      diagonal variances (refit_shift's adapt_scale).
///
/// The zoo keeps only members that win at least one column of the
/// benchmark matrix (bench_yield_matrix); a member that never beats the
/// others anywhere is deleted, machinery included.
///
/// Adding an estimator: add an enum member, its branch in
/// SequentialYieldRunner, its entry in kEstimators and its name in
/// estimator_name(), and add it to ALL_ESTIMATORS (plus the family lists it
/// belongs to) in scripts/check_matrix.py - the matrix gate then covers it
/// on every scenario.

#include <array>
#include <optional>
#include <string_view>

namespace ypm::yield {

enum class Estimator { plain_mc, single_shift, mixture_ce, mixture_ce_scale };

/// Every zoo member, in enum order - the iteration order of the conformance
/// suite and the benchmark matrix.
inline constexpr std::array<Estimator, 4> kEstimators = {
    Estimator::plain_mc, Estimator::single_shift, Estimator::mixture_ce,
    Estimator::mixture_ce_scale};

/// Stable name of a member ("plain_mc", ...): the matrix CSV key and the
/// inverse of parse_estimator().
[[nodiscard]] std::string_view estimator_name(Estimator estimator);

/// \throws ypm::InvalidInputError on an unknown name; the message lists
///         every member of kEstimators.
[[nodiscard]] Estimator parse_estimator(std::string_view name);

struct SequentialConfig;

/// Name -> enum adapter whose only caller is the repository benchmark
/// (ypmbench/src/workloads.cpp selects its certifier with
/// `EstimatorRegistry::instance().create("mixture_ce")->configure(base)`).
/// ROADMAP item 4 deletes it together with eval::KernelFn; everything else
/// sets SequentialConfig::estimator directly.
class EstimatorRegistry {
public:
    struct Selection {
        Estimator estimator;
        /// `base` with its estimator set to this selection.
        [[nodiscard]] SequentialConfig configure(SequentialConfig base) const;
    };

    [[nodiscard]] static const EstimatorRegistry& instance();

    /// Never empty. \throws what parse_estimator() throws.
    [[nodiscard]] std::optional<Selection> create(std::string_view name) const;
};

} // namespace ypm::yield
