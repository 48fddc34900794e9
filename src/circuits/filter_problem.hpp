#pragma once
/// \file filter_problem.hpp
/// \brief moo::Problem adapter for the filter capacitor optimisation (paper
///        section 5: 30 individuals x 40 generations over C1, C2, C3).

#include "circuits/filter.hpp"
#include "eval/engine.hpp"
#include "moo/problem.hpp"

namespace ypm::circuits {

/// Canonical filter objectives kernel: {fc_err_rel, passband_dev_db} per
/// request, NaNs when the response does not exist, measured through one
/// leased filter prototype per chunk (FilterEvaluator::measure_chunk).
/// Consumers sharing an engine tag measure through it so cached rows stay
/// interchangeable. \param evaluator must outlive the kernel.
[[nodiscard]] eval::ChunkKernelFn
filter_objectives_chunk_kernel(const FilterEvaluator& evaluator,
                               OtaModelKind kind);

/// Objectives: minimise the relative cutoff error |fc - target|/target and
/// minimise the worst passband deviation, subject to the response existing
/// at all (failures evaluate to NaN).
class FilterProblem final : public moo::Problem {
public:
    FilterProblem(FilterConfig config, FilterSpecMask mask,
                  OtaModelKind kind = OtaModelKind::behavioural);

    [[nodiscard]] const std::vector<moo::ParameterSpec>& parameters() const override;
    [[nodiscard]] const std::vector<moo::ObjectiveSpec>& objectives() const override;
    [[nodiscard]] std::vector<double>
    evaluate(const std::vector<double>& params) const override;

    /// One leased filter prototype per call; element i equals
    /// evaluate(points[i]).
    [[nodiscard]] std::vector<std::vector<double>>
    evaluate_batch(const std::vector<std::vector<double>>& points) const override;

    [[nodiscard]] const FilterEvaluator& evaluator() const { return evaluator_; }

private:
    FilterEvaluator evaluator_;
    OtaModelKind kind_;
    std::vector<moo::ParameterSpec> params_;
    std::vector<moo::ObjectiveSpec> objectives_;
};

} // namespace ypm::circuits
