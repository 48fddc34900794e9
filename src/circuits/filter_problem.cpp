#include "circuits/filter_problem.hpp"

#include <cmath>

namespace ypm::circuits {

namespace {

std::vector<double> perf_row(const FilterPerformance& perf,
                             const FilterSpecMask& mask) {
    if (!perf.valid || std::isnan(perf.fc)) return moo::failed_evaluation(2);
    const double fc_err = std::fabs(perf.fc - mask.fc_target) / mask.fc_target;
    return {fc_err, perf.worst_passband_dev_db};
}

/// The one implementation behind the engine kernel and the problem's
/// evaluate / evaluate_batch, so their rows cannot diverge.
std::vector<std::vector<double>>
measure_rows(const FilterEvaluator& evaluator,
             const std::vector<FilterSizing>& sizings, OtaModelKind kind) {
    const auto perfs = evaluator.measure_chunk(sizings, kind);
    std::vector<std::vector<double>> rows;
    rows.reserve(perfs.size());
    for (const FilterPerformance& p : perfs)
        rows.push_back(perf_row(p, evaluator.mask()));
    return rows;
}

} // namespace

eval::ChunkKernelFn
filter_objectives_chunk_kernel(const FilterEvaluator& evaluator,
                               OtaModelKind kind) {
    return [&evaluator,
            kind](std::span<const eval::EvalRequest* const> requests,
                  std::span<Rng>) {
        std::vector<FilterSizing> sizings;
        sizings.reserve(requests.size());
        for (const eval::EvalRequest* r : requests)
            sizings.push_back(FilterSizing::from_vector(r->params));
        return measure_rows(evaluator, sizings, kind);
    };
}

FilterProblem::FilterProblem(FilterConfig config, FilterSpecMask mask,
                             OtaModelKind kind)
    : evaluator_(config, mask), kind_(kind),
      params_(FilterSizing::parameter_specs()),
      objectives_{{"fc_err_rel", moo::Direction::minimize},
                  {"passband_dev_db", moo::Direction::minimize}} {}

const std::vector<moo::ParameterSpec>& FilterProblem::parameters() const {
    return params_;
}

const std::vector<moo::ObjectiveSpec>& FilterProblem::objectives() const {
    return objectives_;
}

std::vector<double> FilterProblem::evaluate(const std::vector<double>& p) const {
    return measure_rows(evaluator_, {FilterSizing::from_vector(p)}, kind_).front();
}

std::vector<std::vector<double>>
FilterProblem::evaluate_batch(const std::vector<std::vector<double>>& points) const {
    std::vector<FilterSizing> sizings;
    sizings.reserve(points.size());
    for (const auto& p : points) sizings.push_back(FilterSizing::from_vector(p));
    return measure_rows(evaluator_, sizings, kind_);
}

} // namespace ypm::circuits
