#include "yield/estimator.hpp"

#include <string>

#include "util/error.hpp"
#include "yield/sequential.hpp"

namespace ypm::yield {

std::string_view estimator_name(Estimator estimator) {
    switch (estimator) {
    case Estimator::plain_mc: return "plain_mc";
    case Estimator::single_shift: return "single_shift";
    case Estimator::mixture_ce: return "mixture_ce";
    case Estimator::mixture_ce_scale: return "mixture_ce_scale";
    }
    throw InvalidInputError("estimator_name: not a zoo member");
}

Estimator parse_estimator(std::string_view name) {
    std::string known;
    for (const Estimator e : kEstimators) {
        if (estimator_name(e) == name) return e;
        if (!known.empty()) known += ", ";
        known += estimator_name(e);
    }
    throw InvalidInputError("unknown yield estimator '" + std::string(name) +
                            "' (known: " + known + ")");
}

SequentialConfig
EstimatorRegistry::Selection::configure(SequentialConfig base) const {
    base.estimator = estimator;
    return base;
}

const EstimatorRegistry& EstimatorRegistry::instance() {
    static const EstimatorRegistry registry;
    return registry;
}

std::optional<EstimatorRegistry::Selection>
EstimatorRegistry::create(std::string_view name) const {
    return Selection{parse_estimator(name)};
}

} // namespace ypm::yield
