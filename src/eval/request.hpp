#pragma once
/// \file request.hpp
/// \brief Value types of the unified evaluation engine.
///
/// Every repeated-testbench workload in the Fig. 3 flow (GA populations,
/// per-Pareto-point Monte Carlo, corner sweeps, sensitivity probes) is a
/// batch of point evaluations. These types describe one such batch in a
/// consumer-neutral way so a single engine can schedule, memoise and count
/// all of them.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace ypm::eval {

/// Cache-key component marking "nominal process" (no corner, no MC sample).
inline constexpr std::uint64_t kNominalProcess = 0;

/// One evaluation point: a designable-parameter vector plus an opaque
/// process key. Results with equal (params, process_key, batch tag,
/// stochastic stream) are assumed interchangeable - the key must therefore
/// encode everything that selects the process point (corner id, sample id).
struct EvalRequest {
    std::vector<double> params;               ///< designable parameters
    std::uint64_t process_key = kNominalProcess; ///< corner / sample / nominal
    bool cacheable = true;                    ///< false for one-shot MC samples
};

/// A batch of requests evaluated through one kernel. `tag` namespaces the
/// cache: two kernels returning different quantities for the same parameter
/// point (e.g. {gain, pm} vs full Bode data) must use different tags.
struct EvalBatch {
    std::vector<EvalRequest> items;
    std::uint64_t tag = 0;

    EvalBatch() = default;
    explicit EvalBatch(std::uint64_t tag_) : tag(tag_) {}

    /// Nominal-process batch over a list of parameter points.
    [[nodiscard]] static EvalBatch
    nominal(const std::vector<std::vector<double>>& points) {
        EvalBatch batch;
        batch.items.reserve(points.size());
        for (const auto& p : points) batch.items.push_back({p, kNominalProcess, true});
        return batch;
    }

    void add(std::vector<double> params,
             std::uint64_t process_key = kNominalProcess, bool cacheable = true) {
        items.push_back({std::move(params), process_key, cacheable});
    }

    [[nodiscard]] std::size_t size() const { return items.size(); }
    [[nodiscard]] bool empty() const { return items.empty(); }
};

/// The one row-failure predicate (engine ledger and mc::McResult): a row
/// failed when it carries a NaN (the moo::Problem contract) or is empty (a
/// kernel that signals failure by returning no values).
[[nodiscard]] inline bool row_failed(const std::vector<double>& values) {
    if (values.empty()) return true;
    for (double v : values)
        if (std::isnan(v)) return true;
    return false;
}

/// One evaluated point. NaN entries mark a failed evaluation (simulator
/// non-convergence), matching the moo::Problem contract.
struct EvalResult {
    std::vector<double> values;
    bool from_cache = false; ///< served from the LRU or within-batch dedup
    /// Explicit failure flag, set by the engine from row_failed() on the
    /// fresh evaluation and *propagated* to dedup aliases and cache hits of
    /// that point.
    bool failure = false;

    [[nodiscard]] bool failed() const { return failure || row_failed(values); }
};

} // namespace ypm::eval
