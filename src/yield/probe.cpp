#include "yield/probe.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::yield {

namespace {

/// Probe instruments, resolved once (same discipline as YieldMetrics in
/// sequential.cpp: a few relaxed atomic adds per probe call).
struct ProbeMetrics {
    obs::Counter& points;
    obs::Counter& samples;
    obs::Counter& warm_starts;

    static ProbeMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static ProbeMetrics metrics{registry.counter("probe.points"),
                                    registry.counter("probe.samples"),
                                    registry.counter("probe.warm_starts")};
        return metrics;
    }
};

/// Clamp the per-point caps of an already-specialized config to the probe
/// budget left after its pilot.
SequentialConfig clamp_to_budget(SequentialConfig cfg, std::size_t budget,
                                 double target_half_width) {
    cfg.max_samples = budget - std::min(cfg.effective_pilot_samples(), budget);
    cfg.chunk_samples = std::max<std::size_t>(
        1, std::min(cfg.chunk_samples, cfg.max_samples));
    cfg.min_samples = std::min(cfg.min_samples, cfg.max_samples);
    cfg.target_half_width = target_half_width;
    return cfg;
}

} // namespace

SequentialConfig configure_probe_estimator(SequentialConfig base,
                                           std::size_t budget,
                                           double target_half_width) {
    if (budget == 0)
        throw InvalidInputError("yield probe: budget must be >= 1 sample");
    if (base.effective_pilot_samples() + 1 > budget) {
        // Valid estimator, invalid tier: its pilot leaves no main-stage
        // sample inside the probe budget. List the compatible subset of the
        // zoo so the caller can substitute instead of silently degrading.
        std::vector<std::string> compatible;
        for (const Estimator candidate : kEstimators) {
            SequentialConfig trial = base;
            trial.estimator = candidate;
            if (trial.effective_pilot_samples() + 1 <= budget)
                compatible.emplace_back(estimator_name(candidate));
        }
        throw InvalidInputError(
            "yield probe: estimator '" +
            std::string(estimator_name(base.estimator)) + "' needs " +
            std::to_string(base.effective_pilot_samples()) +
            " pilot samples plus >= 1 main-stage sample, which does not fit "
            "the probe budget of " +
            std::to_string(budget) +
            "; raise the budget or pick a probe-compatible estimator: " +
            (compatible.empty() ? std::string("(none at this budget)")
                                : str::join(compatible, ", ")));
    }
    return clamp_to_budget(std::move(base), budget, target_half_width);
}

YieldProbe::YieldProbe(ProbeConfig config, std::vector<mc::Spec> specs,
                       PointKernelFactory factory, std::size_t dimension)
    : config_(std::move(config)), specs_(std::move(specs)),
      factory_(std::move(factory)), dimension_(dimension) {
    if (specs_.empty())
        throw InvalidInputError("YieldProbe: need >= 1 spec");
    if (!factory_)
        throw InvalidInputError("YieldProbe: null point kernel factory");
    cold_config_ = configure_probe_estimator(
        config_.sequential, config_.budget, config_.target_half_width);
}

SequentialConfig YieldProbe::warm_config() const {
    SequentialConfig cfg = cold_config_;
    cfg.pilot_samples = 0;
    cfg.initial_proposal = warm_;
    return clamp_to_budget(cfg, config_.budget, config_.target_half_width);
}

std::vector<ProbeResult>
YieldProbe::probe(eval::Engine& engine,
                  const std::vector<std::vector<double>>& points, Rng rng,
                  std::size_t generation) {
    const std::size_t n = points.size();
    std::vector<ProbeResult> results(n);
    if (n == 0) return results;

    const bool warm = !warm_.components.empty();
    const SequentialConfig cfg = warm ? warm_config() : cold_config_;

    // Point i derives its RNG from its submission position (child(i + 1),
    // matching run_adaptive_yield), so the batch is invariant to scheduling.
    std::vector<std::unique_ptr<SequentialYieldRunner>> runners;
    runners.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        runners.push_back(std::make_unique<SequentialYieldRunner>(
            engine, cfg, specs_, factory_(points[i]), dimension_,
            rng.child(i + 1)));

    // Pilots streamed together: every pilot is in flight before the first
    // is waited on, so they overlap on the engine's pool.
    for (auto& r : runners) r->submit_pilot();
    for (auto& r : runners) r->finish_pilot();

    // Main stage, round-robin: keep each unfinished runner's window full,
    // retire one chunk per runner per sweep. Each runner's folded estimate
    // is window-invariant (overshoot drains, never folds), so the sweep
    // order affects only overlap, never results.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto& r : runners) {
            if (r->done()) continue;
            while (r->in_flight() < cfg.inflight && r->submit_chunk() > 0) {
            }
        }
        for (auto& r : runners) {
            if (r->done()) continue;
            if (r->retire_chunk()) progressed = true;
            if (r->done()) (void)r->drain_overshoot();
        }
    }

    std::size_t call_samples = 0;
    for (std::size_t i = 0; i < n; ++i) {
        SequentialYieldResult res = runners[i]->finish();
        results[i].estimate = res.estimate;
        results[i].samples_used = res.samples_used + res.pilot_samples;
        results[i].warm_started = warm;
        results[i].reached_target = res.reached_target;
        call_samples += results[i].samples_used;

        // Warm-start hand-off: the last cold point this call whose pilot
        // located enough failures donates its fitted proposal. Advances in
        // point order on folded results only - deterministic.
        if (!warm && res.shift_pilot_failures >= config_.min_warm_failures &&
            res.proposal.active())
            warm_ = res.proposal;
    }
    total_samples_ += call_samples;

    ProbeMetrics& metrics = ProbeMetrics::get();
    metrics.points.add(n);
    metrics.samples.add(call_samples);
    if (warm) metrics.warm_starts.add(n);
    if (obs::Tracer::enabled())
        obs::Tracer::instant("yield.probe", "yield",
                             {{"generation", static_cast<double>(generation)},
                              {"points", static_cast<double>(n)},
                              {"samples", static_cast<double>(call_samples)},
                              {"warm", warm ? 1.0 : 0.0}});
    return results;
}

} // namespace ypm::yield
