#include "yield/sequential.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ypm::yield {

namespace {

/// Yield-runner instruments, resolved once; always-on (a few relaxed
/// atomic adds per retired *chunk*).
struct YieldMetrics {
    obs::Counter& chunks;
    obs::Counter& samples;
    obs::Counter& refits;

    static YieldMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static YieldMetrics metrics{registry.counter("yield.chunks"),
                                    registry.counter("yield.samples"),
                                    registry.counter("yield.refits")};
        return metrics;
    }
};

} // namespace

void validate(const SequentialConfig& config) {
    if (config.chunk_samples == 0)
        throw InvalidInputError("SequentialConfig: chunk_samples must be >= 1");
    if (config.max_samples == 0)
        throw InvalidInputError("SequentialConfig: max_samples must be >= 1");
    if (config.inflight == 0)
        throw InvalidInputError("SequentialConfig: inflight must be >= 1");
    if (config.min_samples > config.max_samples)
        throw InvalidInputError(
            "SequentialConfig: min_samples exceeds max_samples - the early "
            "stop would be silently unreachable and every run would burn "
            "the full sample cap");
    if (!std::isfinite(config.pilot_scale) || !(config.pilot_scale > 0.0))
        throw InvalidInputError(
            "SequentialConfig: pilot_scale must be finite and > 0");
    const ShiftFitConfig& fit = config.shift_fit;
    if (!(fit.defensive_weight >= 0.0 && fit.defensive_weight < 1.0))
        throw InvalidInputError(
            "SequentialConfig: shift_fit.defensive_weight must be in [0, 1)");
    if (!(fit.min_scale > 0.0) || !(fit.max_scale >= fit.min_scale))
        throw InvalidInputError(
            "SequentialConfig: shift_fit scale clamps must satisfy "
            "0 < min_scale <= max_scale");
}

SequentialYieldRunner::SequentialYieldRunner(eval::Engine& engine,
                                             SequentialConfig config,
                                             std::vector<mc::Spec> specs,
                                             KernelFactory factory,
                                             std::size_t dimension, Rng rng)
    : engine_(engine), config_(config), specs_(std::move(specs)),
      factory_(std::move(factory)), dimension_(dimension), rng_(rng) {
    if (specs_.empty())
        throw InvalidInputError("SequentialYieldRunner: need >= 1 spec");
    if (!factory_)
        throw InvalidInputError("SequentialYieldRunner: null kernel factory");
    validate(config_);
    // CE refinement (the mixture_ce family) needs u records on the main
    // stage.
    record_main_u_ = config_.estimator == Estimator::mixture_ce ||
                     config_.estimator == Estimator::mixture_ce_scale;
    if (!config_.initial_proposal.components.empty()) {
        if (config_.effective_pilot_samples() > 0)
            throw InvalidInputError(
                "SequentialYieldRunner: initial_proposal (warm start) and a "
                "pilot stage are mutually exclusive - set pilot_samples to 0 "
                "to run from the warm proposal, or clear the proposal to "
                "refit from a pilot");
        config_.initial_proposal.validate(dimension_);
    }
    // Zero retired samples must report the vacuous interval [0, 1], not a
    // default-constructed point interval [0, 0] pretending certainty (a
    // budget-starved point in a multi-point campaign hits this).
    estimate_ = weighted_yield_from_flags({}, {});
    pilot_estimate_ = estimate_;
}

void SequentialYieldRunner::submit_pilot() {
    if (pilot_submitted_ || config_.effective_pilot_samples() == 0) return;
    process::SampleShift pilot_shift;
    pilot_shift.scale = config_.pilot_scale;
    mc::McConfig cfg;
    cfg.samples = config_.pilot_samples;
    pilot_ticket_ = mc::submit_monte_carlo(
        engine_, cfg, rng_,
        factory_(process::ProposalMixture::single(pilot_shift), true));
    pilot_submitted_ = true;
}

void SequentialYieldRunner::finish_pilot() {
    if (pilot_finished_) return;
    if (pilot_submitted_) {
        obs::Span span("yield.pilot", "yield");
        span.arg("samples", static_cast<double>(config_.pilot_samples));
        const mc::McResult pilot = mc::wait_monte_carlo(engine_, pilot_ticket_);
        // Pilot estimate: the pilot proposal is widened, so it is itself a
        // (low-accuracy) importance-sampled estimate - a useful sanity
        // diagnostic next to the main stage.
        std::vector<bool> flags;
        std::vector<double> log_weights;
        append_flags_and_weights(pilot.rows, specs_,
                                 specs_.size() + 1 + dimension_, flags,
                                 log_weights);
        pilot_estimate_ = weighted_yield_from_flags(flags, log_weights);
        fit_ = fit_shift(pilot.rows, specs_, dimension_, config_.shift_fit);
        pilot_failures_ = fit_.pilot_failures;
        span.arg("failures", static_cast<double>(pilot_failures_));
    }
    if (!pilot_submitted_ && !config_.initial_proposal.components.empty()) {
        // Warm start: bind the carried-over proposal directly (the ctor
        // guarantees no pilot was configured alongside it).
        main_proposal_ = config_.initial_proposal;
        main_arity_ = specs_.size() + 1 + (record_main_u_ ? dimension_ : 0);
        main_kernel_ = factory_(main_proposal_, record_main_u_);
    } else {
        // No pilot (or no pilot failures): the fitted proposal stays nominal
        // and the main stage is plain Monte Carlo with unit weights.
        bind_main_kernel(fit_);
    }
    pilot_finished_ = true;
}

void SequentialYieldRunner::bind_main_kernel(const ShiftFit& fit) {
    main_proposal_ = config_.estimator == Estimator::single_shift
                         ? process::ProposalMixture::single(fit.shift)
                         : fit.mixture;
    main_arity_ = specs_.size() + 1 + (record_main_u_ ? dimension_ : 0);
    main_kernel_ = factory_(main_proposal_, record_main_u_);
}

bool SequentialYieldRunner::done() const {
    if (retired_samples_ == 0) return false;
    if (retired_samples_ >= config_.max_samples) return true;
    return target_met();
}

bool SequentialYieldRunner::target_met() const {
    // A weighted run with zero observed failures reports the clean-sweep
    // Wilson fallback CI, whose "conservative" argument assumes the shift
    // actually points at the failure region - a misaimed proposal that
    // undersamples failures must not early-certify on it. Keep sampling
    // until failure evidence (ess > 0) or the cap.
    return config_.target_half_width > 0.0 && retired_samples_ > 0 &&
           retired_samples_ >= config_.min_samples &&
           estimate_.half_width() <= config_.target_half_width &&
           (!estimate_.weighted || estimate_.ess > 0.0);
}

std::size_t SequentialYieldRunner::submit_chunk(std::size_t limit) {
    if (!pilot_finished_)
        throw InvalidInputError(
            "SequentialYieldRunner: finish_pilot() must run before chunks");
    const std::size_t left = config_.max_samples - std::min(submitted_samples_,
                                                            config_.max_samples);
    const std::size_t size = std::min({config_.chunk_samples, left, limit});
    if (size == 0) return 0;
    InflightChunk chunk{mc::McTicket{}, size, rng_};
    mc::McConfig cfg;
    cfg.samples = size;
    chunk.ticket = mc::submit_monte_carlo(engine_, cfg, rng_, main_kernel_);
    tickets_.push_back(std::move(chunk));
    submitted_samples_ += size;
    return size;
}

bool SequentialYieldRunner::retire_chunk() {
    if (tickets_.empty()) return false;
    InflightChunk chunk = std::move(tickets_.front());
    tickets_.pop_front();
    fold_rows(mc::wait_monte_carlo(engine_, std::move(chunk.ticket)));
    maybe_refit();
    return true;
}

void SequentialYieldRunner::fold_rows(const mc::McResult& result) {
    const std::size_t first = flags_.size();
    append_flags_and_weights(result.rows, specs_, main_arity_, flags_,
                             log_weights_);
    if (record_main_u_) {
        // Accumulate the failing records (with their exact per-proposal log
        // weights) for the cross-entropy refit.
        for (std::size_t k = 0; k < result.rows.size(); ++k)
            if (!flags_[first + k]) fail_rows_.push_back(result.rows[k]);
    }
    retired_samples_ += result.rows.size();
    ++stage_chunks_;
    update_estimate();

    // Observational only: the ISLE-style per-chunk diagnostic stream -
    // sample count, fail-side ESS, weight concentration, CI half-width -
    // as trace events, plus the always-on chunk/sample counters.
    YieldMetrics& metrics = YieldMetrics::get();
    metrics.chunks.add();
    metrics.samples.add(result.rows.size());
    if (obs::Tracer::enabled())
        obs::Tracer::instant(
            "yield.chunk", "yield",
            {{"samples", static_cast<double>(retired_samples_)},
             {"ess", estimate_.ess},
             {"max_weight_share", estimate_.max_weight_share},
             {"half_width", estimate_.half_width()}});
}

void SequentialYieldRunner::update_estimate() {
    if (stages_.empty()) {
        estimate_ = weighted_yield_from_flags(flags_, log_weights_);
        return;
    }
    std::vector<WeightedYieldEstimate> all = stages_;
    all.push_back(weighted_yield_from_flags(flags_, log_weights_));
    estimate_ = combine_stage_estimates(all);
}

void SequentialYieldRunner::maybe_refit() {
    if (!record_main_u_ || refits_done_ >= kMaxRefits) return;
    if (stage_chunks_ < kRefitPeriodChunks) return;
    if (done()) return; // the stop decision wins over a refit
    if (fail_rows_.size() < kRefitMinFailures) return;

    // Chunks in flight were drawn from the proposal being replaced: drain
    // them as discarded overshoot and rewind the RNG/submission state to
    // the retired prefix, so the post-refit stream - and with it the whole
    // run - depends only on folded chunks, never on the inflight window.
    rewind_inflight();

    fit_ = refit_shift(fail_rows_, specs_, dimension_, config_.shift_fit,
                       config_.estimator == Estimator::mixture_ce_scale);
    bind_main_kernel(fit_);

    // Close the current stage: its samples were drawn from the old
    // proposal, so its estimate is combined per-stage with the stages to
    // come (never re-pooled under the new proposal's weights).
    stages_.push_back(weighted_yield_from_flags(flags_, log_weights_));
    flags_.clear();
    log_weights_.clear();
    stage_chunks_ = 0;
    ++refits_done_;
    YieldMetrics::get().refits.add();
    if (obs::Tracer::enabled())
        obs::Tracer::instant(
            "yield.refit", "yield",
            {{"refit", static_cast<double>(refits_done_)},
             {"fail_rows", static_cast<double>(fail_rows_.size())},
             {"retired_samples", static_cast<double>(retired_samples_)}});
}

void SequentialYieldRunner::rewind_inflight() {
    if (tickets_.empty()) return;
    rng_ = tickets_.front().rng_before;
    const std::size_t drained = drain_overshoot();
    submitted_samples_ -= std::min(drained, submitted_samples_);
}

std::size_t SequentialYieldRunner::drain_overshoot() {
    std::size_t drained = 0;
    while (!tickets_.empty()) {
        InflightChunk chunk = std::move(tickets_.front());
        tickets_.pop_front();
        (void)mc::wait_monte_carlo(engine_, std::move(chunk.ticket));
        drained += chunk.samples;
    }
    discarded_samples_ += drained;
    return drained;
}

std::size_t SequentialYieldRunner::take_refund() {
    const std::size_t refund = discarded_samples_ - refunded_samples_;
    refunded_samples_ = discarded_samples_;
    return refund;
}

SequentialYieldResult SequentialYieldRunner::finish() {
    // Drain the overshoot: chunks submitted past the stop decision stay out
    // of the estimate so the result is identical for any inflight window.
    (void)drain_overshoot();
    SequentialYieldResult result;
    result.estimate = estimate_;
    result.pilot = pilot_estimate_;
    result.shift = fit_.shift;
    result.proposal = main_proposal_;
    result.stage_estimates = stages_;
    if (!flags_.empty())
        result.stage_estimates.push_back(
            weighted_yield_from_flags(flags_, log_weights_));
    result.refinements = refits_done_;
    result.shift_pilot_failures = pilot_failures_;
    result.samples_used = retired_samples_;
    result.pilot_samples = pilot_submitted_ ? config_.pilot_samples : 0;
    result.discarded_samples = discarded_samples_;
    result.reached_target = target_met();
    result.pilot_skipped = pilot_skipped_;
    return result;
}

SequentialYieldResult SequentialYieldRunner::run() {
    submit_pilot();
    finish_pilot();
    while (!done()) {
        while (tickets_.size() < config_.inflight && submit_chunk() > 0) {
        }
        if (!retire_chunk()) break;
    }
    return finish();
}

std::vector<SequentialYieldResult>
run_adaptive_yield(eval::Engine& engine, const AdaptiveYieldConfig& config,
                   const std::vector<YieldPoint>& points, Rng rng) {
    std::vector<std::unique_ptr<SequentialYieldRunner>> runners;
    runners.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        runners.push_back(std::make_unique<SequentialYieldRunner>(
            engine, config.sequential, points[i].specs, points[i].factory,
            points[i].dimension, rng.child(i + 1)));

    std::size_t used = 0;
    const auto remaining = [&]() -> std::size_t {
        if (config.total_samples == 0) return static_cast<std::size_t>(-1);
        return config.total_samples > used ? config.total_samples - used : 0;
    };

    // Pilots first, streamed together: every pilot chunk is in flight before
    // the first is retired, so they overlap on the engine's pool. A point
    // whose pilot no longer fits the budget is flagged, not silently
    // degraded to plain MC.
    const std::size_t pilot = config.sequential.effective_pilot_samples();
    for (std::size_t i = 0; i < runners.size(); ++i) {
        if (pilot == 0) continue;
        if (remaining() >= pilot) {
            runners[i]->submit_pilot();
            used += pilot;
        } else {
            runners[i]->mark_pilot_skipped();
            log::warn("adaptive yield: budget cannot cover the pilot of "
                      "point ", i, " - it runs on plain MC (pilot_skipped)");
        }
    }
    for (auto& r : runners) r->finish_pilot();

    // One initial chunk each (streamed the same way), so every point has an
    // estimate for the adaptive ranking.
    for (auto& r : runners) used += r->submit_chunk(remaining());
    for (auto& r : runners) {
        (void)r->retire_chunk();
        used -= std::min(used, r->take_refund());
    }

    // Adaptive rounds: each round the single unfinished point with the
    // widest confidence interval gets the next `inflight` chunks (streamed,
    // then retired, then re-ranked) - giving one chunk each to the top-K
    // would degenerate to round-robin whenever K covers the candidates.
    // Deterministic: ties break toward the lower point index.
    while (true) {
        std::size_t widest = runners.size();
        for (std::size_t i = 0; i < runners.size(); ++i) {
            if (runners[i]->done() || runners[i]->exhausted() || remaining() == 0)
                continue;
            if (widest == runners.size() ||
                runners[i]->estimate().half_width() >
                    runners[widest]->estimate().half_width())
                widest = i;
        }
        if (widest == runners.size()) break;
        SequentialYieldRunner& runner = *runners[widest];
        for (std::size_t k = 0;
             k < config.sequential.inflight && !runner.exhausted(); ++k) {
            const std::size_t submitted = runner.submit_chunk(remaining());
            if (submitted == 0) break;
            used += submitted;
        }
        // Stop folding the moment the runner is done, and refund the
        // drained overshoot to the budget (total_samples caps useful
        // samples; overshoot - from stop decisions and mid-run CE refits
        // alike - is wasted compute, not budget). Note the window is also
        // the allocation granularity: a pick folds up to `inflight` chunks
        // before the next re-ranking, so unlike the single-point runner the
        // *allocation* is only deterministic per configuration, not
        // invariant across window sizes.
        while (!runner.done() && runner.retire_chunk()) {
        }
        if (runner.done()) (void)runner.drain_overshoot();
        used -= std::min(used, runner.take_refund());
    }

    std::vector<SequentialYieldResult> results;
    results.reserve(runners.size());
    for (auto& r : runners) results.push_back(r->finish());
    return results;
}

} // namespace ypm::yield
