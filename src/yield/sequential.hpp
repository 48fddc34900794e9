#pragma once
/// \file sequential.hpp
/// \brief Sequential importance-sampled yield estimation over the streaming
///        dispatch seam.
///
/// The driver runs an adaptive multi-stage recipe per design point:
///
///  1. pilot: a Monte Carlo chunk drawn from a *widened* proposal (scale > 1)
///     locates the failure region(s); yield::fit_shift turns the failing
///     realisations into a defensive mixture proposal (nominal + one
///     component per failing spec) or, for single_shift, a single combined
///     mean shift; plain_mc skips the pilot and samples the nominal
///     distribution throughout;
///  2. main: fixed-size chunks drawn from the fitted proposal stream
///     through eval::Engine::submit()/wait() - reusing the stochastic chunk
///     kernels and the warm PrototypePool - and the run stops early once the
///     95 % confidence half-width of the weighted estimate (the unnormalized
///     fail-side form, see yield/weighted.hpp) reaches the target;
///  3. cross-entropy refinement (the mixture_ce family only): after
///     kRefitPeriodChunks retired chunks the proposal is re-fitted from the
///     accumulated main-stage failing records (yield::refit_shift) and a
///     new stage begins. Stages drawn from different proposals are combined
///     *per-stage* (yield::combine_stage_estimates pools their exact
///     fail-side moments); samples are never re-weighted under one
///     proposal's formula.
///
/// Determinism: every chunk's RNG streams derive from the runner's own Rng
/// in submission order, exactly as mc::submit_monte_carlo derives them, so
/// the retired estimate and samples_used are bit-identical for any inflight
/// window. Chunks submitted past a stop or refit decision are drained and
/// discarded, never folded; at a refit the runner additionally rewinds its
/// RNG and submission count to the retired prefix, so the post-refit stream
/// too depends only on folded chunks and never on the window. With a zero
/// shift and one chunk the sampled rows are bit-identical to
/// mc::run_monte_carlo.
///
/// run_adaptive_yield() drives many design points at once, allocating the
/// remaining sample budget to whichever point currently has the widest
/// confidence interval - the Pareto-front yield stage of core::YieldFlow.

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"
#include "yield/estimator.hpp"
#include "yield/shift.hpp"
#include "yield/weighted.hpp"

namespace ypm::yield {

/// Builds the chunk kernel for one proposal distribution (a defensive
/// mixture; the pilot and single_shift pass one-component mixtures, whose
/// draw path must be bit-identical to the plain single-shift sampler). Rows must be {perf_0..perf_{k-1}, log_weight}
/// for k specs, plus the `dimension` standardized coordinates
/// u_0..u_{dim-1} appended when record_u is true (shift fitting and CE
/// refinement need them). Kernels are copied into the engine; anything
/// captured by reference must outlive the run.
using KernelFactory = std::function<mc::ChunkSampleFn(
    const process::ProposalMixture&, bool record_u)>;

/// Cross-entropy refinement of the mixture_ce family: refit after this
/// many retired main-stage chunks of a stage, at most kMaxRefits times per
/// run, and only once kRefitMinFailures failing records have accumulated
/// (a refit without evidence would aim the proposal at noise).
inline constexpr std::size_t kRefitPeriodChunks = 2;
inline constexpr std::size_t kMaxRefits = 1;
inline constexpr std::size_t kRefitMinFailures = 8;

struct SequentialConfig {
    /// The estimation method (see yield/estimator.hpp); the runner derives
    /// the pilot, proposal family, CE refinement and scale adaptation from
    /// it. The knobs below belong to the problem and apply to every member.
    Estimator estimator = Estimator::mixture_ce;
    /// Pilot size; 0 disables the pilot (zero shift). plain_mc never runs
    /// one, whatever this says (see effective_pilot_samples()).
    std::size_t pilot_samples = 128;
    double pilot_scale = 2.0;        ///< widened pilot proposal (sigma units)
    std::size_t chunk_samples = 64;  ///< main-stage chunk size
    std::size_t max_samples = 4096;  ///< main-stage cap (excludes the pilot)
    std::size_t min_samples = 128;   ///< floor before early stop is allowed;
                                     ///< must be <= max_samples
    /// Stop once the 95 % CI half-width of the estimate is <= this target;
    /// 0 runs to max_samples unconditionally.
    double target_half_width = 0.0;
    /// Chunks submitted ahead of retirement (>= 1). 1 is the blocking path;
    /// larger windows overlap chunk evaluation with the stop decision. In a
    /// single-point run the window never changes the estimate (see file
    /// comment), only the overshoot; in run_adaptive_yield it is also the
    /// per-pick allocation granularity (see its contract).
    std::size_t inflight = 2;
    ShiftFitConfig shift_fit; ///< clamp + defensive weight for the fits
    /// Warm-start seam: a pre-fitted main-stage proposal (e.g. carried over
    /// from an earlier generation's probe at a nearby design point). Empty
    /// components - the default - leave the seam unset. When set, the run
    /// must not also configure a pilot (effective_pilot_samples() > 0): the
    /// runner ctor throws on the ambiguous combination rather than letting
    /// one silently override the other. Without a pilot the proposal is
    /// bound directly as the main-stage proposal (exact importance weights
    /// come from the kernel as usual, so a stale warm proposal costs
    /// variance, never bias).
    process::ProposalMixture initial_proposal;

    /// Pilot samples the run actually draws: 0 for plain_mc, pilot_samples
    /// otherwise.
    [[nodiscard]] std::size_t effective_pilot_samples() const {
        return estimator == Estimator::plain_mc ? 0 : pilot_samples;
    }
};

/// The one validator for a SequentialConfig, shared by the runner ctor
/// and core::YieldFlow's fail-fast block so a bad config is rejected before
/// anything is simulated. \throws ypm::InvalidInputError on zero
/// chunk/max samples, a zero inflight window, min_samples > max_samples
/// (which would silently make the early stop unreachable and burn the full
/// cap on every run), a non-finite or non-positive pilot_scale, a
/// shift_fit.defensive_weight outside [0, 1), or shift_fit scale clamps
/// violating
/// 0 < min_scale <= max_scale.
void validate(const SequentialConfig& config);

/// Result of one sequential run.
struct SequentialYieldResult {
    WeightedYieldEstimate estimate; ///< main-stage estimate (per-stage
                                    ///< combination when CE refinement ran)
    WeightedYieldEstimate pilot;    ///< pilot diagnostic (weighted: the pilot
                                    ///< proposal is widened, not nominal)
    process::SampleShift shift;     ///< combined single shift of the last fit
    process::ProposalMixture proposal; ///< final main-stage proposal
    /// One estimate per proposal stage (a single entry when no refinement
    /// ran; empty for a budget-starved point that never got a chunk). The
    /// `estimate` above is their combination.
    std::vector<WeightedYieldEstimate> stage_estimates;
    std::size_t refinements = 0;    ///< CE refits actually applied
    std::size_t shift_pilot_failures = 0; ///< failing pilot samples behind the fit
    std::size_t samples_used = 0;   ///< main-stage samples in the estimate
    std::size_t pilot_samples = 0;
    std::size_t discarded_samples = 0; ///< drained overshoot past stop/refit
    bool reached_target = false;
    /// True when the allocator skipped this point's pilot because the
    /// cross-point budget could not cover it: the point ran (if at all) on
    /// plain MC with no failure-directed proposal. Size the budget above
    /// points * (pilot + min_samples) to avoid it.
    bool pilot_skipped = false;
};

/// Streams one design point's yield estimation through a shared engine.
/// Single-threaded driver (the engine parallelises the chunks underneath);
/// the incremental submit/retire API exists so a multi-point allocator can
/// interleave several runners on one engine.
class SequentialYieldRunner {
public:
    /// \param dimension standardized process-space dimension of the kernel's
    ///        u record (process::SampleShift::dimension of the device count).
    /// \throws ypm::InvalidInputError on an empty spec list, a null factory,
    ///         a config validate() rejects, or a warm-start proposal set
    ///         alongside a pilot.
    SequentialYieldRunner(eval::Engine& engine, SequentialConfig config,
                          std::vector<mc::Spec> specs, KernelFactory factory,
                          std::size_t dimension, Rng rng);

    /// Pilot stage. submit_pilot() enqueues the pilot chunk (no-op when
    /// effective_pilot_samples() == 0); finish_pilot() blocks on it and fits
    /// the proposal. Both must be called (in order) before any main-stage
    /// call.
    void submit_pilot();
    void finish_pilot();

    /// Record that the allocator skipped this point's pilot for budget
    /// reasons (surfaced as SequentialYieldResult::pilot_skipped).
    void mark_pilot_skipped() { pilot_skipped_ = true; }

    /// True once the run should stop: early-stop criterion met (target > 0,
    /// >= min_samples retired, half-width <= target) or max_samples retired.
    [[nodiscard]] bool done() const;

    /// True once max_samples has been submitted (nothing left to enqueue).
    [[nodiscard]] bool exhausted() const {
        return submitted_samples_ >= config_.max_samples;
    }

    /// Enqueue the next main-stage chunk, at most `limit` samples (budget
    /// caps of a multi-point campaign). Returns the number of samples
    /// submitted; 0 when max_samples is already in flight or limit is 0.
    std::size_t submit_chunk(std::size_t limit = static_cast<std::size_t>(-1));

    /// Block on the oldest in-flight chunk and fold it into the estimate;
    /// false when nothing is in flight. May trigger a CE refit (see
    /// kRefitPeriodChunks), which drains the remaining in-flight chunks as
    /// discarded overshoot.
    bool retire_chunk();

    /// Block on every in-flight chunk *without* folding it (counted as
    /// discarded overshoot); returns the number of samples drained. Used
    /// once the stop decision is made, so the folded prefix - and with it
    /// the estimate - is invariant to the inflight window.
    std::size_t drain_overshoot();

    /// Discarded samples since the last call - the overshoot drained by
    /// stop decisions *and* mid-run refits. A budgeted allocator refunds
    /// these (they are wasted compute, not useful samples).
    [[nodiscard]] std::size_t take_refund();

    [[nodiscard]] const WeightedYieldEstimate& estimate() const { return estimate_; }
    [[nodiscard]] std::size_t samples_used() const { return retired_samples_; }
    [[nodiscard]] std::size_t in_flight() const { return tickets_.size(); }

    /// Drain any in-flight overshoot (discarding it) and build the result.
    [[nodiscard]] SequentialYieldResult finish();

    /// The one-call blocking driver: pilot, then submit/retire chunks with
    /// config.inflight chunks in the air, then finish().
    [[nodiscard]] SequentialYieldResult run();

private:
    struct InflightChunk {
        mc::McTicket ticket;
        std::size_t samples = 0;
        Rng rng_before; ///< runner RNG state before this submission - a
                        ///< refit rewinds to the oldest drained chunk's
                        ///< state so the post-refit stream is
                        ///< window-invariant
    };

    void bind_main_kernel(const ShiftFit& fit);
    void fold_rows(const mc::McResult& result);
    /// CE refinement trigger, checked after each fold.
    void maybe_refit();
    /// Drain all in-flight chunks and rewind rng/submission state to the
    /// retired prefix (refit path - the run continues afterwards).
    void rewind_inflight();
    void update_estimate();
    /// The single early-stop criterion, shared by done() and the
    /// reached_target report so the two can never drift apart.
    [[nodiscard]] bool target_met() const;

    eval::Engine& engine_;
    SequentialConfig config_;
    std::vector<mc::Spec> specs_;
    KernelFactory factory_;
    std::size_t dimension_;
    Rng rng_;

    bool pilot_submitted_ = false;
    bool pilot_finished_ = false;
    bool pilot_skipped_ = false;
    mc::McTicket pilot_ticket_;
    WeightedYieldEstimate pilot_estimate_;
    ShiftFit fit_;
    std::size_t pilot_failures_ = 0;

    mc::ChunkSampleFn main_kernel_;
    process::ProposalMixture main_proposal_;
    bool record_main_u_ = false;
    std::size_t main_arity_ = 0;
    std::deque<InflightChunk> tickets_; ///< in-flight
    std::size_t submitted_samples_ = 0;
    std::size_t retired_samples_ = 0;
    std::size_t discarded_samples_ = 0;
    std::size_t refunded_samples_ = 0;
    std::vector<bool> flags_;            ///< current stage accumulators
    std::vector<double> log_weights_;
    std::size_t stage_chunks_ = 0;
    std::vector<WeightedYieldEstimate> stages_; ///< closed CE stages
    std::vector<std::vector<double>> fail_rows_; ///< failing u records (CE)
    std::size_t refits_done_ = 0;
    WeightedYieldEstimate estimate_;
};

/// One design point of a multi-point yield campaign.
struct YieldPoint {
    std::vector<mc::Spec> specs;
    KernelFactory factory;
    std::size_t dimension = 0;
};

struct AdaptiveYieldConfig {
    SequentialConfig sequential;
    /// Cross-point budget of *useful* samples: pilots plus main-stage
    /// samples folded into an estimate. Overshoot drained past a point's
    /// stop or refit decision is wasted compute but refunded, so the
    /// allocation (and every estimate) stays invariant to the inflight
    /// window. 0 = only the per-point caps apply. Points whose budget runs
    /// out before their pilot run on plain MC and are flagged
    /// (SequentialYieldResult::pilot_skipped); points that never get a
    /// chunk report a 0-sample estimate - size the budget above
    /// points * (pilot + min_samples).
    std::size_t total_samples = 0;
};

/// Estimate every point's yield on one engine, streaming pilots and chunks
/// together and allocating the remaining budget adaptively: each round
/// gives the next window of chunks (up to sequential.inflight, the
/// allocation granularity) to the unfinished point with the widest
/// confidence interval, ties broken by point index. Fully deterministic
/// for a fixed configuration; across *different* inflight settings the
/// per-point sample split may differ by up to a window (each runner's
/// folded prefix is still chunk-ordered, and drained overshoot is
/// refunded to the budget). Point i derives its RNG as rng.child(i + 1).
[[nodiscard]] std::vector<SequentialYieldResult>
run_adaptive_yield(eval::Engine& engine, const AdaptiveYieldConfig& config,
                   const std::vector<YieldPoint>& points, Rng rng);

} // namespace ypm::yield
