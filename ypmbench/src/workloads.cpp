// The three benchmark workloads: the Fig. 3 flow, yield certification of
// OTA front designs, and behavioural-model reuse in the Sec. 5 filter.
// Construction is the set-up; run() is one timed iteration that also
// records what the correctness checks need (digest, ledger, errors).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "circuits/filter.hpp"
#include "circuits/filter_problem.hpp"
#include "circuits/ota_problem.hpp"
#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "core/ota_mc.hpp"
#include "moo/problem.hpp"
#include "moo/wbga.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "yield/estimator.hpp"
#include "yield/sequential.hpp"

namespace ypmbench {

using namespace ypm;

namespace {

obs::MetricsSnapshot snapshot() {
    return obs::MetricsRegistry::global().snapshot();
}

/// size_for_spec probe: one call per timed repetition, cycling through a
/// grid of ten requirements that spans the model's range.
Timing time_table_queries(const core::BehaviouralModel& model,
                          double budget_s) {
    const double gain_span = model.gain_max() - model.gain_min();
    const double pm_span = model.pm_max() - model.pm_min();
    int i = 0;
    return time_calls(budget_s, [&] {
        const double a = (i++ % 10 + 0.5) / 10.0;
        const core::SizingResult r =
            model.size_for_spec(model.gain_min() + a * gain_span,
                                model.pm_min() + (1.0 - a) * pm_span);
        if (!std::isfinite(r.target_gain_db))
            throw std::runtime_error("size_for_spec returned non-finite");
    });
}

Timing time_front_extraction(const moo::WbgaResult& archive,
                             double budget_s) {
    return time_calls(budget_s, [&] {
        const auto front = core::extract_front_indices(archive);
        if (front.empty() && !archive.archive.empty())
            throw std::runtime_error("extract_front_indices: empty front");
    });
}

Timing time_artifact_load(const core::ModelArtifacts& artifacts,
                          double budget_s) {
    return time_calls(budget_s, [&] {
        (void)core::BehaviouralModel::from_artifacts(artifacts);
    });
}

/// Sub-seeds fig3_flow and filter_reuse cycle through, one per iteration,
/// so a run's median averages over several optimiser trajectories instead
/// of riding on one.
std::size_t sub_seeds(bool tiny) { return tiny ? 1 : 12; }

// ------------------------------------------------------------ fig3_flow

/// core::YieldFlow::run() on the OTA at a fixed reduced scale, probes and
/// certification off, table artifacts on. Iteration k runs the flow at
/// sub-seed k mod sub_seeds() of the workload seed.
class Fig3Flow final : public Workload {
public:
    Fig3Flow(std::uint64_t seed, bool tiny, const std::string& work_dir)
        : seed_(seed), tiny_(tiny) {
        cfg_.ga.population = tiny ? 8 : 48;
        cfg_.ga.generations = tiny ? 3 : 20;
        cfg_.mc_samples = tiny ? 8 : 64;
        cfg_.max_mc_points = tiny ? 4 : 12;
        cfg_.artifact_dir = work_dir + "/fig3_flow";
    }

    Iteration run() override {
        Iteration it;
        it.key = next_++ % sub_seeds(tiny_);
        cfg_.seed = eval::mix64(seed_, it.key);
        const obs::MetricsSnapshot before = snapshot();
        const util::TickNs t0 = util::now_ns();
        {
            obs::Span span("bench.iteration", "bench");
            last_ = core::YieldFlow(circuits::OtaConfig{}, cfg_).run();
        }
        it.wall_s = util::seconds_since(t0);
        it.ledger = ledger_delta(before, snapshot());
        it.generations = cfg_.ga.generations;

        // The flow streams every point's MC run at once, so the per-point
        // time to its variation estimate is the stage time per point.
        const core::FlowTimings& t = last_->timings;
        const std::size_t points = t.mc_evaluations / cfg_.mc_samples;
        const double point_ms =
            t.mc_seconds * 1e3 / static_cast<double>(points);
        for (std::size_t p = 0; p < points; ++p)
            it.estimates.push_back({point_ms, cfg_.mc_samples, true});

        Digest d;
        for (std::size_t idx : last_->pareto_indices) d.add(idx);
        for (const core::FrontPointData& p : last_->front) {
            d.add(p.sizing.to_vector());
            d.add(p.gain_db);
            d.add(p.pm_deg);
            d.add(p.dgain_pct);
            d.add(p.dpm_pct);
            d.add(p.f3db);
            d.add(p.gbw);
            d.add(p.mc_failures);
        }
        it.digest = d.value();

        const eval::EngineCounters& e = t.engine;
        if (e.requests != e.evaluations + e.cache_hits)
            it.errors.push_back("fig3_flow: FlowTimings engine ledger does "
                                "not balance (requests != evaluations + "
                                "cache hits)");
        if (!it.ledger.balances())
            it.errors.push_back("fig3_flow: registry ledger does not balance "
                                "(requests != evaluations + hits + aliases)");
        if (e.requests != it.ledger.requests)
            it.errors.push_back("fig3_flow: flow ledger and metrics registry "
                                "disagree on requests");
        if (last_->front.empty())
            it.errors.push_back("fig3_flow: empty variation-model front");
        return it;
    }

    std::size_t inputs() const override { return sub_seeds(tiny_); }
    std::size_t batch_size() const override { return cfg_.ga.population; }

    LayerExtras layer_extras(double budget_s) const override {
        LayerExtras x;
        if (!last_) return x;
        x.front = time_front_extraction(last_->optimisation, budget_s);
        if (!last_->artifacts.gain_delta_tbl.empty()) {
            x.artifact_load = time_artifact_load(last_->artifacts, budget_s);
            x.table_query = time_table_queries(
                core::BehaviouralModel::from_artifacts(last_->artifacts),
                budget_s);
        }
        return x;
    }

private:
    std::uint64_t seed_;
    bool tiny_;
    std::size_t next_ = 0;
    core::FlowConfig cfg_;
    std::optional<core::FlowResult> last_;
};

// -------------------------------------------------------- yield_certify

/// Certify a fixed set of OTA front designs with rare_ota-depth specs
/// calibrated per design. One iteration is one run_adaptive_yield call on
/// the next design of the set, cycling; repeats must match bit-exactly.
class YieldCertify final : public Workload {
public:
    YieldCertify(std::uint64_t seed, bool tiny) : seed_(seed) {
        // Designs: the fronts of several small WBGA runs at sub-seeds of
        // the workload seed (designs along one front share their
        // certification difficulty), each evenly subsampled and topped up
        // from its fittest archive points when short, with the flow's
        // front hygiene applied.
        const circuits::OtaProblem problem;
        moo::WbgaConfig ga;
        ga.population = tiny ? 8 : 24;
        ga.generations = tiny ? 3 : 8;
        const std::size_t fronts = tiny ? 1 : 48;
        for (std::size_t g = 0; g < fronts; ++g) {
            Rng ga_rng = Rng(seed).child(1 + g);
            archive_ = moo::Wbga(problem, ga).run(ga_rng);
            pick_designs(2);
        }

        // Specs at the rare_ota calibration depth, per design: gain >=
        // mean - 2.4 sigma of a fixed-seed 512-sample population (Rng(71),
        // the scenario registry's calibration), PM >= 0.
        const double depth = 2.4;
        eval::EngineConfig cal_config;
        cal_config.cache_capacity = 0;
        eval::Engine cal_engine(cal_config);
        for (Design& d : designs_) {
            Rng cal_rng(71);
            const mc::McResult cal = core::run_ota_monte_carlo(
                cal_engine, evaluator_, d.sizing, sampler_, tiny ? 64 : 512,
                cal_rng);
            const mc::Summary gain = cal.column_summary(0);
            d.specs = {mc::Spec::at_least("gain_db",
                                          gain.mean - depth * gain.stddev),
                       mc::Spec::at_least("pm_deg", 0.0)};
        }
        dimension_ =
            core::ota_yield_dimension(evaluator_, designs_.front().sizing);

        yield::SequentialConfig base;
        base.pilot_samples = tiny ? 64 : 256;
        base.pilot_scale = 2.0;
        base.chunk_samples = tiny ? 64 : 128;
        base.min_samples = tiny ? 64 : 256;
        base.target_half_width = tiny ? 0.02 : 0.0035;
        base.max_samples = tiny ? 512 : 8192;
        config_.sequential = yield::EstimatorRegistry::instance()
                                 .create("mixture_ce")
                                 ->configure(base);
    }

    Iteration run() override {
        Iteration it;
        it.key = next_++ % designs_.size();
        const Design& d = designs_[it.key];
        yield::YieldPoint point;
        point.specs = d.specs;
        point.factory =
            core::ota_yield_kernel_factory(evaluator_, d.sizing, sampler_);
        point.dimension = dimension_;

        const obs::MetricsSnapshot before = snapshot();
        const util::TickNs t0 = util::now_ns();
        std::vector<yield::SequentialYieldResult> out;
        {
            obs::Span iteration("bench.iteration", "bench");
            obs::Span span("bench.yield", "bench");
            out = yield::run_adaptive_yield(engine_, config_, {point},
                                            Rng(seed_).child(100 + it.key));
        }
        it.wall_s = util::seconds_since(t0);
        it.ledger = ledger_delta(before, snapshot());

        const yield::SequentialYieldResult& r = out.at(0);
        const yield::WeightedYieldEstimate& e = r.estimate;
        const std::size_t spent =
            r.pilot_samples + r.samples_used + r.discarded_samples;
        it.estimates.push_back({it.wall_s * 1e3, spent, r.reached_target});
        it.yield = {1, r.samples_used, r.discarded_samples, e.ess};
        const bool well_formed =
            std::isfinite(e.yield) && std::isfinite(e.ci_low) &&
            std::isfinite(e.ci_high) && e.ci_low >= 0.0 && e.ci_high <= 1.0 &&
            e.ci_low <= e.yield && e.yield <= e.ci_high;
        if (!well_formed)
            it.errors.push_back("yield_certify: design " +
                                std::to_string(it.key) +
                                " has a malformed certificate");
        if (!it.ledger.balances())
            it.errors.push_back(
                "yield_certify: registry ledger does not balance");
        Digest digest;
        digest.add(e.yield);
        digest.add(e.ci_low);
        digest.add(e.ci_high);
        digest.add(e.ess);
        digest.add(r.samples_used);
        digest.add(r.pilot_samples);
        digest.add(r.discarded_samples);
        digest.add(r.refinements);
        it.digest = digest.value();
        return it;
    }

    std::size_t inputs() const override { return designs_.size(); }
    std::size_t batch_size() const override {
        return config_.sequential.chunk_samples;
    }

    /// One engine for the run, on a private pool of nproc - 1 workers.
    /// Each design's chunks wait on every worker in turn, so with a worker
    /// per vCPU of a shared host, CPU time taken from any one of them stalls
    /// the design; one spare vCPU lets the scheduler move a worker off a
    /// stalled one. In paired 10 s runs at one seed on a 4-vCPU VM the
    /// spread (IQR / median) of wall_s was 0.42 and 0.13 on the 4-thread
    /// process-wide pool against 0.09 and 0.10 on 3 threads. Cache off: a
    /// later pass repeats each design's sample streams, which a cache
    /// would answer.
    eval::EngineConfig engine_config() const override {
        eval::EngineConfig config;
        config.threads = engine_threads();
        config.cache_capacity = 0;
        return config;
    }
    std::size_t engine_threads() const override {
        return std::max<std::size_t>(1, ThreadPool::global().size() - 1);
    }

    LayerExtras layer_extras(double budget_s) const override {
        LayerExtras x;
        x.front = time_front_extraction(archive_, budget_s);
        return x;
    }

private:
    struct Design {
        circuits::OtaSizing sizing;
        std::vector<mc::Spec> specs;
    };

    /// Append `want` designs from the front of archive_ to designs_.
    void pick_designs(std::size_t want) {
        const auto& archive = archive_.archive;
        auto usable = [&](std::size_t idx) {
            const auto& o = archive[idx].objectives;
            return !moo::evaluation_failed(o) && o[1] >= 10.0 && o[0] >= 1.0;
        };
        std::vector<std::size_t> front;
        for (std::size_t idx : core::extract_front_indices(archive_))
            if (usable(idx)) front.push_back(idx);
        std::vector<std::size_t> picked;
        if (front.size() >= want) {
            const double step =
                want > 1 ? static_cast<double>(front.size() - 1) /
                               static_cast<double>(want - 1)
                         : 0.0;
            for (std::size_t k = 0; k < want; ++k)
                picked.push_back(front[static_cast<std::size_t>(
                    static_cast<double>(k) * step + 0.5)]);
        } else {
            picked = front;
            std::vector<std::size_t> rest(archive.size());
            for (std::size_t i = 0; i < rest.size(); ++i) rest[i] = i;
            std::stable_sort(rest.begin(), rest.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return archive[a].fitness >
                                        archive[b].fitness;
                             });
            for (std::size_t idx : rest) {
                if (picked.size() >= want) break;
                if (!usable(idx)) continue;
                const bool duplicate = std::any_of(
                    picked.begin(), picked.end(), [&](std::size_t p) {
                        return archive[p].params == archive[idx].params;
                    });
                if (!duplicate) picked.push_back(idx);
            }
        }
        if (picked.empty())
            throw std::runtime_error("yield_certify: no usable OTA design");
        for (std::size_t idx : picked)
            designs_.push_back(
                {circuits::OtaSizing::from_vector(archive[idx].params), {}});
    }

    std::uint64_t seed_;
    circuits::OtaEvaluator evaluator_;
    process::ProcessSampler sampler_{process::ProcessCard::c35(),
                                     process::VariationSpec::c35()};
    moo::WbgaResult archive_; ///< the last front's optimiser run
    std::vector<Design> designs_;
    std::size_t dimension_ = 0;
    eval::Engine engine_{engine_config()};
    yield::AdaptiveYieldConfig config_;
    std::size_t next_ = 0; ///< design certified by the next run()
};

// --------------------------------------------------------- filter_reuse

/// Sec. 5 payoff: size the OTA through the behavioural model loaded from
/// artifacts, optimise the filter on the macromodel, verify by behavioural
/// Monte Carlo. Iteration k runs the filter WBGA and the MC at sub-seed
/// k mod sub_seeds().
class FilterReuse final : public Workload {
public:
    FilterReuse(std::uint64_t seed, bool tiny, const std::string& work_dir)
        : seed_(seed), tiny_(tiny) {
        core::FlowConfig fc;
        fc.ga.population = tiny ? 12 : 100;
        fc.ga.generations = tiny ? 4 : 40;
        fc.mc_samples = tiny ? 16 : 64;
        fc.max_mc_points = 0;
        fc.seed = seed;
        fc.artifact_dir = work_dir + "/filter_model";
        const core::FlowResult built =
            core::YieldFlow(circuits::OtaConfig{}, fc).run();
        if (built.artifacts.gain_delta_tbl.empty())
            throw std::runtime_error("filter_reuse: the model flow wrote no "
                                     "artifacts (fewer than 3 front points)");
        artifacts_ = built.artifacts;
        model_.emplace(core::BehaviouralModel::from_artifacts(artifacts_));

        // The paper's requirement (gain >= 50 dB, PM >= 60 deg), pulled into
        // the model's range when the front does not reach it.
        const core::BehaviouralModel& m = *model_;
        req_gain_ = 50.0;
        req_pm_ = 60.0;
        if (req_gain_ < m.gain_min() || req_gain_ > m.gain_max())
            req_gain_ = m.gain_min() + 0.4 * (m.gain_max() - m.gain_min());
        if (req_pm_ < m.pm_min() || req_pm_ > m.pm_max())
            req_pm_ = m.pm_min() + 0.3 * (m.pm_max() - m.pm_min());
    }

    Iteration run() override {
        Iteration it;
        it.key = next_++ % sub_seeds(tiny_);
        const obs::MetricsSnapshot before = snapshot();
        const util::TickNs t0 = util::now_ns();

        core::SizingResult sized;
        {
            obs::Span span("bench.table", "bench");
            sized = model_->size_for_spec(req_gain_, req_pm_);
        }
        circuits::FilterConfig fcfg;
        fcfg.ota_spec = model_->macromodel_spec(sized);
        fcfg.ota_sizing = sized.sizing;
        const circuits::FilterProblem problem{fcfg, mask_};
        const circuits::FilterEvaluator& evaluator = problem.evaluator();

        eval::Engine engine(engine_config());
        moo::WbgaConfig ga;
        ga.population = batch_size();
        ga.generations = tiny_ ? 4 : 40;
        ga.engine = &engine;
        Rng ga_rng = Rng(seed_).child(10 + it.key);
        {
            obs::Span span("bench.moo", "bench");
            last_archive_ = moo::Wbga(problem, ga).run(ga_rng);
        }
        it.generations = ga.generations;

        std::optional<circuits::FilterSizing> best;
        {
            obs::Span span("bench.select", "bench");
            best = select(evaluator);
        }
        mc::YieldEstimate y;
        double mc_ms = 0.0;
        if (best) {
            obs::Span span("bench.mc", "bench");
            circuits::FilterVariation var;
            var.gain_delta_pct = sized.variation_gain_pct;
            var.pm_delta_pct = sized.variation_pm_pct;
            Rng mc_rng = Rng(seed_).child(20 + it.key);
            const util::TickNs t1 = util::now_ns();
            y = circuits::filter_yield_behavioural(evaluator, *best, var,
                                                   mc_samples(), mc_rng);
            mc_ms = util::seconds_since(t1) * 1e3;
        }
        // Recorded explicitly (not RAII) so the span ends with the timed
        // window: the checks below share its locals but are not timed.
        if (obs::Tracer::enabled())
            obs::Tracer::record_complete("bench.iteration", "bench", t0,
                                         util::now_ns());
        it.wall_s = util::seconds_since(t0);
        it.ledger = ledger_delta(before, snapshot());
        it.estimates.push_back({mc_ms, y.samples, y.samples == mc_samples()});

        // Checks, outside the timed window: the chosen design meets the
        // mask under the macromodel, and its transistor-level simulation
        // succeeds. Whether it also meets the mask at transistor level is
        // macromodel accuracy: reported (va.transistor_mask_share, notes),
        // not gated, as certified-yield accuracy is not gated either.
        if (!best) {
            it.errors.push_back(
                "filter_reuse: no archive design meets the mask");
            return it;
        }
        const circuits::FilterPerformance t =
            evaluator.measure(*best, circuits::OtaModelKind::transistor);
        if (!t.valid || !std::isfinite(t.fc) ||
            !std::isfinite(t.stopband_atten_db))
            it.errors.push_back("filter_reuse: sub-seed " +
                                std::to_string(it.key) +
                                ": transistor-level simulation of the chosen "
                                "design failed: " + t.failure);
        it.transistor_mask_ok = t.meets(mask_);
        if (!*it.transistor_mask_ok)
            it.notes.push_back(
                "filter_reuse: sub-seed " + std::to_string(it.key) +
                ": chosen design misses the mask at transistor level (fc " +
                std::to_string(t.fc) + " Hz, passband dev " +
                std::to_string(t.worst_passband_dev_db) +
                " dB, stop atten " + std::to_string(t.stopband_atten_db) +
                " dB; OTA sized at " +
                std::to_string(sized.predicted_gain_db) + " dB / " +
                std::to_string(sized.predicted_pm_deg) + " deg)");
        if (!(y.ci_low <= y.yield && y.yield <= y.ci_high && y.ci_low >= 0.0 &&
              y.ci_high <= 1.0))
            it.errors.push_back("filter_reuse: malformed MC yield interval");
        if (!it.ledger.balances())
            it.errors.push_back(
                "filter_reuse: registry ledger does not balance");

        Digest d;
        d.add(sized.sizing.to_vector());
        d.add(best->to_vector());
        d.add(y.yield);
        d.add(y.ci_low);
        d.add(y.ci_high);
        it.digest = d.value();
        return it;
    }

    std::size_t inputs() const override { return sub_seeds(tiny_); }
    std::size_t batch_size() const override { return tiny_ ? 8 : 30; }

    /// The filter WBGA's engine evaluates in the calling thread. Its
    /// batches are 30 points of ~0.2 ms, so on the pool each generation
    /// waits on four ~1.6 ms chunks, and CPU time taken from any one worker
    /// stalls the whole generation: on a shared 4-vCPU host, iteration wall
    /// rose 2.3x in a 5 s window with 25 % steal and 32 % under one
    /// competing busy thread, against no change in-thread. In-thread, the
    /// filter kernel, engine dispatch and optimiser self time are the
    /// blocking path. The behavioural MC still runs on the pool.
    eval::EngineConfig engine_config() const override {
        eval::EngineConfig config;
        config.parallel = false;
        return config;
    }

    LayerExtras layer_extras(double budget_s) const override {
        LayerExtras x;
        x.front = time_front_extraction(last_archive_, budget_s);
        x.artifact_load = time_artifact_load(artifacts_, budget_s);
        x.table_query = time_table_queries(*model_, budget_s);
        return x;
    }

private:
    std::size_t mc_samples() const { return tiny_ ? 50 : 500; }

    /// The design bench/bench_fig9to11_filter.cpp picks: lowest cutoff
    /// error among archive designs whose macromodel response meets the
    /// whole mask (stable order, so ties keep archive order).
    std::optional<circuits::FilterSizing>
    select(const circuits::FilterEvaluator& evaluator) const {
        const auto& archive = last_archive_.archive;
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < archive.size(); ++i)
            if (!moo::evaluation_failed(archive[i].objectives))
                order.push_back(i);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return archive[a].objectives[0] <
                                    archive[b].objectives[0];
                         });
        for (std::size_t idx : order) {
            const auto sizing =
                circuits::FilterSizing::from_vector(archive[idx].params);
            if (evaluator.measure(sizing, circuits::OtaModelKind::behavioural)
                    .meets(mask_))
                return sizing;
        }
        return std::nullopt;
    }

    std::uint64_t seed_;
    bool tiny_;
    std::size_t next_ = 0;
    core::ModelArtifacts artifacts_;
    std::optional<core::BehaviouralModel> model_;
    double req_gain_ = 0.0;
    double req_pm_ = 0.0;
    circuits::FilterSpecMask mask_;
    moo::WbgaResult last_archive_;
};

} // namespace

std::vector<std::string> workload_names() {
    return {"fig3_flow", "yield_certify", "filter_reuse"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& work_dir) {
    std::filesystem::create_directories(work_dir);
    if (name == "fig3_flow")
        return std::make_unique<Fig3Flow>(seed, tiny, work_dir);
    if (name == "yield_certify")
        return std::make_unique<YieldCertify>(seed, tiny);
    if (name == "filter_reuse")
        return std::make_unique<FilterReuse>(seed, tiny, work_dir);
    return nullptr;
}

} // namespace ypmbench
