#include "yield/scenarios.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "circuits/ota.hpp"
#include "core/ota_mc.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/stats.hpp"
#include "process/process_card.hpp"
#include "process/variation.hpp"
#include "util/error.hpp"

namespace ypm::yield {

std::vector<double> draw_mixture_u(Rng& rng,
                                   const process::ProposalMixture& mix,
                                   std::size_t dim, double& log_w) {
    std::vector<double> u(dim, 0.0);
    if (mix.components.size() <= 1) {
        const process::ProposalComponent* c =
            mix.components.empty() ? nullptr : &mix.components.front();
        log_w = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double m = (c != nullptr && !c->mu.empty()) ? c->mu[i] : 0.0;
            const double s = c != nullptr ? c->scale_at(i) : 1.0;
            const double z = rng.gauss();
            u[i] = m + s * z;
            log_w += std::log(s) + 0.5 * z * z - 0.5 * u[i] * u[i];
        }
        return u;
    }
    const std::size_t k = mix.pick_component(rng.uniform01());
    const process::ProposalComponent& c = mix.components[k];
    for (std::size_t i = 0; i < dim; ++i) {
        const double m = c.mu.empty() ? 0.0 : c.mu[i];
        u[i] = m + c.scale_at(i) * rng.gauss();
    }
    log_w = mix.log_weight_of(u);
    return u;
}

KernelFactory synthetic_factory(double mean, double sigma) {
    return [=](const process::ProposalMixture& mix,
               bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            std::vector<std::vector<double>> rows;
            rows.reserve(rngs.size());
            for (Rng& rng : rngs) {
                double log_w = 0.0;
                const std::vector<double> u = draw_mixture_u(rng, mix, 1, log_w);
                const double value = mean + sigma * u[0];
                if (record_u)
                    rows.push_back({value, log_w, u[0]});
                else
                    rows.push_back({value, log_w});
            }
            return rows;
        };
    };
}

KernelFactory synthetic_bimodal_factory() {
    return [](const process::ProposalMixture& mix,
              bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            std::vector<std::vector<double>> rows;
            rows.reserve(rngs.size());
            for (Rng& rng : rngs) {
                double log_w = 0.0;
                const std::vector<double> u = draw_mixture_u(rng, mix, 2, log_w);
                if (record_u)
                    rows.push_back({u[0], u[1], log_w, u[0], u[1]});
                else
                    rows.push_back({u[0], u[1], log_w});
            }
            return rows;
        };
    };
}

namespace {

/// High-dimensional synthetic kernel: the single performance is the
/// normalized coordinate sum m = sum(u_d) / sqrt(dim) ~ N(0, 1) at
/// nominal, so a deep at_least spec on m makes a rare failure whose
/// optimal mean shift spreads evenly over *all* dimensions - the
/// weight-degeneracy stress case for importance sampling.
KernelFactory highdim_factory(std::size_t dim) {
    return [dim](const process::ProposalMixture& mix,
                 bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            const double inv_norm = 1.0 / std::sqrt(static_cast<double>(dim));
            std::vector<std::vector<double>> rows;
            rows.reserve(rngs.size());
            for (Rng& rng : rngs) {
                double log_w = 0.0;
                const std::vector<double> u =
                    draw_mixture_u(rng, mix, dim, log_w);
                double sum = 0.0;
                for (double v : u) sum += v;
                std::vector<double> row{sum * inv_norm, log_w};
                if (record_u) row.insert(row.end(), u.begin(), u.end());
                rows.push_back(std::move(row));
            }
            return rows;
        };
    };
}

/// The OTA testbench state every OTA scenario's kernel captures by
/// reference; owned by Scenario::backing.
struct OtaBacking {
    circuits::OtaEvaluator evaluator;
    circuits::OtaSizing sizing; // nominal mid-range point
    process::ProcessSampler sampler{process::ProcessCard::c35(),
                                    process::VariationSpec::c35()};
};

/// Gain/PM population summaries from the fixed-seed calibration run the
/// yield benches have always used: Rng(71), 512 samples, cache off. The
/// spec thresholds of both OTA scenarios derive from these numbers.
std::pair<mc::Summary, mc::Summary> calibrate_ota(const OtaBacking& b) {
    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0;
    eval::Engine engine(engine_config);
    Rng rng(71);
    const mc::McResult cal = core::run_ota_monte_carlo(
        engine, b.evaluator, b.sizing, b.sampler, 512, rng);
    return {cal.column_summary(0), cal.column_summary(1)};
}

/// Problem-level driver knobs shared by every scenario; per-scenario caps
/// and targets are set on top.
SequentialConfig base_config(double target) {
    SequentialConfig c;
    c.pilot_samples = 256;
    c.pilot_scale = 2.0;
    c.chunk_samples = 128;
    c.min_samples = 256;
    c.target_half_width = target;
    return c;
}

/// Pinned brute-force yields of the OTA scenarios: 200k plain-MC draws at
/// the nominal proposal from Rng(72) (198483 and 197254 passes). They hold
/// only for the calibration above and the 2.4-sigma spec depth below.
constexpr double kRareOtaReferenceYield = 0.992415;
constexpr double kBimodalOtaReferenceYield = 0.98627;

Scenario make_ota_scenario(bool bimodal) {
    auto backing = std::make_shared<OtaBacking>();
    const auto [gain, pm] = calibrate_ota(*backing);
    constexpr double depth = 2.4; // spec depth in calibrated sigmas

    Scenario sc;
    sc.factory = core::ota_yield_kernel_factory(
        backing->evaluator, backing->sizing, backing->sampler);
    sc.dimension =
        core::ota_yield_dimension(backing->evaluator, backing->sizing);
    sc.backing = std::move(backing);
    sc.config = base_config(0.0035);
    if (bimodal) {
        // Low-gain + high-PM tails. Gain and PM move together under c35
        // variation (corr ~ +0.4), so the two tails are well-separated
        // failure modes in the standardized space - the case a single mean
        // shift cannot cover.
        sc.name = "bimodal_ota";
        sc.specs = {
            mc::Spec::at_least("gain_db", gain.mean - depth * gain.stddev),
            mc::Spec::at_most("pm_deg", pm.mean + depth * pm.stddev)};
        sc.config.max_samples = 12000;
        sc.reference_yield = kBimodalOtaReferenceYield;
    } else {
        // Rare low-gain tail (single failure mode).
        sc.name = "rare_ota";
        sc.specs = {
            mc::Spec::at_least("gain_db", gain.mean - depth * gain.stddev),
            mc::Spec::at_least("pm_deg", 0.0)};
        sc.config.max_samples = 60000;
        sc.reference_yield = kRareOtaReferenceYield;
    }
    return sc;
}

/// Two disjoint tail modes u0 > 3 and u1 > 3.
Scenario make_synthetic_bimodal() {
    Scenario sc;
    sc.name = "synthetic_bimodal";
    sc.specs = {mc::Spec::at_most("u0", 3.0), mc::Spec::at_most("u1", 3.0)};
    sc.factory = synthetic_bimodal_factory();
    sc.dimension = 2;
    // Tighter target than the OTA scenarios: each mode has p ~ 1.35e-3, so
    // 0.0035 would let plain MC stop on a few hundred samples and the
    // estimator comparison would measure nothing.
    sc.config = base_config(0.0015);
    sc.config.max_samples = 20000;
    return sc;
}

/// 64-dim normalized-sum metric with a rare lower tail.
Scenario make_highdim() {
    constexpr std::size_t kDim = 64;
    Scenario sc;
    sc.name = "highdim_synthetic";
    sc.specs = {mc::Spec::at_least("m_norm", -2.33)}; // p ~ 1e-2 at nominal
    sc.factory = highdim_factory(kDim);
    sc.dimension = kDim;
    sc.config = base_config(0.0035);
    // 64 dimensions need more pilot evidence per fitted coordinate.
    sc.config.pilot_samples = 512;
    sc.config.max_samples = 20000;
    return sc;
}

/// Spec 6 sigma below the mean: certifying ~100% yield.
Scenario make_clean_sweep() {
    Scenario sc;
    sc.name = "clean_sweep";
    sc.specs = {mc::Spec::at_least("value", 38.0)}; // mean 50, sigma 2
    sc.factory = synthetic_factory(50.0, 2.0);
    sc.dimension = 1;
    sc.config = base_config(0.0035);
    sc.config.max_samples = 4096;
    return sc;
}

} // namespace

std::vector<std::string> scenario_names() {
    return {"rare_ota", "bimodal_ota", "synthetic_bimodal",
            "highdim_synthetic", "clean_sweep"};
}

Scenario make_scenario(std::string_view name) {
    if (name == "rare_ota") return make_ota_scenario(false);
    if (name == "bimodal_ota") return make_ota_scenario(true);
    if (name == "synthetic_bimodal") return make_synthetic_bimodal();
    if (name == "highdim_synthetic") return make_highdim();
    if (name == "clean_sweep") return make_clean_sweep();
    std::string known;
    for (const std::string& n : scenario_names()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw InvalidInputError("make_scenario: unknown scenario '" +
                            std::string(name) + "' (registered: " + known +
                            ")");
}

} // namespace ypm::yield
