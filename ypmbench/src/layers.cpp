// Per-layer numbers: layer probes timed from outside through public entry
// points, and the traced-run analysis that turns the recorded spans and
// registry counters into per-layer self times, ratios and waits.

#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <iterator>
#include <map>
#include <stdexcept>

#include "circuits/filter.hpp"
#include "circuits/ota.hpp"
#include "eval/engine.hpp"
#include "linalg/lu.hpp"
#include "process/sampler.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace ypmbench {

using namespace ypm;

std::vector<Probe> run_probes(std::size_t batch_size,
                              eval::EngineConfig engine_config,
                              std::uint64_t seed, double budget_s) {
    std::vector<Probe> out;
    const circuits::OtaConfig ota_config;
    const circuits::OtaSizing sizing;

    // SPICE reference path on the OTA testbench: DC operating point, then
    // the full AC sweep from that point.
    spice::Circuit tb = circuits::build_ota_testbench(sizing, ota_config);
    const spice::Solution op = spice::solve_op(tb);
    const std::vector<double> freqs = spice::log_sweep(
        ota_config.f_start, ota_config.f_stop, ota_config.points_per_decade);
    out.push_back({"spice.dc_op_us", time_calls(budget_s, [&] {
                       if (spice::solve_op(tb).size() == 0)
                           throw std::runtime_error("solve_op: empty");
                   })});
    out.push_back({"spice.ac_sweep_us", time_calls(budget_s, [&] {
                       if (spice::run_ac(tb, op, freqs).points.size() !=
                           freqs.size())
                           throw std::runtime_error("run_ac: short sweep");
                   })});

    // Dense complex LU at the OTA's MNA size: factor + one solve.
    constexpr std::size_t n = 13;
    Rng rng = Rng(seed).child(7);
    linalg::Matrix<std::complex<double>> a(n);
    std::vector<std::complex<double>> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = {rng.gauss(), rng.gauss()};
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = {rng.gauss(), rng.gauss()};
        a(i, i) += static_cast<double>(2 * n);
    }
    out.push_back({"linalg.lu_complex_us", time_calls(budget_s, [&] {
                       if (!std::isfinite(linalg::solve(a, b)[0].real()))
                           throw std::runtime_error("lu: non-finite");
                   })});

    // One behavioural filter point (macromodel OTA).
    const circuits::FilterEvaluator filter{circuits::FilterConfig{},
                                           circuits::FilterSpecMask{}};
    const circuits::FilterSizing filter_sizing;
    out.push_back({"spice.filter_point_us", time_calls(budget_s, [&] {
                       const auto perf = filter.measure(
                           filter_sizing, circuits::OtaModelKind::behavioural);
                       if (!perf.valid)
                           throw std::runtime_error("filter point failed");
                   })});

    // Engine dispatch: a trivial kernel at the workload's batch size and
    // scheduling, cache off, so the per-item cost is pure scheduling +
    // bookkeeping.
    engine_config.cache_capacity = 0;
    eval::Engine engine(engine_config);
    const eval::KernelFn trivial = [](const eval::EvalRequest& r) {
        return std::vector<double>{r.params[0] + 1.0};
    };
    eval::EvalBatch batch;
    for (std::size_t i = 0; i < batch_size; ++i)
        batch.add({static_cast<double>(i)});
    out.push_back({"eval.dispatch_us_per_item",
                   time_calls(
                       budget_s,
                       [&] {
                           if (engine.evaluate(batch, trivial).size() !=
                               batch_size)
                               throw std::runtime_error("dispatch: short");
                       },
                       static_cast<double>(batch_size))});

    // One process realisation of the OTA's ten devices.
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    const auto geometries = tb.mos_geometries();
    Rng draw_rng = Rng(seed).child(8);
    out.push_back({"process.sample_us", time_calls(budget_s, [&] {
                       const auto r = sampler.sample(draw_rng, geometries);
                       (void)r;
                   })});
    return out;
}

namespace {

bool is(const obs::TraceEvent& e, const char* name) {
    return std::string_view(e.name) == name;
}

double arg(const obs::TraceEvent& e, const char* key) {
    for (const obs::TraceArg& a : e.args)
        if (std::string_view(a.key) == key) return a.value;
    return -1.0;
}

double ms(util::TickNs ns) { return static_cast<double>(ns) * 1e-6; }

} // namespace

TraceAnalysis analyse_trace(const std::vector<obs::TraceEvent>& events,
                            std::size_t threads) {
    TraceAnalysis a;
    std::uint32_t main_tid = 0;
    for (const obs::TraceEvent& e : events)
        if (is(e, "bench.iteration")) {
            main_tid = e.tid;
            a.wall_s += static_cast<double>(e.dur_ns) * 1e-9;
        }

    // Queue wait: kernel start minus its batch's submit start (batch ids
    // are process-wide, so the latest submit with that id is the owner).
    std::map<double, util::TickNs> submit_start;
    std::size_t submits = 0;
    double submit_items = 0.0;
    for (const obs::TraceEvent& e : events) {
        if (is(e, "engine.submit")) {
            submit_start[arg(e, "batch")] = e.start_ns;
            ++submits;
            submit_items += arg(e, "items");
        } else if (is(e, "engine.kernel")) {
            a.kernel_busy_s += static_cast<double>(e.dur_ns) * 1e-9;
            const auto it = submit_start.find(arg(e, "batch"));
            if (it != submit_start.end())
                a.queue_wait_ms.push_back(ms(e.start_ns - it->second));
        }
    }
    if (submits > 0)
        a.items_per_batch = submit_items / static_cast<double>(submits);
    if (a.wall_s > 0.0)
        a.parallel_efficiency =
            a.kernel_busy_s / (a.wall_s * static_cast<double>(threads));

    // Blocking path: the calling thread's properly nested spans (the async
    // engine.batch span straddles scopes and is left out). Self time =
    // duration minus the children's durations.
    std::vector<const obs::TraceEvent*> path;
    for (const obs::TraceEvent& e : events)
        if (e.tid == main_tid && !e.instant && !is(e, "engine.batch"))
            path.push_back(&e);
    std::stable_sort(path.begin(), path.end(),
                     [](const obs::TraceEvent* x, const obs::TraceEvent* y) {
                         if (x->start_ns != y->start_ns)
                             return x->start_ns < y->start_ns;
                         return x->dur_ns > y->dur_ns;
                     });
    struct Open {
        const obs::TraceEvent* e;
        util::TickNs children = 0;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
        a.self_ms[o.e->name] += ms(o.e->dur_ns - o.children);
        a.total_ms[o.e->name] += ms(o.e->dur_ns);
    };
    auto end = [](const obs::TraceEvent* e) { return e->start_ns + e->dur_ns; };
    for (const obs::TraceEvent* e : path) {
        while (!stack.empty() && end(stack.back().e) <= e->start_ns) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty()) stack.back().children += e->dur_ns;
        stack.push_back({e});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }

    // Engine time (submit + wait) inside each optimiser stage, for the
    // optimiser's own share of the stage.
    for (const obs::TraceEvent* stage : path) {
        if (!is(*stage, "flow.moo") && !is(*stage, "bench.moo")) continue;
        for (const obs::TraceEvent* e : path)
            if ((is(*e, "engine.submit") || is(*e, "engine.wait")) &&
                e->start_ns >= stage->start_ns && end(e) <= end(stage))
                a.moo_engine_ms += ms(e->dur_ns);
    }
    // Coverage: the layer spans' self times, without the wrappers' own.
    double covered_ms = 0.0;
    for (const auto& [name, self] : a.self_ms)
        if (std::find(std::begin(kWrapperSpans), std::end(kWrapperSpans),
                      name) == std::end(kWrapperSpans))
            covered_ms += self;
    if (a.wall_s > 0.0) a.span_coverage = covered_ms / (a.wall_s * 1e3);
    a.events = events.size();
    return a;
}

std::optional<std::string> coverage_failure(const TraceAnalysis& a) {
    if (a.span_coverage >= kSpanCoverageTolerance) return std::nullopt;
    return "layer spans cover only " + std::to_string(a.span_coverage) +
           " of the traced wall time (tolerance " +
           std::to_string(kSpanCoverageTolerance) + ")";
}

} // namespace ypmbench
