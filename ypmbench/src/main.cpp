// ypmbench: the repository benchmark. One workload per invocation:
//
//   ypmbench --workload <fig3_flow|yield_certify|filter_reuse> --seed <n>
//            --seconds <s> --trace <0|1> [--scale full|tiny]
//            [--out-dir <dir>] [--commit <id>]
//
// --trace 0 sets the workload up three times (once at tiny scale; the
// median is setup_s), then runs
// whole passes over its inputs for <s> seconds with tracing off and
// reports the end-to-end metrics. --trace 1 sets up once, alternates
// untraced and traced passes for <s> seconds, runs the layer probes and
// reports the per-layer metrics; the Chrome trace is written next to the
// results file. Every iteration's outputs are checked; the last stdout
// line is the JSON summary and the exit code is non-zero when any check
// failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#ifndef YPMBENCH_COMPILER
#define YPMBENCH_COMPILER "unknown"
#endif
#ifndef YPMBENCH_BUILD_TYPE
#define YPMBENCH_BUILD_TYPE "unknown"
#endif

using namespace ypmbench;
using namespace ypm;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".bench_build/results";
    std::string commit = "unknown";
};

bool parse(int argc, char** argv, Options& o) {
    bool have_workload = false, have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end != val.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || !(o.seconds > 0.0)) return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1") return false;
            o.trace = val == "1";
        } else if (key == "--scale") {
            if (val != "full" && val != "tiny") return false;
            o.tiny = val == "tiny";
        } else if (key == "--out-dir") {
            o.out_dir = val;
        } else if (key == "--commit") {
            o.commit = val;
        } else {
            return false;
        }
    }
    return have_workload && have_seed && argc % 2 == 1;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    return "\"" + str::json_escape(s) + "\"";
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the launching process's peak across exec.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("peak RSS: no VmHWM in /proc/self/status");
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

std::string meta_json(const Options& o, std::size_t engine_threads) {
    std::ostringstream s;
    s << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"engine_threads\": " << engine_threads
      << ", \"compiler\": " << quoted(YPMBENCH_COMPILER)
      << ", \"build_type\": " << quoted(YPMBENCH_BUILD_TYPE)
      << ", \"optimised\": " << (optimised_build() ? "true" : "false")
      << ", \"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << num(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"scale\": " << quoted(o.tiny ? "tiny" : "full")
      << ", \"commit\": " << quoted(o.commit) << "}";
    return s.str();
}

struct Report {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::set<std::string> errors; ///< failed checks, deduplicated
    std::set<std::string> notes;  ///< reported, not gated
    std::vector<double> setup_s;  ///< each set-up's seconds
    std::size_t engine_threads = 0;
    std::vector<Metric> metrics;
    std::map<std::string, double> self_ms_per_iteration;
    std::size_t transistor_checked = 0; ///< filter_reuse verifications
    std::size_t transistor_ok = 0;
};

void add(Report& r, std::string name, double value, std::string unit,
         std::size_t samples = 1, double cv = 0.0) {
    r.metrics.push_back(
        {std::move(name), value, std::move(unit), samples, cv});
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Bit-exact output digest per workload input key: the first iteration on
/// a key sets it, every later iteration on that key must reproduce it.
using Digests = std::map<std::size_t, std::uint64_t>;

void check_digest(Iteration& it, Digests& digests) {
    const auto [pos, fresh] = digests.emplace(it.key, it.digest);
    if (!fresh && pos->second != it.digest)
        it.errors.push_back("outputs differ between iterations on one input "
                            "at one seed (digest mismatch, input " +
                            std::to_string(it.key) + ")");
}

/// Timed iterations in whole passes over the workload's inputs until
/// `seconds` have passed, each checked. With `traced_its`, passes
/// alternate untraced / traced (tracer on), so both modes see every input
/// equally often; traced iterations go to `traced_its`.
std::vector<Iteration> measure(Workload& w, double seconds, Digests& digests,
                               Report& r,
                               std::vector<Iteration>* traced_its = nullptr) {
    std::vector<Iteration> its;
    const std::size_t pass = w.inputs();
    const std::size_t period = traced_its ? 2 * pass : pass;
    const std::size_t minimum = std::max<std::size_t>(3, period);
    const util::TickNs start = util::now_ns();
    for (std::size_t i = 0;; ++i) {
        if (i >= minimum && i % period == 0 &&
            util::seconds_since(start) >= seconds)
            break;
        const bool traced = traced_its && (i / pass) % 2 == 1;
        obs::Tracer::set_enabled(traced);
        Iteration it = w.run();
        obs::Tracer::set_enabled(false);
        check_digest(it, digests);
        ++r.attempted;
        if (!it.errors.empty()) ++r.failed;
        for (const std::string& e : it.errors)
            r.errors.insert("iteration: " + e);
        r.notes.insert(it.notes.begin(), it.notes.end());
        if (it.transistor_mask_ok) {
            ++r.transistor_checked;
            r.transistor_ok += *it.transistor_mask_ok ? 1 : 0;
        }
        (traced ? *traced_its : its).push_back(std::move(it));
    }
    return its;
}

/// Set up (construct + one warm-up iteration) `count` times; returns the
/// last workload and records each set-up's seconds. Every set-up must give
/// the same warm-up outputs.
std::unique_ptr<Workload> set_up(const Options& o, std::size_t count,
                                 std::vector<double>& seconds,
                                 Digests& digests, Report& r) {
    std::unique_ptr<Workload> w;
    const std::string work_dir = o.out_dir + "/work-" + o.workload;
    for (std::size_t k = 0; k < count; ++k) {
        w.reset();
        const util::TickNs t0 = util::now_ns();
        w = make_workload(o.workload, o.seed, o.tiny, work_dir);
        Iteration warm = w->run();
        seconds.push_back(util::seconds_since(t0));
        r.setup_s.push_back(seconds.back());
        check_digest(warm, digests);
        for (const std::string& e : warm.errors)
            r.errors.insert("warm-up: " + e);
        r.notes.insert(warm.notes.begin(), warm.notes.end());
    }
    return w;
}

void end_to_end(const Options& o, Report& r) {
    std::vector<double> setup_s;
    Digests digests;
    const auto w = set_up(o, o.tiny ? 1 : 3, setup_s, digests, r);
    r.engine_threads = w->engine_threads();
    const std::vector<Iteration> its = measure(*w, o.seconds, digests, r);

    std::vector<double> wall, rate, est_ms, samples;
    std::size_t reached = 0;
    Ledger total;
    for (const Iteration& it : its) {
        wall.push_back(it.wall_s);
        rate.push_back(static_cast<double>(it.ledger.evaluations) / it.wall_s);
        for (const Estimate& e : it.estimates) {
            est_ms.push_back(e.ms);
            samples.push_back(static_cast<double>(e.samples));
            reached += e.reached ? 1 : 0;
        }
        total += it.ledger;
    }
    auto add_median = [&](const char* name, const std::vector<double>& v,
                          const char* unit) {
        add(r, name, median(v), unit, v.size(), coefficient_of_variation(v));
    };
    add_median("setup_s", setup_s, "s");
    add_median("wall_s", wall, "s");
    add_median("evals_per_s", rate, "1/s");
    add_median("certify_ms_p50", est_ms, "ms");
    add_median("certify_samples", samples, "count");
    add(r, "ci_reached_share",
        ratio(static_cast<double>(reached),
              static_cast<double>(samples.size())),
        "share", samples.size());
    add(r, "ok_share",
        1.0 - ratio(static_cast<double>(total.failures),
                    static_cast<double>(total.requests)),
        "share", total.requests);
    add(r, "peak_rss_mb", peak_rss_mb(), "MB");
}

void traced(const Options& o, Report& r) {
    std::vector<double> setup_s;
    Digests digests;
    const auto w = set_up(o, 1, setup_s, digests, r);
    obs::Tracer::global().clear();
    std::vector<Iteration> its;
    const std::vector<Iteration> plain =
        measure(*w, o.seconds, digests, r, &its);
    const std::vector<obs::TraceEvent> events = obs::Tracer::global().drain();
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    obs::write_chrome_trace(o.out_dir + "/" + o.workload + "-seed" +
                                std::to_string(o.seed) + ".trace.json",
                            events, &snap);

    const std::size_t threads = w->engine_threads();
    r.engine_threads = threads;
    TraceAnalysis ta = analyse_trace(events, threads);
    const double probe_budget_s = o.tiny ? 0.02 : 0.3;
    const LayerExtras x = w->layer_extras(probe_budget_s);
    const std::vector<Probe> probes =
        run_probes(w->batch_size(), w->engine_config(), o.seed,
                   probe_budget_s);

    const auto n = static_cast<double>(its.size());
    Ledger l;
    YieldStats ys;
    std::size_t gens = 0;
    std::vector<double> traced_wall, plain_wall, est_ms;
    for (const Iteration& it : its) {
        l += it.ledger;
        ys += it.yield;
        gens += it.generations;
        traced_wall.push_back(it.wall_s);
    }
    for (const Iteration& it : plain) plain_wall.push_back(it.wall_s);
    for (const std::vector<Iteration>* v : {&plain, &std::as_const(its)})
        for (const Iteration& it : *v)
            for (const Estimate& e : it.estimates) est_ms.push_back(e.ms);

    auto probe = [&](const std::string& name) -> const Timing& {
        for (const Probe& p : probes)
            if (p.name == name) return p.timing;
        throw std::logic_error("missing probe " + name);
    };
    auto add_probe = [&](const std::string& name) {
        const Timing& t = probe(name);
        add(r, name, t.median_us, "us", t.reps, t.cv);
    };
    auto per_iteration = [&](const char* name, double total,
                             const char* unit) {
        add(r, name, total / n, unit, its.size());
    };

    add_probe("spice.dc_op_us");
    add_probe("spice.ac_sweep_us");
    const double dc = probe("spice.dc_op_us").median_us;
    const double ac = probe("spice.ac_sweep_us").median_us;
    add(r, "spice.ac_share", ratio(ac, dc + ac), "ratio");
    add_probe("linalg.lu_complex_us");
    add_probe("spice.filter_point_us");

    const auto evaluations = static_cast<double>(l.evaluations);
    per_iteration("circuits.kernel_busy_s", ta.kernel_busy_s, "s");
    add(r, "circuits.point_us", ratio(ta.kernel_busy_s * 1e6, evaluations),
        "us", l.evaluations);
    add(r, "circuits.proto_warm_ratio",
        ratio(static_cast<double>(l.warm_leases),
              static_cast<double>(l.warm_leases + l.cold_builds)),
        "ratio", l.warm_leases + l.cold_builds);

    const auto requests = static_cast<double>(l.requests);
    add(r, "eval.cache_hit_ratio",
        ratio(static_cast<double>(l.lru_hits + l.aliases), requests), "ratio",
        l.requests);
    add_probe("eval.dispatch_us_per_item");
    add(r, "eval.items_per_batch", ta.items_per_batch, "count");
    add(r, "eval.queue_wait_ms_p50", quantile(ta.queue_wait_ms, 0.5), "ms",
        ta.queue_wait_ms.size());
    add(r, "eval.queue_wait_ms_p90", quantile(ta.queue_wait_ms, 0.9), "ms",
        ta.queue_wait_ms.size());
    add(r, "eval.parallel_efficiency", ta.parallel_efficiency, "ratio");
    add(r, "eval.failed_share",
        ratio(static_cast<double>(l.failures), requests), "ratio", l.requests);

    const double moo_ms = ta.total_ms["flow.moo"] + ta.total_ms["bench.moo"];
    per_iteration("moo.stage_s", moo_ms * 1e-3, "s");
    add(r, "moo.self_ms_per_gen",
        ratio(moo_ms - ta.moo_engine_ms, static_cast<double>(gens)), "ms",
        gens);
    add(r, "moo.front_ms", x.front.median_us * 1e-3, "ms", x.front.reps,
        x.front.cv);

    per_iteration("mc.stage_s",
                  (ta.total_ms["flow.mc"] + ta.total_ms["bench.mc"]) * 1e-3,
                  "s");
    add_probe("process.sample_us");

    add(r, "certify_ms_p90", quantile(est_ms, 0.9), "ms", est_ms.size(),
        coefficient_of_variation(est_ms));
    const double yield_ms = ta.total_ms["bench.yield"];
    const auto designs = static_cast<double>(ys.designs);
    const double busy_ms_per_thread =
        ta.kernel_busy_s * 1e3 / static_cast<double>(threads);
    per_iteration("yield.stage_s", yield_ms * 1e-3, "s");
    add(r, "yield.pilot_ms", ratio(ta.total_ms["yield.pilot"], designs), "ms",
        ys.designs);
    per_iteration("yield.chunks", static_cast<double>(l.yield_chunks),
                  "count");
    per_iteration("yield.refits", static_cast<double>(l.yield_refits),
                  "count");
    add(r, "yield.self_ms",
        ys.designs > 0 ? (yield_ms - busy_ms_per_thread) / designs : 0.0,
        "ms", ys.designs);
    add(r, "yield.useful_sample_ratio",
        ratio(static_cast<double>(ys.used),
              static_cast<double>(ys.used + ys.discarded)),
        "ratio", ys.used + ys.discarded);
    add(r, "yield.ess_per_sample",
        ratio(ys.ess, static_cast<double>(ys.used)), "ratio", ys.used);

    add(r, "table.query_us", x.table_query.median_us, "us",
        x.table_query.reps, x.table_query.cv);
    per_iteration("core.table_write_ms", ta.total_ms["flow.table"], "ms");
    add(r, "core.artifact_load_ms", x.artifact_load.median_us * 1e-3, "ms",
        x.artifact_load.reps, x.artifact_load.cv);
    add(r, "va.transistor_mask_share",
        ratio(static_cast<double>(r.transistor_ok),
              static_cast<double>(r.transistor_checked)),
        "share", r.transistor_checked);

    add(r, "obs.trace_overhead_pct",
        (ratio(median(traced_wall), median(plain_wall)) - 1.0) * 100.0, "%",
        traced_wall.size());
    per_iteration("obs.trace_events", static_cast<double>(ta.events),
                  "count");
    add(r, "obs.span_coverage", ta.span_coverage, "ratio", its.size());
    if (const auto failure = coverage_failure(ta)) r.errors.insert(*failure);

    for (const auto& [name, self] : ta.self_ms)
        r.self_ms_per_iteration[name] = self / n;
}

std::string metrics_object(const Report& r, bool detailed) {
    std::ostringstream s;
    s << "{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        s << (i ? ", " : "") << quoted(m.name)
          << ": {\"value\": " << num(m.value)
          << ", \"unit\": " << quoted(m.unit);
        if (detailed)
            s << ", \"samples\": " << m.samples << ", \"cv\": " << num(m.cv);
        s << "}";
    }
    s << "}";
    return s.str();
}

void write_results(const Options& o, const Report& r, bool correct) {
    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             std::to_string(o.trace ? 1 : 0) + ".json";
    std::ofstream f(path);
    f << "{\"meta\": " << meta_json(o, r.engine_threads)
      << ",\n \"correct\": " << (correct ? "true" : "false")
      << ",\n \"errors\": [";
    std::size_t k = 0;
    for (const std::string& e : r.errors)
        f << (k++ ? ", " : "") << quoted(e);
    f << "],\n \"notes\": [";
    k = 0;
    for (const std::string& n : r.notes)
        f << (k++ ? ", " : "") << quoted(n);
    f << "],\n \"setup_s\": [";
    k = 0;
    for (double v : r.setup_s) f << (k++ ? ", " : "") << num(v);
    f << "],\n \"metrics\": " << metrics_object(r, true)
      << ",\n \"blocking_path_self_ms_per_iteration\": {";
    k = 0;
    for (const auto& [name, self] : r.self_ms_per_iteration)
        f << (k++ ? ", " : "") << quoted(name) << ": " << num(self);
    f << "}}\n";
    std::fprintf(stderr, "ypmbench: results written to %s\n", path.c_str());
}

} // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: ypmbench --workload <name> --seed <n> "
                     "[--seconds <s>] [--trace 0|1] [--scale full|tiny] "
                     "[--out-dir <dir>] [--commit <id>]\n");
        return 2;
    }
    const auto names = workload_names();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
        std::fprintf(stderr, "ypmbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    log::set_level(log::Level::warn);
    if (!optimised_build())
        std::fprintf(stderr, "ypmbench: WARNING: not an optimised build - "
                             "timings are not comparable\n");

    Report r;
    try {
        if (o.trace)
            traced(o, r);
        else
            end_to_end(o, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ypmbench: %s\n", e.what());
        return 1;
    }
    for (Metric& m : r.metrics)
        if (!std::isfinite(m.value)) {
            r.errors.insert("metric " + m.name + " is not finite");
            m.value = 0.0;
        }
    const bool correct = r.errors.empty();
    for (const std::string& e : r.errors)
        std::fprintf(stderr, "ypmbench: CHECK FAILED: %s\n", e.c_str());
    for (const std::string& n : r.notes)
        std::fprintf(stderr, "ypmbench: NOTE: %s\n", n.c_str());
    if (r.transistor_checked > 0)
        std::fprintf(stderr,
                     "ypmbench: in %zu of %zu timed iterations the chosen "
                     "filter design meets the mask at transistor level "
                     "(reported, not gated)\n",
                     r.transistor_ok, r.transistor_checked);

    std::printf("# meta %s\n", meta_json(o, r.engine_threads).c_str());
    std::printf("%-28s %16s %-6s %8s %8s\n", "metric", "value", "unit", "n",
                "cv");
    for (const Metric& m : r.metrics)
        std::printf("%-28s %16.6g %-6s %8zu %8.4f\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples, m.cv);
    write_results(o, r, correct);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", r.attempted, r.failed,
                metrics_object(r, false).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
