#pragma once
/// \file bench.hpp
/// \brief Shared types of the repository benchmark (ypmbench): workload
///        interface, per-iteration records, metric rows and the helpers the
///        main program, the workloads and the traced-run analysis share.
///
/// The benchmark drives only the library's public entry points and times
/// every layer from outside: through its own obs::Span scopes around those
/// calls, the spans and counters src/obs/ already records, and the
/// FlowTimings / EngineCounters ledgers.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/engine.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace ypmbench {

/// One reported number. `samples` is how many observations stand behind
/// `value` and `cv` their coefficient of variation (0 when not defined).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    double cv = 0.0;
};

/// Process-wide engine ledger, read as a delta of the always-on metrics
/// registry, so every engine the public entry points create is counted.
/// `lru_hits` are cache hits proper; `aliases` are in-batch duplicates
/// answered from a sibling item (the registry's engine.cache_hits counts
/// both).
struct Ledger {
    std::uint64_t requests = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t lru_hits = 0;
    std::uint64_t aliases = 0;
    std::uint64_t failures = 0;
    std::uint64_t warm_leases = 0;
    std::uint64_t cold_builds = 0;
    std::uint64_t yield_chunks = 0;
    std::uint64_t yield_refits = 0;

    [[nodiscard]] bool balances() const {
        return requests == evaluations + lru_hits + aliases;
    }
    Ledger& operator+=(const Ledger& o);
};

[[nodiscard]] Ledger ledger_delta(const ypm::obs::MetricsSnapshot& before,
                                  const ypm::obs::MetricsSnapshot& after);

/// One yield interval a workload produced: time to the interval, samples
/// simulated for it, and whether its stop rule was met within its cap.
struct Estimate {
    double ms = 0.0;
    std::size_t samples = 0;
    bool reached = false;
};

/// Estimator bookkeeping of one iteration (yield_certify only).
struct YieldStats {
    std::size_t designs = 0;   ///< designs certified
    std::size_t used = 0;      ///< main-stage samples folded
    std::size_t discarded = 0; ///< drained overshoot
    double ess = 0.0;          ///< summed fail-side ESS

    YieldStats& operator+=(const YieldStats& o) {
        designs += o.designs;
        used += o.used;
        discarded += o.discarded;
        ess += o.ess;
        return *this;
    }
};

/// Everything one timed iteration leaves behind.
struct Iteration {
    /// Which input the iteration processed (a workload that cycles through
    /// several inputs numbers them); outputs must repeat per key.
    std::size_t key = 0;
    double wall_s = 0.0;
    Ledger ledger;
    std::vector<Estimate> estimates;
    YieldStats yield;
    std::uint64_t digest = 0;        ///< bit-exact digest of the outputs
    std::size_t generations = 0;     ///< optimiser generations run
    std::vector<std::string> errors; ///< failed correctness checks
    /// filter_reuse: the chosen design meets the mask at transistor level
    /// (reported, not gated; each miss is described in `notes`).
    std::optional<bool> transistor_mask_ok;
    std::vector<std::string> notes;
};

/// Summary statistics of a sample.
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double coefficient_of_variation(const std::vector<double>& v);

/// Result of a timed repetition loop (layer probes).
struct Timing {
    double median_us = 0.0;
    double cv = 0.0;
    std::size_t reps = 0;
};

/// Time `fn` call by call until `budget_s` is spent (after a short
/// warm-up, and at least 20 calls); `per_call` divides each call's time,
/// for batched calls.
template <class Fn>
Timing time_calls(double budget_s, Fn&& fn, double per_call = 1.0) {
    for (int i = 0; i < 3; ++i) fn();
    std::vector<double> us;
    const ypm::util::TickNs start = ypm::util::now_ns();
    while (us.size() < 20 || (ypm::util::seconds_since(start) < budget_s &&
                              us.size() < 200000)) {
        const ypm::util::TickNs t0 = ypm::util::now_ns();
        fn();
        us.push_back(ypm::util::seconds_since(t0) * 1e6 / per_call);
    }
    return {median(us), coefficient_of_variation(us), us.size()};
}

/// Workload-specific layer probes measured in the traced run.
struct LayerExtras {
    Timing front;         ///< extract_front_indices on the archive
    Timing table_query;   ///< BehaviouralModel::size_for_spec
    Timing artifact_load; ///< BehaviouralModel::from_artifacts
};

/// One benchmark workload. Construction is the set-up (inputs from the
/// seed, calibration, artifact build and load); run() is one timed
/// iteration, closed loop, one caller.
class Workload {
public:
    virtual ~Workload() = default;
    [[nodiscard]] virtual Iteration run() = 0;
    /// Number of distinct inputs run() cycles through (iteration keys).
    [[nodiscard]] virtual std::size_t inputs() const = 0;
    /// Typical engine batch size, for the dispatch-cost probe.
    [[nodiscard]] virtual std::size_t batch_size() const = 0;
    /// Scheduling of the engine that carries the timed batches, for the
    /// dispatch-cost probe.
    [[nodiscard]] virtual ypm::eval::EngineConfig engine_config() const {
        return {};
    }
    /// Pool workers the timed work runs on (run metadata, and the divisor
    /// of the traced run's parallel efficiency).
    [[nodiscard]] virtual std::size_t engine_threads() const;
    /// Probes that need the workload's own state (archive, model, files),
    /// each timed for about `budget_s` seconds.
    [[nodiscard]] virtual LayerExtras layer_extras(double budget_s) const = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// \param tiny smoke-test scale (seconds, not minutes, for every stage)
/// \param work_dir scratch directory for artifacts (inside the checkout)
[[nodiscard]] std::unique_ptr<Workload>
make_workload(const std::string& name, std::uint64_t seed, bool tiny,
              const std::string& work_dir);

/// FNV-1a over raw bytes: the iteration digest that must repeat bit-exactly.
class Digest {
public:
    void add(const void* data, std::size_t size);
    void add(double v) { add(&v, sizeof v); }
    void add(std::size_t v) { add(&v, sizeof v); }
    void add(const std::vector<double>& v) {
        for (double x : v) add(x);
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace ypmbench
