#pragma once
/// \file layers.hpp
/// \brief Layer probes and traced-run analysis of the benchmark.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace ypmbench {

/// One layer probe: a public entry point timed call by call from outside.
struct Probe {
    std::string name;
    Timing timing;
};

/// spice.dc_op_us, spice.ac_sweep_us, linalg.lu_complex_us,
/// spice.filter_point_us, eval.dispatch_us_per_item (at `batch_size`, on
/// an engine scheduled as `engine_config`, cache off) and
/// process.sample_us, each timed for about `budget_s` seconds.
[[nodiscard]] std::vector<Probe>
run_probes(std::size_t batch_size, ypm::eval::EngineConfig engine_config,
           std::uint64_t seed, double budget_s);

/// Spans that wrap a whole iteration or a whole public call. Their self
/// time is whatever no layer span accounts for, so it does not count as
/// covered.
inline constexpr std::string_view kWrapperSpans[] = {
    "bench.iteration", "flow.run", "bench.yield"};

/// Blocking-path layer self times must cover this share of the traced
/// wall time.
inline constexpr double kSpanCoverageTolerance = 0.95;

/// What the traced iterations' spans say, summed over those iterations.
struct TraceAnalysis {
    double wall_s = 0.0;        ///< sum of bench.iteration spans
    double kernel_busy_s = 0.0; ///< sum of engine.kernel spans, all threads
    double parallel_efficiency = 0.0;
    double items_per_batch = 0.0;
    std::vector<double> queue_wait_ms; ///< per kernel task
    /// Calling-thread (blocking-path) self and total time per span name.
    std::map<std::string, double> self_ms;
    std::map<std::string, double> total_ms;
    double moo_engine_ms = 0.0; ///< engine submit/wait inside optimiser stages
    /// Sum of the blocking-path self times of every span but the
    /// wrappers (kWrapperSpans), as a share of the traced wall time.
    double span_coverage = 0.0;
    std::size_t events = 0;
};

[[nodiscard]] TraceAnalysis
analyse_trace(const std::vector<ypm::obs::TraceEvent>& events,
              std::size_t threads);

/// The span-coverage gate: a message when the layer spans cover less than
/// kSpanCoverageTolerance of the traced wall time.
[[nodiscard]] std::optional<std::string>
coverage_failure(const TraceAnalysis& a);

} // namespace ypmbench
