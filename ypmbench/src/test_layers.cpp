// Fixture tests of the traced-run analysis: the span-coverage gate passes
// on a trace whose layer spans fill the iteration and fails on one with an
// unspanned gap hidden inside a wrapper span. Exit code 0 when every case
// holds; run by test_bench.py.

#include <cmath>
#include <cstdio>
#include <vector>

#include "layers.hpp"

using namespace ypmbench;
using ypm::obs::TraceEvent;

namespace {

constexpr ypm::util::TickNs kMs = 1000000;

TraceEvent span(const char* name, int start_ms, int end_ms,
                std::uint32_t tid = 1) {
    TraceEvent e;
    e.name = name;
    e.category = "test";
    e.start_ns = start_ms * kMs;
    e.dur_ns = (end_ms - start_ms) * kMs;
    e.tid = tid;
    return e;
}

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "FAILED: %s\n", what);
        ++failures;
    }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

} // namespace

int main() {
    {
        // A flow whose steps leave 10 ms of 100 unspanned: the gap is
        // flow.run's own self time and must not count as covered.
        const std::vector<TraceEvent> events = {
            span("bench.iteration", 0, 100), span("flow.run", 0, 100),
            span("flow.moo", 0, 50), span("flow.mc", 60, 100),
            span("engine.kernel", 1, 40, 2)};
        const TraceAnalysis a = analyse_trace(events, 4);
        expect(near(a.wall_s, 0.1), "gap: wall is the iteration span");
        expect(near(a.span_coverage, 0.9), "gap: coverage is 0.9");
        expect(coverage_failure(a).has_value(), "gap: the gate fails");
        expect(near(a.self_ms.at("flow.run"), 10.0),
               "gap: wrapper self time is the gap");
        expect(near(a.kernel_busy_s, 0.039), "gap: kernel busy time");
    }
    {
        // A certification whose pilot and chunk waits fill 99 ms of 100.
        const std::vector<TraceEvent> events = {
            span("bench.iteration", 0, 100), span("bench.yield", 0, 100),
            span("yield.pilot", 0, 20), span("engine.wait", 2, 20),
            span("engine.wait", 20, 99)};
        const TraceAnalysis a = analyse_trace(events, 4);
        expect(near(a.span_coverage, 0.99), "covered: coverage is 0.99");
        expect(!coverage_failure(a).has_value(), "covered: the gate passes");
        expect(near(a.self_ms.at("yield.pilot"), 2.0),
               "covered: pilot self time excludes its wait");
    }
    if (failures == 0) std::printf("test_layers: all cases pass\n");
    return failures == 0 ? 0 : 1;
}
