// Observability stack: metrics registry arithmetic, snapshot/JSON
// well-formedness, span tracing (nesting, drain ordering, Chrome export),
// multi-threaded counter correctness, and the contract everything else
// leans on - a traced flow run is bit-identical to an untraced one.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ypm;

// ------------------------------------------------- minimal JSON validator
//
// Recursive-descent checker for the subset the exporters emit (objects,
// arrays, strings with escapes, numbers, booleans). Rejecting trailing
// garbage makes it strict enough to catch missing commas/braces.

class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    [[nodiscard]] bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool object() {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array() {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                if (pos_ + 1 >= s_.size()) return false;
                pos_ += 2;
                continue;
            }
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_; // closing quote
        return true;
    }

    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char* word) {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    [[nodiscard]] char peek() const {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

// ----------------------------------------------------------- instruments

TEST(Metrics, CounterAddsAndResets) {
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeKeepsLastValue) {
    obs::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(0.25);
    g.set(0.75);
    EXPECT_EQ(g.value(), 0.75);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketsObservations) {
    obs::Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);   // <= 1       -> bucket 0
    h.observe(1.0);   // <= 1       -> bucket 0 (first matching edge wins)
    h.observe(5.0);   // <= 10      -> bucket 1
    h.observe(100.0); // <= 100     -> bucket 2
    h.observe(1e6);   // overflow   -> bucket 3
    EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(Metrics, HistogramRejectsBadEdges) {
    EXPECT_THROW(obs::Histogram({}), InvalidInputError);
    EXPECT_THROW(obs::Histogram({1.0, 1.0}), InvalidInputError);
    EXPECT_THROW(obs::Histogram({2.0, 1.0}), InvalidInputError);
}

// -------------------------------------------------------------- registry

TEST(MetricsRegistry, SameNameSameInstrument) {
    obs::MetricsRegistry reg;
    obs::Counter& a = reg.counter("hits");
    obs::Counter& b = reg.counter("hits");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, KindConflictsThrow) {
    obs::MetricsRegistry reg;
    (void)reg.counter("x");
    EXPECT_THROW((void)reg.gauge("x"), InvalidInputError);
    EXPECT_THROW((void)reg.histogram("x", {1.0}), InvalidInputError);
    (void)reg.histogram("h", {1.0, 2.0});
    EXPECT_THROW((void)reg.histogram("h", {1.0, 3.0}), InvalidInputError);
    (void)reg.histogram("h", {1.0, 2.0}); // identical edges: fine
}

TEST(MetricsRegistry, SnapshotIsSortedAndQueryable) {
    obs::MetricsRegistry reg;
    reg.counter("b.count").add(2);
    reg.counter("a.count").add(1);
    reg.gauge("rate").set(0.5);
    reg.histogram("lat", {1.0, 2.0}).observe(1.5);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "a.count"); // map order == sorted
    EXPECT_EQ(snap.counters[1].name, "b.count");
    EXPECT_EQ(snap.counter_value("b.count"), 2u);
    EXPECT_EQ(snap.counter_value("missing"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauge_value("rate"), 0.5);
    EXPECT_DOUBLE_EQ(snap.gauge_value("missing"), 0.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].buckets,
              (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(MetricsRegistry, ResetZeroesButKeepsNames) {
    obs::MetricsRegistry reg;
    reg.counter("n").add(7);
    reg.gauge("g").set(3.0);
    reg.histogram("h", {1.0}).observe(0.5);
    reg.reset();
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter_value("n"), 0u);
    EXPECT_EQ(snap.gauge_value("g"), 0.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 0u);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
    obs::MetricsRegistry reg;
    reg.counter("engine.requests").add(12);
    reg.gauge("cache.hit_rate").set(0.875);
    reg.histogram("pool.task_seconds", {1e-3, 1e-2}).observe(5e-3);
    const std::string json = reg.snapshot().to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"engine.requests\":12"), std::string::npos) << json;
    EXPECT_NE(json.find("cache.hit_rate"), std::string::npos);
    EXPECT_NE(json.find("pool.task_seconds"), std::string::npos);
}

TEST(MetricsRegistry, CountersExactUnderThreadPoolContention) {
    obs::MetricsRegistry reg;
    obs::Counter& hits = reg.counter("mt.hits");
    obs::Histogram& h = reg.histogram("mt.lat", {0.5});
    constexpr std::size_t n = 10000;
    ThreadPool pool(4);
    pool.parallel_for(n, [&](std::size_t i) {
        hits.add();
        h.observe(i % 2 == 0 ? 0.25 : 1.0);
    });
    EXPECT_EQ(hits.value(), n);
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{n / 2, n / 2}));
}

// ---------------------------------------------------------------- tracer

/// Enables tracing for one scope and guarantees the global buffers are
/// empty on entry and disabled+empty on exit, so tests cannot leak spans
/// into each other (the tracer is process-wide by design).
class ScopedTracing {
public:
    ScopedTracing() {
        obs::Tracer::global().clear();
        obs::Tracer::set_enabled(true);
    }
    ~ScopedTracing() {
        obs::Tracer::set_enabled(false);
        obs::Tracer::global().clear();
    }
};

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
    ASSERT_FALSE(obs::Tracer::enabled());
    {
        obs::Span span("ignored", "test");
        span.arg("x", 1.0);
    }
    obs::Tracer::instant("also_ignored", "test");
    EXPECT_TRUE(obs::Tracer::global().drain().empty());
}

TEST(Tracer, SpansNestAndDrainSorted) {
    const ScopedTracing tracing;
    {
        obs::Span outer("outer", "test");
        outer.arg("level", 0.0);
        {
            obs::Span inner("inner", "test");
            inner.arg("level", 1.0);
        }
    }
    obs::Tracer::instant("tick", "test", {{"k", 3.0}});

    const auto events = obs::Tracer::global().drain();
    ASSERT_EQ(events.size(), 3u);
    // Sorted by start time with longer spans first: parent before child.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_STREQ(events[2].name, "tick");
    EXPECT_TRUE(events[2].instant);

    // Containment: the inner span lies inside the outer one.
    const auto& outer = events[0];
    const auto& inner = events[1];
    EXPECT_LE(outer.start_ns, inner.start_ns);
    EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);

    ASSERT_EQ(outer.args.size(), 1u);
    EXPECT_STREQ(outer.args[0].key, "level");
    EXPECT_EQ(outer.args[0].value, 0.0);

    // drain() moved everything out.
    EXPECT_TRUE(obs::Tracer::global().drain().empty());
}

TEST(Tracer, WorkerThreadEventsGetDistinctTids) {
    const ScopedTracing tracing;
    ThreadPool pool(2);
    pool.parallel_for(8, [](std::size_t) {
        const obs::Span span("work", "test");
    });
    {
        const obs::Span span("main", "test");
    }
    const auto events = obs::Tracer::global().drain();
    ASSERT_GE(events.size(), 9u);
    std::size_t main_tid_events = 0;
    for (const auto& e : events)
        if (std::strcmp(e.name, "main") == 0) ++main_tid_events;
    EXPECT_EQ(main_tid_events, 1u);
}

TEST(Tracer, ChromeJsonIsWellFormedAndCarriesMetrics) {
    const ScopedTracing tracing;
    {
        obs::Span span("engine.submit", "engine");
        span.arg("items", 17.0);
    }
    obs::Tracer::instant("yield.chunk", "yield", {{"ess", 12.5}});
    const auto events = obs::Tracer::global().drain();

    obs::MetricsRegistry reg;
    reg.counter("engine.requests").add(17);
    const auto snap = reg.snapshot();

    const std::string json = obs::chrome_trace_json(events, &snap);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"engine.submit\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"engine.requests\":17"), std::string::npos);
}

TEST(Tracer, SummaryTableAggregatesByName) {
    const ScopedTracing tracing;
    for (int i = 0; i < 3; ++i) {
        const obs::Span span("repeated", "test");
    }
    const auto events = obs::Tracer::global().drain();
    const std::string table = obs::trace_summary_table(events);
    EXPECT_NE(table.find("repeated"), std::string::npos);
    EXPECT_NE(table.find("3"), std::string::npos); // count column
}

// ------------------------------------------- traced == untraced, end to end

core::FlowConfig tiny_flow_config() {
    core::FlowConfig cfg;
    cfg.ga.population = 12;
    cfg.ga.generations = 6;
    cfg.mc_samples = 24;
    cfg.max_mc_points = 6;
    cfg.seed = 99;
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 30.0),
                       mc::Spec::at_least("pm_deg", 15.0)};
    cfg.yield_sequential.pilot_samples = 16;
    cfg.yield_sequential.chunk_samples = 16;
    cfg.yield_sequential.max_samples = 32;
    cfg.yield_sequential.min_samples = 16;
    return cfg;
}

void expect_bit_identical(const core::FlowResult& a, const core::FlowResult& b) {
    auto same_bits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.size(); ++i) {
        const auto& p = a.front[i];
        const auto& q = b.front[i];
        EXPECT_EQ(p.design_id, q.design_id) << i;
        EXPECT_TRUE(same_bits(p.gain_db, q.gain_db)) << i;
        EXPECT_TRUE(same_bits(p.pm_deg, q.pm_deg)) << i;
        EXPECT_TRUE(same_bits(p.dgain_pct, q.dgain_pct)) << i;
        EXPECT_TRUE(same_bits(p.dpm_pct, q.dpm_pct)) << i;
        EXPECT_TRUE(same_bits(p.f3db, q.f3db)) << i;
        EXPECT_TRUE(same_bits(p.gbw, q.gbw)) << i;
        EXPECT_EQ(p.mc_failures, q.mc_failures) << i;
    }
    ASSERT_EQ(a.yields.size(), b.yields.size());
    for (std::size_t i = 0; i < a.yields.size(); ++i) {
        const auto& p = a.yields[i].result;
        const auto& q = b.yields[i].result;
        EXPECT_EQ(a.yields[i].design_id, b.yields[i].design_id) << i;
        EXPECT_TRUE(same_bits(p.estimate.yield, q.estimate.yield)) << i;
        EXPECT_TRUE(same_bits(p.estimate.ess, q.estimate.ess)) << i;
        EXPECT_EQ(p.samples_used, q.samples_used) << i;
        EXPECT_EQ(p.pilot_samples, q.pilot_samples) << i;
    }
    EXPECT_EQ(a.timings.moo_evaluations, b.timings.moo_evaluations);
    EXPECT_EQ(a.timings.mc_evaluations, b.timings.mc_evaluations);
    EXPECT_EQ(a.timings.engine.requests, b.timings.engine.requests);
    EXPECT_EQ(a.timings.engine.evaluations, b.timings.engine.evaluations);
    EXPECT_EQ(a.timings.engine.cache_hits, b.timings.engine.cache_hits);
    EXPECT_EQ(a.timings.engine.failures, b.timings.engine.failures);
}

TEST(TracedFlow, BitIdenticalToUntracedAndWritesValidTrace) {
    namespace fs = std::filesystem;
    const std::string trace_path =
        (fs::temp_directory_path() / "ypm_test_obs_trace.json").string();

    const circuits::OtaConfig ota;
    const core::YieldFlow plain(ota, tiny_flow_config());
    const core::FlowResult untraced = plain.run();

    core::FlowConfig traced_cfg = tiny_flow_config();
    traced_cfg.trace_path = trace_path;
    const core::YieldFlow traced_flow(ota, traced_cfg);
    const core::FlowResult traced = traced_flow.run();

    expect_bit_identical(untraced, traced);

    // run() turned tracing back off.
    EXPECT_FALSE(obs::Tracer::enabled());

    // The trace artifact is valid JSON and contains the expected spans.
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good());
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_TRUE(JsonChecker(json).valid());
    for (const char* name :
         {"flow.run", "flow.moo", "flow.mc", "flow.yield", "engine.submit",
          "engine.batch", "engine.kernel", "yield.chunk"})
        EXPECT_NE(json.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name;
    fs::remove(trace_path);
}

} // namespace
