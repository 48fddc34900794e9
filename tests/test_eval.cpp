// Unit tests for src/eval: the unified batched evaluation engine - LRU
// memoisation, within-batch dedup, deterministic stochastic child streams
// across thread counts, NaN failure propagation, counters, the one chunk
// kernel shape (and its scalar adapter), and equivalence of the scalar /
// batch / engine paths for moo problems and the MC runner.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "eval/cache.hpp"
#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "moo/population_eval.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::eval;

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

/// Deterministic toy kernel: {sum, product} of the parameters.
std::vector<double> toy_kernel(const EvalRequest& r) {
    double sum = 0.0, prod = 1.0;
    for (double p : r.params) {
        sum += p;
        prod *= p;
    }
    return {sum + static_cast<double>(r.process_key), prod};
}

EvalBatch toy_batch(std::size_t n) {
    EvalBatch batch;
    for (std::size_t i = 0; i < n; ++i)
        batch.add({static_cast<double>(i), 0.5 * static_cast<double>(i)});
    return batch;
}

/// toy_kernel in the engine's chunk shape.
std::vector<std::vector<double>>
toy_chunk(std::span<const EvalRequest* const> reqs, std::span<Rng>) {
    std::vector<std::vector<double>> out;
    for (const auto* r : reqs) out.push_back(toy_kernel(*r));
    return out;
}

/// Stochastic chunk kernel: {gauss(params[0], 1), uniform} per request.
std::vector<std::vector<double>>
gauss_chunk(std::span<const EvalRequest* const> reqs, std::span<Rng> rngs) {
    std::vector<std::vector<double>> out;
    for (std::size_t k = 0; k < reqs.size(); ++k)
        out.push_back(
            {rngs[k].gauss(reqs[k]->params[0], 1.0), rngs[k].uniform01()});
    return out;
}

void expect_same_counters(const EngineCounters& a, const EngineCounters& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.failures, b.failures);
}

// ------------------------------------------------------------------ cache

TEST(LruCache, FindAfterInsert) {
    LruCache cache(4);
    cache.insert({{1.0, 2.0}, 0, 0}, {42.0});
    const auto hit = cache.find({{1.0, 2.0}, 0, 0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ((*hit)[0], 42.0);
    EXPECT_FALSE(cache.find({{1.0, 2.0}, 1, 0})); // other process point
    EXPECT_FALSE(cache.find({{1.0, 2.0}, 0, 1})); // other salt
    EXPECT_FALSE(cache.find({{1.0, 2.1}, 0, 0})); // other params
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
    LruCache cache(2);
    cache.insert({{1.0}, 0, 0}, {1.0});
    cache.insert({{2.0}, 0, 0}, {2.0});
    ASSERT_TRUE(cache.find({{1.0}, 0, 0})); // refresh key 1
    cache.insert({{3.0}, 0, 0}, {3.0});     // evicts key 2
    EXPECT_TRUE(cache.find({{1.0}, 0, 0}));
    EXPECT_FALSE(cache.find({{2.0}, 0, 0}));
    EXPECT_TRUE(cache.find({{3.0}, 0, 0}));
    EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, ZeroCapacityDisables) {
    LruCache cache(0);
    cache.insert({{1.0}, 0, 0}, {1.0});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.find({{1.0}, 0, 0}));
}

TEST(LruCache, BitExactKeying) {
    LruCache cache(4);
    cache.insert({{0.0}, 0, 0}, {1.0});
    // -0.0 == 0.0 as doubles, but the bit patterns differ: no false hit.
    EXPECT_FALSE(cache.find({{-0.0}, 0, 0}));
}

TEST(LruCache, RefreshAtCapacityKeepsSizeAndEvictionOrder) {
    // Regression test for insert()'s refresh semantics: re-inserting a
    // present key must replace its values, promote it to MRU and leave
    // size() alone - never evict to make room for a "new" entry.
    LruCache cache(2);
    cache.insert({{1.0}, 0, 0}, {1.0});
    cache.insert({{2.0}, 0, 0}, {2.0});
    cache.insert({{1.0}, 0, 0}, {10.0}); // refresh at capacity
    EXPECT_EQ(cache.size(), 2u);
    const auto refreshed = cache.find({{1.0}, 0, 0});
    ASSERT_TRUE(refreshed.has_value());
    EXPECT_DOUBLE_EQ((*refreshed)[0], 10.0);
    EXPECT_TRUE(cache.find({{2.0}, 0, 0})); // survived the refresh

    // The refresh moved key 1 to the MRU front, so the next eviction must
    // take key 2 (LRU), not key 1.
    cache.insert({{1.0}, 0, 0}, {11.0}); // key 1 MRU again
    cache.insert({{3.0}, 0, 0}, {3.0});  // evicts key 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.find({{1.0}, 0, 0}));
    EXPECT_FALSE(cache.find({{2.0}, 0, 0}));
    EXPECT_TRUE(cache.find({{3.0}, 0, 0}));
}

// ----------------------------------------------------------------- engine

TEST(Engine, ScalarAdapterMatchesChunkKernel) {
    // The scalar KernelFn adapter loops the kernel over each chunk: results
    // and counters equal the equivalent chunk kernel's, and each row equals
    // a direct kernel call. The batch repeats every point twice (dedup
    // aliases), and each engine sees it twice (LRU hits).
    EvalBatch batch = toy_batch(33);
    for (std::size_t i = 0; i < 33; ++i) batch.items.push_back(batch.items[i]);
    Engine scalar, chunked;
    for (int pass = 0; pass < 2; ++pass) {
        const auto a = scalar.evaluate(batch, KernelFn(toy_kernel));
        const auto b = chunked.evaluate(batch, ChunkKernelFn(toy_chunk));
        ASSERT_EQ(a.size(), batch.size());
        ASSERT_EQ(b.size(), batch.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].values, toy_kernel(batch.items[i]));
            EXPECT_EQ(a[i].values, b[i].values);
            EXPECT_EQ(a[i].from_cache, b[i].from_cache);
            EXPECT_EQ(a[i].from_cache, pass > 0 || i >= 33);
        }
    }
    expect_same_counters(scalar.counters(), chunked.counters());
    EXPECT_EQ(scalar.counters().evaluations, 33u);
}

TEST(Engine, DeterministicKernelSeesNoRngs) {
    for (bool parallel : {false, true}) {
        EngineConfig config;
        config.parallel = parallel;
        Engine engine(config);
        std::atomic<int> with_rngs{0};
        const auto results = engine.evaluate(
            toy_batch(40),
            ChunkKernelFn([&with_rngs](std::span<const EvalRequest* const> reqs,
                                       std::span<Rng> rngs) {
                if (!rngs.empty()) ++with_rngs;
                return toy_chunk(reqs, rngs);
            }));
        EXPECT_EQ(results.size(), 40u);
        EXPECT_EQ(with_rngs.load(), 0);
    }
}

TEST(Engine, StochasticStreamsAreBaseChildOfBatchIndex) {
    // rngs[k] must be base.child(batch index of request k), where base is
    // drawn from the caller's RNG at submission - on a serial engine and on
    // private pools of any size, whatever chunk a request lands in.
    constexpr std::size_t n = 37;
    EvalBatch batch;
    for (std::size_t i = 0; i < n; ++i) batch.add({static_cast<double>(i)}, i);

    Rng expected_parent(21);
    const Rng base = expected_parent.child(expected_parent.engine()());

    for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        EngineConfig config;
        config.parallel = threads > 0;
        config.threads = threads;
        Engine engine(config);
        // Each batch index is written by exactly one kernel call.
        std::vector<std::uint64_t> seeds(n, 0);
        Rng parent(21);
        const auto results = engine.evaluate(
            batch,
            ChunkKernelFn([&seeds](std::span<const EvalRequest* const> reqs,
                                   std::span<Rng> rngs) {
                EXPECT_EQ(rngs.size(), reqs.size());
                std::vector<std::vector<double>> out;
                for (std::size_t k = 0; k < reqs.size(); ++k) {
                    seeds[reqs[k]->process_key] = rngs[k].seed();
                    out.push_back({rngs[k].uniform01()});
                }
                return out;
            }),
            parent);
        // The caller's RNG advanced exactly once (the base draw).
        EXPECT_EQ(parent.engine(), expected_parent.engine()) << threads;
        for (std::size_t i = 0; i < n; ++i) {
            Rng expected = base.child(i);
            EXPECT_EQ(seeds[i], expected.seed())
                << "threads " << threads << ", item " << i;
            EXPECT_EQ(results[i].values,
                      std::vector<double>{expected.uniform01()})
                << "threads " << threads << ", item " << i;
        }
    }
}

TEST(Engine, CacheHitsOnRepeatedPoints) {
    Engine engine;
    const EvalBatch batch = toy_batch(8);
    const auto first = engine.evaluate(batch, KernelFn(toy_kernel));
    const auto second = engine.evaluate(batch, KernelFn(toy_kernel));
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(second[i].from_cache);
        EXPECT_EQ(second[i].values, first[i].values);
    }
    EXPECT_EQ(engine.counters().requests, 16u);
    EXPECT_EQ(engine.counters().evaluations, 8u);
    EXPECT_EQ(engine.counters().cache_hits, 8u);
}

TEST(Engine, WithinBatchDedupEvaluatesOnce) {
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 5; ++rep) batch.add({3.0, 4.0});
    std::atomic<int> calls{0};
    const auto results = engine.evaluate(
        batch, KernelFn([&calls](const EvalRequest& r) {
            ++calls;
            return toy_kernel(r);
        }));
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 4u);
    for (const auto& r : results) EXPECT_EQ(r.values, results.front().values);
}

TEST(Engine, TagSeparatesKernelKeySpaces) {
    Engine engine;
    EvalBatch a;
    a.add({1.0, 2.0});
    EvalBatch b(77); // same point, different kernel tag
    b.add({1.0, 2.0});
    const auto ra = engine.evaluate(a, KernelFn(toy_kernel));
    const auto rb = engine.evaluate(
        b, KernelFn([](const EvalRequest&) { return std::vector<double>{9.0}; }));
    EXPECT_FALSE(rb.front().from_cache);
    EXPECT_EQ(rb.front().values, std::vector<double>{9.0});
    EXPECT_NE(ra.front().values, rb.front().values);
}

TEST(Engine, NonCacheableItemsBypassCache) {
    Engine engine;
    EvalBatch batch;
    batch.add({1.0}, kNominalProcess, false);
    const auto first = engine.evaluate(batch, KernelFn(toy_kernel));
    const auto second = engine.evaluate(batch, KernelFn(toy_kernel));
    EXPECT_FALSE(second.front().from_cache);
    EXPECT_EQ(engine.counters().evaluations, 2u);
    EXPECT_EQ(engine.counters().cache_hits, 0u);
}

TEST(Engine, NanFailurePropagates) {
    Engine engine;
    EvalBatch batch = toy_batch(6);
    const auto results = engine.evaluate(
        batch, KernelFn([](const EvalRequest& r) -> std::vector<double> {
            if (r.params[0] >= 3.0) return {nan_v, 1.0};
            return toy_kernel(r);
        }));
    std::size_t failed = 0;
    for (const auto& r : results) {
        if (r.failed()) ++failed;
        // The engine's failure flag and the moo-level helper must agree.
        EXPECT_EQ(r.failed(), moo::evaluation_failed(r.values));
    }
    EXPECT_EQ(failed, 3u);
    EXPECT_EQ(engine.counters().failures, 3u);
}

TEST(Engine, DedupAliasOfFailedSourcePropagatesFailure) {
    // Regression test: within-batch dedup used to copy only `values` from
    // the source item and count every alias as a successful cache hit. A
    // failed source must mark its aliases failed and charge the ledger once
    // per alias.
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 5; ++rep) batch.add({3.0, 4.0});
    const auto results = engine.evaluate(
        batch, KernelFn([](const EvalRequest&) -> std::vector<double> {
            return {nan_v, 1.0};
        }));
    ASSERT_EQ(results.size(), 5u);
    for (const auto& r : results) EXPECT_TRUE(r.failed());
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 4u);
    EXPECT_EQ(engine.counters().failures, 5u); // source + 4 aliases
}

TEST(Engine, CacheHitOfFailedPointCountsAsFailure) {
    // Cross-batch twin of the dedup-alias rule: an LRU hit on a cached NaN
    // row is a request answered by a known-failed evaluation, so it must be
    // flagged and charged exactly like a within-batch alias would be.
    Engine engine;
    const auto kernel = KernelFn(
        [](const EvalRequest&) -> std::vector<double> { return {nan_v, 1.0}; });
    EvalBatch batch;
    batch.add({6.0, 6.0});
    (void)engine.evaluate(batch, kernel);
    const auto hit = engine.evaluate(batch, kernel);
    EXPECT_TRUE(hit.front().from_cache);
    EXPECT_TRUE(hit.front().failure);
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 1u);
    EXPECT_EQ(engine.counters().failures, 2u); // fresh failure + its hit
}

TEST(Engine, DedupAliasOfEmptyRowFailurePropagates) {
    // An empty row cannot describe its own failure through the NaN scan, so
    // the explicit failure flag must carry it to the aliases - and the row
    // must stay out of the LRU, where it would come back looking healthy.
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 3; ++rep) batch.add({7.0});
    const auto kernel =
        KernelFn([](const EvalRequest&) { return std::vector<double>{}; });
    const auto results = engine.evaluate(batch, kernel);
    for (const auto& r : results) EXPECT_TRUE(r.failed());
    EXPECT_EQ(engine.counters().failures, 3u);
    EXPECT_EQ(engine.cache_size(), 0u);

    // A later batch on the same point re-evaluates instead of hitting a
    // cached empty row.
    EvalBatch again;
    again.add({7.0});
    const auto second = engine.evaluate(again, kernel);
    EXPECT_FALSE(second.front().from_cache);
    EXPECT_TRUE(second.front().failed());
    EXPECT_EQ(engine.counters().evaluations, 2u);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
    const auto kernel = ChunkKernelFn(gauss_chunk);
    std::vector<std::vector<EvalResult>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        EngineConfig config;
        config.threads = threads;
        Engine engine(config);
        Rng rng(42);
        runs.push_back(engine.evaluate(toy_batch(64), kernel, rng));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        ASSERT_EQ(runs[t].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            EXPECT_EQ(runs[t][i].values, runs[0][i].values)
                << "thread-count run " << t << ", item " << i;
    }
}

TEST(Engine, SerialAndParallelIdentical) {
    const auto kernel = ChunkKernelFn(gauss_chunk);
    EngineConfig serial;
    serial.parallel = false;
    Engine e1(serial), e2;
    Rng r1(7), r2(7);
    const auto a = e1.evaluate(toy_batch(32), kernel, r1);
    const auto b = e2.evaluate(toy_batch(32), kernel, r2);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].values, b[i].values);
}

TEST(Engine, LruEvictionForcesReEvaluation) {
    EngineConfig config;
    config.cache_capacity = 2;
    Engine engine(config);
    EvalBatch one;
    one.add({1.0});
    (void)engine.evaluate(one, KernelFn(toy_kernel));
    (void)engine.evaluate(toy_batch(4), KernelFn(toy_kernel)); // evicts {1.0}
    const auto again = engine.evaluate(one, KernelFn(toy_kernel));
    EXPECT_FALSE(again.front().from_cache);
    EXPECT_EQ(engine.counters().evaluations, 6u);
}

TEST(Engine, ChunkKernelArityChecked) {
    EngineConfig config;
    config.parallel = false;
    Engine engine(config);
    const auto wrong_arity = ChunkKernelFn(
        [](std::span<const EvalRequest* const>, std::span<Rng>) {
            return std::vector<std::vector<double>>{};
        });
    EXPECT_THROW((void)engine.evaluate(toy_batch(4), wrong_arity),
                 InvalidInputError);
    Rng rng(1);
    EXPECT_THROW((void)engine.evaluate(toy_batch(4), wrong_arity, rng),
                 InvalidInputError);
}

TEST(Engine, EmptyBatchIsANoOp) {
    Engine engine;
    const auto results = engine.evaluate(EvalBatch{}, KernelFn(toy_kernel));
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(engine.counters().requests, 0u);
}

TEST(Engine, WallTimeAccumulates) {
    Engine engine;
    (void)engine.evaluate(toy_batch(16), KernelFn(toy_kernel));
    EXPECT_GE(engine.counters().wall_seconds, 0.0);
    const double after_one = engine.counters().wall_seconds;
    (void)engine.evaluate(toy_batch(16), KernelFn(toy_kernel));
    EXPECT_GE(engine.counters().wall_seconds, after_one);
}

// ------------------------------------------------- population bridge (moo)

TEST(PopulationEval, MatchesScalarProblemEvaluate) {
    const moo::ZdtProblem problem(1, 6);
    Engine engine;
    std::vector<std::vector<double>> points;
    Rng rng(11);
    for (int i = 0; i < 40; ++i) {
        std::vector<double> p(6);
        for (auto& v : p) v = rng.uniform01();
        points.push_back(p);
    }
    const auto results = moo::evaluate_population(engine, problem, points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i].values, problem.evaluate(points[i]));
}

TEST(PopulationEval, SharedEngineDoesNotChangeWbgaResults) {
    const moo::ToyAmplifierProblem problem;
    moo::WbgaConfig cfg;
    cfg.population = 16;
    cfg.generations = 8;

    Rng r1(5);
    const auto baseline = moo::Wbga(problem, cfg).run(r1);

    Engine engine;
    cfg.engine = &engine;
    Rng r2(5);
    const auto shared = moo::Wbga(problem, cfg).run(r2);

    ASSERT_EQ(shared.archive.size(), baseline.archive.size());
    for (std::size_t i = 0; i < shared.archive.size(); ++i) {
        EXPECT_EQ(shared.archive[i].objectives, baseline.archive[i].objectives);
        EXPECT_DOUBLE_EQ(shared.archive[i].fitness, baseline.archive[i].fitness);
    }
    // Elites re-enter the population every generation: the engine must have
    // served some of those repeats from its cache.
    EXPECT_EQ(engine.counters().requests, 16u * 8u);
    EXPECT_GT(engine.counters().cache_hits, 0u);
    EXPECT_LT(engine.counters().evaluations, engine.counters().requests);
}

// --------------------------------------------------------- MC runner bridge

TEST(McBridge, EngineOverloadMatchesLegacyRunner) {
    auto fn = [](std::size_t, Rng& rng) -> std::vector<double> {
        return {rng.gauss(10.0, 1.0), rng.uniform01()};
    };
    mc::McConfig config;
    config.samples = 48;

    Rng r1(9), r2(9);
    const auto legacy = mc::run_monte_carlo(config, r1, fn);
    Engine engine;
    const auto via_engine = mc::run_monte_carlo(engine, config, r2, fn);

    ASSERT_EQ(via_engine.rows.size(), legacy.rows.size());
    for (std::size_t i = 0; i < legacy.rows.size(); ++i)
        EXPECT_EQ(via_engine.rows[i], legacy.rows[i]);
    EXPECT_EQ(engine.counters().evaluations, 48u);
}

TEST(McBridge, FailureMaskReusedAcrossColumnQueries) {
    auto fn = [](std::size_t i, Rng&) -> std::vector<double> {
        if (i % 3 == 0) return {nan_v, nan_v};
        return {static_cast<double>(i), 2.0 * static_cast<double>(i)};
    };
    mc::McConfig config;
    config.samples = 12;
    Rng rng(1);
    const auto result = mc::run_monte_carlo(config, rng, fn);
    EXPECT_EQ(result.failed(), 4u);
    EXPECT_EQ(result.failure_mask().size(), 12u);
    EXPECT_EQ(result.column(0).size(), 8u);
    EXPECT_EQ(result.column(1).size(), 8u);
    EXPECT_EQ(result.column_summary(0).count, 8u);
}

} // namespace
