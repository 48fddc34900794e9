#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace ypmbench {

std::size_t Workload::engine_threads() const {
    return ypm::ThreadPool::global().size();
}

Ledger ledger_delta(const ypm::obs::MetricsSnapshot& before,
                    const ypm::obs::MetricsSnapshot& after) {
    auto d = [&](const char* name) {
        return after.counter_value(name) - before.counter_value(name);
    };
    Ledger l;
    l.requests = d("engine.requests");
    l.evaluations = d("engine.evaluations");
    l.aliases = d("engine.dedup_aliases");
    l.lru_hits = d("engine.cache_hits") - l.aliases;
    l.failures = d("engine.failures");
    l.warm_leases = d("proto_pool.warm_leases");
    l.cold_builds = d("proto_pool.cold_builds");
    l.yield_chunks = d("yield.chunks");
    l.yield_refits = d("yield.refits");
    return l;
}

Ledger& Ledger::operator+=(const Ledger& o) {
    requests += o.requests;
    evaluations += o.evaluations;
    lru_hits += o.lru_hits;
    aliases += o.aliases;
    failures += o.failures;
    warm_leases += o.warm_leases;
    cold_builds += o.cold_builds;
    yield_chunks += o.yield_chunks;
    yield_refits += o.yield_refits;
    return *this;
}

void Digest::add(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double coefficient_of_variation(const std::vector<double>& v) {
    if (v.size() < 2) return 0.0;
    const double n = static_cast<double>(v.size());
    const double mean = std::accumulate(v.begin(), v.end(), 0.0) / n;
    if (mean == 0.0) return 0.0;
    double ss = 0.0;
    for (double x : v) ss += (x - mean) * (x - mean);
    return std::sqrt(ss / (n - 1.0)) / std::abs(mean);
}

} // namespace ypmbench
