#include "spice/prototype.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::spice {

namespace {

/// Warm-start instruments, resolved once; always-on (one relaxed atomic
/// bump per solve).
struct WarmDcMetrics {
    obs::Counter& starts;
    obs::Counter& fallbacks;

    static WarmDcMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static WarmDcMetrics metrics{registry.counter("spice.dc.warm_starts"),
                                     registry.counter("spice.dc.warm_fallbacks")};
        return metrics;
    }
};

} // namespace

CircuitPrototype::CircuitPrototype(Circuit circuit)
    : circuit_(std::move(circuit)) {
    circuit_.finalize();
    // The device list is fixed for the prototype's lifetime, so the typed
    // slots stay valid.
    for (const auto& dev : circuit_.devices())
        if (auto* mos = dynamic_cast<Mosfet*>(dev.get())) mosfets_.push_back(mos);
}

NodeId CircuitPrototype::node(const std::string& name) const {
    const auto id = circuit_.find_node(name);
    if (!id)
        throw InvalidInputError("CircuitPrototype: no node '" + name + "'");
    return *id;
}

void CircuitPrototype::bind_process(const process::Realization* realization) {
    if (realization == nullptr) {
        for (Mosfet* mos : mosfets_) mos->apply_delta(process::MosDelta{});
        return;
    }
    // Same per-device lookups as Circuit::apply_process, minus the
    // dynamic_cast scan.
    for (Mosfet* mos : mosfets_)
        mos->apply_delta(
            realization->delta_for(str::to_lower(mos->name()), mos->is_pmos()));
}

DcResult CircuitPrototype::Instance::solve_op(const Solution& initial,
                                              const DcOptions& options) {
    WarmDcMetrics& metrics = WarmDcMetrics::get();
    metrics.starts.add();
    DcResult result = DcSolver(options).solve(proto_->circuit(), initial, dc_ws_);
    if (result.method != "newton") metrics.fallbacks.add();
    return result;
}

} // namespace ypm::spice
