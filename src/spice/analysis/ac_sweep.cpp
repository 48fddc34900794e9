#include "spice/analysis/ac_sweep.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::spice {

namespace {

/// Sweep-path instruments, resolved once; always-on (one relaxed atomic
/// bump per sweep).
struct AcSweepMetrics {
    obs::Counter& reduced;
    obs::Counter& fallbacks;
    obs::Counter& pinned;

    static AcSweepMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static AcSweepMetrics metrics{registry.counter("spice.ac.reduced_sweeps"),
                                      registry.counter("spice.ac.guard_fallbacks"),
                                      registry.counter("spice.ac.pinned_unknowns")};
        return metrics;
    }
};

/// Largest |reduced - dense| the endpoint guard accepts, relative to the
/// dense value (absolute below |h| = 1e-3).
constexpr double kGuardRelTol = 1e-6;
constexpr double kGuardFloor = 1e-3;

double omega_of(double f) { return 2.0 * mathx::pi * f; }

} // namespace

std::vector<std::complex<double>>
ac_sweep_transfer(Circuit& circuit, const Solution& op,
                  const std::vector<double>& freqs, NodeId out, NodeId in,
                  AcSweepWorkspace& ws) {
    using C = std::complex<double>;
    circuit.finalize();
    if (op.size() != circuit.unknowns())
        throw InvalidInputError(
            "ac_sweep_transfer: operating point does not match circuit");
    if (out == ground || in == ground)
        throw InvalidInputError("ac_sweep_transfer: probe nodes must not be ground");
    for (double f : freqs)
        if (!(f > 0.0))
            throw InvalidInputError("ac_sweep_transfer: frequencies must be > 0");

    const std::size_t n_nodes = circuit.node_count();
    const std::size_t n = circuit.unknowns();

    if (ws.a_.rows() != n) ws.a_ = linalg::MatrixC(n);
    ws.b_.resize(n);

    // Record the frequency-affine stamp plan at this operating point. The
    // recorded rhs terms are frequency-constant, so the excitation vector
    // builds once per sweep.
    ws.recorder_.reset(n_nodes, n);
    for (const auto& dev : circuit.devices())
        dev->stamp_ac_affine(ws.recorder_, op);
    std::fill(ws.b_.begin(), ws.b_.end(), C{});
    ws.recorder_.replay_rhs(ws.b_.data());

    const std::size_t out_idx = static_cast<std::size_t>(out) - 1;
    const std::size_t in_idx = static_cast<std::size_t>(in) - 1;

    // One frequency by stamp replay + dense LU: bit-identical to run_ac.
    const auto dense_point = [&](double omega) -> C {
        ws.a_.set_zero();
        ws.recorder_.replay_matrix(omega, ws.a_.data().data());
        // Same conductance floor as run_ac.
        for (std::size_t i = 0; i < n_nodes; ++i) ws.a_(i, i) += 1e-15;

        ws.lu_.factor(ws.a_);
        ws.lu_.solve(ws.a_, ws.b_, ws.x_);

        const C vin = ws.x_[in_idx];
        if (std::abs(vin) == 0.0)
            throw NumericalError("AcResult::transfer: zero input response");
        return ws.x_[out_idx] / vin;
    };

    // The whole sweep through one Hessenberg reduction of the real pencil
    // K + sC; false when a guard fires and the dense loop must answer.
    AcSweepMetrics& metrics = AcSweepMetrics::get();
    const auto reduced_sweep = [&](std::vector<C>& h) -> bool {
        if (ws.k_.rows() != n) {
            ws.k_ = linalg::MatrixD(n);
            ws.c_ = linalg::MatrixD(n);
        }
        ws.k_.set_zero();
        ws.c_.set_zero();
        ws.recorder_.sum_pencil(ws.k_.data().data(), ws.c_.data().data());
        for (std::size_t i = 0; i < n_nodes; ++i) ws.k_(i, i) += 1e-15;
        const linalg::MatrixD& k = ws.k_;
        const linalg::MatrixD& c = ws.c_;

        // Pinned unknowns: branch r of a grounded ideal voltage source has
        // one K entry in its row, at its node i, is met in K's column r only
        // by row i's KCL, and has no C entry in row or column r. Row r then
        // fixes V(i) = b[r] / K(r, i) at every frequency, and row i only
        // yields the source current nobody reads, so node i and branch r
        // leave the pencil. The output node is never eliminated.
        ws.pinned_.assign(n, 0);
        ws.pins_.clear();
        for (std::size_t r = n_nodes; r < n; ++r) {
            std::size_t node = n;
            bool pins = true;
            for (std::size_t j = 0; j < n && pins; ++j) {
                if (c(r, j) != 0.0 || c(j, r) != 0.0)
                    pins = false;
                else if (k(r, j) != 0.0) {
                    pins = node == n;
                    node = j;
                }
            }
            if (!pins || node >= n_nodes || node == out_idx || ws.pinned_[node] != 0 ||
                k(node, r) == 0.0)
                continue;
            for (std::size_t j = 0; j < n && pins; ++j)
                pins = j == node || k(j, r) == 0.0;
            if (!pins) continue;
            ws.pinned_[node] = 1;
            ws.pinned_[r] = 1;
            ws.pins_.emplace_back(node, ws.b_[r] / k(r, node));
        }

        // The kept unknowns' pencil; each pinned V(i) moves its column
        // V(i)*(K[:, i] + s*C[:, i]) to the rhs, which becomes b0 + s*b1.
        ws.keep_.clear();
        for (std::size_t i = 0; i < n; ++i)
            if (ws.pinned_[i] == 0) ws.keep_.push_back(i);
        const std::size_t nr = ws.keep_.size();
        metrics.pinned.add(n - nr);
        if (ws.kr_.rows() != nr) {
            ws.kr_ = linalg::MatrixD(nr);
            ws.cr_ = linalg::MatrixD(nr);
        }
        ws.b0_.resize(nr);
        ws.b1_.resize(nr);
        std::size_t out_r = 0;
        std::size_t in_r = nr;
        for (std::size_t a = 0; a < nr; ++a) {
            const std::size_t row = ws.keep_[a];
            if (row == out_idx) out_r = a;
            if (row == in_idx) in_r = a;
            for (std::size_t col = 0; col < nr; ++col) {
                ws.kr_(a, col) = k(row, ws.keep_[col]);
                ws.cr_(a, col) = c(row, ws.keep_[col]);
            }
            C b0 = ws.b_[row];
            C b1{};
            for (const auto& [node, v] : ws.pins_) {
                b0 -= v * k(row, node);
                b1 -= v * c(row, node);
            }
            ws.b0_[a] = b0;
            ws.b1_[a] = b1;
        }

        // h = x_out / x_in, or x_out / V(in) when a source pins `in`.
        C inv_vin{};
        if (in_r == nr) {
            const auto pin = std::find_if(ws.pins_.begin(), ws.pins_.end(),
                                          [&](const auto& p) { return p.first == in_idx; });
            if (pin->second == C{}) return false;
            inv_vin = C{1.0} / pin->second;
        }

        // Real shift at the sweep's geometric centre.
        const double s0 = omega_of(std::sqrt(freqs.front() * freqs.back()));
        if (!ws.pencil_.reduce(ws.kr_, ws.cr_, s0, ws.b0_, ws.b1_, out_r,
                               in_r == nr ? out_r : in_r))
            return false;
        h.resize(freqs.size());
        for (std::size_t i = 0; i < freqs.size(); ++i) {
            C v_out, v_in;
            if (!ws.pencil_.solve(omega_of(freqs[i]), v_out, v_in)) return false;
            h[i] = in_r == nr ? v_out * inv_vin : v_out / v_in;
            if (!std::isfinite(h[i].real()) || !std::isfinite(h[i].imag()))
                return false;
        }
        // Endpoint check against the dense solve: catches a shift that
        // conditions the reduction badly for this pencil.
        for (std::size_t i : {std::size_t{0}, freqs.size() - 1}) {
            C ref;
            try {
                ref = dense_point(omega_of(freqs[i]));
            } catch (const NumericalError&) {
                return false;
            }
            if (!(std::abs(h[i] - ref) <=
                  kGuardRelTol * std::max(std::abs(ref), kGuardFloor)))
                return false;
        }
        return true;
    };

    std::vector<C> h;
    if (freqs.empty()) return h;
    if (reduced_sweep(h)) {
        metrics.reduced.add();
        return h;
    }
    metrics.fallbacks.add();
    h.clear();
    for (double f : freqs) h.push_back(dense_point(omega_of(f)));
    return h;
}

} // namespace ypm::spice
