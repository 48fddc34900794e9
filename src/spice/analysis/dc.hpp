#pragma once
/// \file dc.hpp
/// \brief DC operating-point solver: damped Newton-Raphson with gmin
///        stepping and source stepping fallbacks.
///
/// Robustness matters more than raw speed here: the WBGA evaluates 10,000
/// sizings (paper Table 5) and every one must either converge or fail
/// loudly so the optimiser can penalise it.
///
/// Monte Carlo samples are where speed counts: a process sample sits close
/// to its sizing's nominal operating point, so Newton started there (the
/// warm-start overloads below) needs about a third of a cold start's
/// iterations. CircuitPrototype::Instance::solve_op(initial) runs it
/// through solve(circuit, initial, ws): when the warm Newton fails, gmin
/// and source stepping take over from zero as in a cold solve.

#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

/// Reusable DC solve storage: the MNA matrix, rhs and factorisation scratch
/// survive across Newton iterations and across points of a batch, so the
/// steady state allocates nothing per solve. Results are bit-identical to
/// the workspace-free overloads (which route through a local workspace).
struct DcWorkspace {
    linalg::MatrixD a;
    std::vector<double> b;
    std::vector<double> x_new;
    linalg::InplaceLu<double> lu;
};

struct DcOptions {
    std::size_t max_iterations = 150; ///< per Newton attempt
    double vtol = 1e-6;               ///< absolute node-voltage tolerance (V)
    double reltol = 1e-6;             ///< relative tolerance
    double max_step = 0.6;            ///< Newton damping: max |dV| per iter (V)
    double gmin = 1e-12;              ///< node-to-ground conductance floor
    bool gmin_stepping = true;        ///< homotopy 1: relax gmin 1e-3 -> gmin
    bool source_stepping = true;      ///< homotopy 2: ramp sources 0 -> 1
};

struct DcResult {
    bool converged = false;
    Solution solution;
    std::size_t iterations = 0; ///< total Newton iterations spent
    std::string method;         ///< "newton", "gmin-stepping", "source-stepping"
};

class DcSolver {
public:
    explicit DcSolver(DcOptions options = {});

    /// Solve from a cold start (all unknowns zero).
    [[nodiscard]] DcResult solve(Circuit& circuit) const;

    /// Solve from a warm start (e.g. the nominal OP during Monte Carlo).
    [[nodiscard]] DcResult solve(Circuit& circuit, const Solution& initial) const;

    /// Cold-start solve reusing a caller-held workspace (batch kernels call
    /// this once per point of a chunk). Bit-identical to solve(circuit).
    [[nodiscard]] DcResult solve(Circuit& circuit, DcWorkspace& ws) const;

    /// Warm-start solve reusing a caller-held workspace.
    [[nodiscard]] DcResult solve(Circuit& circuit, const Solution& initial,
                                 DcWorkspace& ws) const;

    [[nodiscard]] const DcOptions& options() const { return options_; }

private:
    /// One Newton attempt; returns true on convergence, updating x.
    [[nodiscard]] bool newton(Circuit& circuit, Solution& x, double gmin,
                              double source_scale, std::size_t& iterations,
                              DcWorkspace& ws) const;

    DcOptions options_;
};

/// Convenience: solve and throw ypm::NumericalError on failure.
[[nodiscard]] Solution solve_op(Circuit& circuit, const DcOptions& options = {});

} // namespace ypm::spice
