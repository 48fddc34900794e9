#pragma once
/// \file ac_sweep.hpp
/// \brief Batch AC sweep: the prototype-reuse counterpart of run_ac.
///
/// run_ac (ac.hpp) is the reference implementation: per frequency it
/// re-runs every device's stamp_ac - which for a MOSFET re-evaluates the
/// whole EKV model - and pays a fresh factorisation allocation. This
/// module is the fast path used by the chunk kernels. Every device records
/// its stamp once per operating point as frequency-affine terms
/// (ac_terms.hpp; no non-affine device remains - the behavioural OTA writes
/// its pole in row form), and the transfer function is extracted
/// point-by-point instead of materialising an AcResult.
///
/// The terms are summed into the real pencil K + sC, reduced once about the
/// real shift s0 = 2*pi*sqrt(f_first*f_last) to Hessenberg form
/// (linalg/hessenberg.hpp, balanced first), and each frequency costs one
/// O(n^2) Hessenberg solve instead of an O(n^3) complex LU. Results agree
/// with run_ac to rounding, not bit for bit.
///
/// Before the reduction the sweep drops the unknowns that grounded ideal
/// voltage sources pin. A branch r qualifies when its K row holds exactly
/// one nonzero, at a node i, its K column is nonzero only in row i, and its
/// C row and column are zero: then V(i) = b[r] / K(r, i) at every
/// frequency, and row i only determines the source current. Node i and
/// branch r leave the pencil, and V(i)*(K[:, i] + s*C[:, i]) moves to the
/// rhs, which becomes affine in s (b0 + s*b1; a capacitance at the pinned
/// node makes b1 nonzero). When the input node is pinned, h = x_out / V(in).
/// The output node is never eliminated. On the OTA testbench the supply and
/// input sources take n from 13 to 9.
///
/// The dense path is only the guard's fallback. The guard answers the whole
/// sweep densely when A0 = K + s0*C is singular or non-finite, a reduced
/// pivot is zero, a result is non-finite, or h at the first or last
/// frequency differs from a dense solve there by more than
/// 1e-6*max(|h_dense|, 1e-3). Dense means per frequency the terms are
/// replayed and factored in place in a caller-held workspace
/// (linalg::InplaceLu), so the steady state allocates nothing. Its results
/// are bit-identical to run_ac followed by AcResult::transfer: the replay
/// reproduces stamp_ac's additions value-for-value in the same order, and
/// InplaceLu matches Lu's pivoting and elimination arithmetic (see the class
/// notes for the one sub-ulp caveat on complex pivot ties).
///
/// The guard and the dense path work on the full system, never on the
/// eliminated one.
///
/// The registry counter spice.ac.reduced_sweeps counts the sweeps the
/// reduced path answered and spice.ac.guard_fallbacks the sweeps a guard
/// handed to the dense path; their sum is every sweep.
/// spice.ac.pinned_unknowns sums the unknowns eliminated over all reduced
/// attempts (4 per OTA sweep).

#include <complex>
#include <utility>
#include <vector>

#include "linalg/hessenberg.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "spice/ac_terms.hpp"
#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

/// Reusable storage for ac_sweep_transfer: MNA matrix, rhs, solution,
/// factorisation scratch and the recorded stamp plan. One workspace per
/// thread; reuse it across points of a chunk.
class AcSweepWorkspace {
public:
    friend std::vector<std::complex<double>>
    ac_sweep_transfer(Circuit&, const Solution&, const std::vector<double>&,
                      NodeId, NodeId, AcSweepWorkspace&);

private:
    linalg::MatrixC a_;
    std::vector<std::complex<double>> b_;
    std::vector<std::complex<double>> x_;
    linalg::InplaceLu<std::complex<double>> lu_;
    AcTermRecorder recorder_{0, 0};
    linalg::MatrixD k_;
    linalg::MatrixD c_;
    std::vector<char> pinned_;                            ///< per unknown
    std::vector<std::pair<std::size_t, std::complex<double>>> pins_; ///< node, V
    std::vector<std::size_t> keep_; ///< reduced index -> full index
    linalg::MatrixD kr_;
    linalg::MatrixD cr_;
    std::vector<std::complex<double>> b0_;
    std::vector<std::complex<double>> b1_;
    linalg::HessenbergPencil pencil_;
};

/// Sweep the circuit over `freqs` about the operating point `op` and return
/// h[i] = V(out)/V(in) at freqs[i], reusing `ws`. Equal to
/// run_ac(circuit, op, freqs).transfer(out, in) to rounding on the reduced
/// path and bit for bit on the dense fallback (see the file notes).
/// \throws ypm::InvalidInputError on a frequency <= 0;
/// ypm::NumericalError on a singular frequency point or a zero input
/// response (as the reference path does).
[[nodiscard]] std::vector<std::complex<double>>
ac_sweep_transfer(Circuit& circuit, const Solution& op,
                  const std::vector<double>& freqs, NodeId out, NodeId in,
                  AcSweepWorkspace& ws);

} // namespace ypm::spice
