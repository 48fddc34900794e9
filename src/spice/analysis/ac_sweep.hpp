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
/// The registry counters spice.ac.reduced_sweeps and spice.ac.dense_sweeps
/// count sweeps by the path that answered them; spice.ac.guard_fallbacks
/// counts the dense sweeps a guard forced, which is every dense sweep.

#include <complex>
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
