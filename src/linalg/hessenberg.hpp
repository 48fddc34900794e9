#pragma once
/// \file hessenberg.hpp
/// \brief Frequency response of a real pencil through one Hessenberg
///        reduction (Laub, "Efficient multivariable frequency response
///        computations", IEEE TAC 1981).
///
/// An AC sweep solves (K + sC) x = b at many s = j*omega with K and C real
/// and fixed by the operating point. A dense complex LU per frequency costs
/// O(n^3) each. With a real shift s0,
///
///     K + sC = A0 (I + (s - s0) M),   A0 = K + s0*C,   M = A0^-1 C,
///
/// and a Householder reduction M = Q H Q^T (H upper Hessenberg, Q
/// orthogonal) turns every frequency into one Hessenberg solve:
///
///     x(s) = Q w,   (I + (s - s0) H) w = z,   z = Q^T A0^-1 b.
///
/// The reduction is O(n^3) once, in real arithmetic; each frequency is
/// O(n^2) complex. Only the rows of Q for two probed unknowns are kept, so
/// a frequency returns those two unknowns, not the whole solution.
///
/// The rhs may be affine in s, b(s) = b0 + s*b1: eliminating an unknown
/// that a source pins moves its K + sC column onto the rhs. Then
///
///     A0^-1 b(s) = y0 + (s - s0) y1,  y0 = A0^-1 (b0 + s0*b1),  y1 = A0^-1 b1,
///
/// both reduce through the same reflectors, and a frequency solves
/// (I + (s - s0) H) w = z0 + (s - s0) z1 at O(n) extra cost.
///
/// Before the Householder step M is balanced by an exact power-of-two
/// diagonal similarity D^-1 M D (Parlett & Reinsch, "Balancing a matrix for
/// calculation of eigenvalues and eigenvectors", Numer. Math. 13, 1969;
/// LAPACK dgebal without permutations), and Q H Q^T reduces that instead:
///
///     x(s) = D Q w,   (I + (s - s0) H) w = Q^T D^-1 y.
///
/// MNA pencils mix element values many decades apart (a 1e6 H bias
/// inductor and a 1 F AC ground beside fF device capacitances); unbalanced,
/// M's row and column norms spread as widely and the reduction loses
/// digits at the sweep's ends. Balancing changes no eigenvalue and, being
/// exact in binary, adds no rounding of its own.

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace ypm::linalg {

/// Reusable reduction workspace; one per thread. The steady state
/// allocates nothing once a system size has been seen.
class HessenbergPencil {
public:
    /// Reduce K + sC about the real shift `s0` for the complex rhs
    /// b0 + s*b1, keeping the unknowns `probe_a` and `probe_b`. An empty
    /// `b1` means b1 = 0, the constant rhs b0. Returns
    /// false when A0 is singular or any reduced quantity is non-finite;
    /// solve() then fails until the next successful reduce().
    /// \throws ypm::NumericalError on mismatched shapes or probe indices.
    [[nodiscard]] bool reduce(const MatrixD& k, const MatrixD& c, double s0,
                              const std::vector<std::complex<double>>& b0,
                              const std::vector<std::complex<double>>& b1,
                              std::size_t probe_a, std::size_t probe_b);

    /// x[probe_a] and x[probe_b] at s = j*omega. Returns false on a zero
    /// pivot or a non-finite result.
    [[nodiscard]] bool solve(double omega, std::complex<double>& x_a,
                             std::complex<double>& x_b);

    /// The reduced H of the balanced D^-1 M D = Q H Q^T (n x n, exact
    /// zeros below the subdiagonal). A copy, for inspection.
    [[nodiscard]] MatrixD hessenberg() const;

private:
    /// Balance the M block of work_ in place; d_ receives D's diagonal.
    void balance();

    std::size_t n_ = 0;
    double s0_ = 0.0;
    bool ready_ = false;
    MatrixD a0_;
    /// [H | Re z0 | Im z0 | q_a | q_b | Re z1 | Im z1]: n x (n + 6). The
    /// reduction runs on [D^-1 M D | D^-1 y0 | d_a e_a | d_b e_b | D^-1 y1],
    /// so the left reflectors carry y0, y1 and the scaled probe vectors
    /// along for free.
    MatrixD work_;
    std::vector<double> d_; ///< balancing diagonal D (powers of two)
    InplaceLu<double> lu_;
    std::vector<double> v_;
    std::vector<double> dots_;
    std::vector<std::complex<double>> t_;
    std::vector<std::complex<double>> w_;
    std::vector<std::complex<double>> inv_pivot_;
};

} // namespace ypm::linalg
