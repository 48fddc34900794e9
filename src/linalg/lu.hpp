#pragma once
/// \file lu.hpp
/// \brief Partial-pivot LU factorisation and linear solves for the MNA
///        kernel (real for DC Newton iterations, complex for AC sweeps).

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace ypm::linalg {

/// LU factorisation with row partial pivoting: P*A = L*U.
/// Factor once, solve for many right-hand sides (the DC Newton loop
/// re-factors per iteration; the AC sweep factors once per operating point
/// and re-factors per frequency only on its dense guard fallback).
template <typename T>
class Lu {
public:
    /// Factor a square matrix. \throws ypm::NumericalError if singular to
    /// working precision.
    explicit Lu(Matrix<T> a);

    /// Solve A x = b.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

    /// Solve in place (b becomes x).
    void solve_in_place(std::vector<T>& b) const;

    /// Determinant (product of pivots with sign of permutation).
    [[nodiscard]] T determinant() const;

    /// Reciprocal of the pivot-growth conditioning heuristic:
    /// min |pivot| / max |pivot|. Near zero indicates ill-conditioning.
    [[nodiscard]] double pivot_ratio() const { return pivot_ratio_; }

    [[nodiscard]] std::size_t size() const { return lu_.rows(); }

private:
    Matrix<T> lu_;
    std::vector<std::size_t> perm_;
    int sign_ = 1;
    double pivot_ratio_ = 0.0;
};

/// One-shot convenience: solve A x = b.
/// \throws ypm::NumericalError if A is singular.
template <typename T>
[[nodiscard]] std::vector<T> solve(Matrix<T> a, std::vector<T> b) {
    const Lu<T> lu(std::move(a));
    lu.solve_in_place(b);
    return b;
}

/// Allocation-free factorisation workspace for repeated solves at a fixed
/// system size (the batch kernels factor thousands of same-shape MNA
/// matrices). factor() overwrites the caller's matrix with the packed LU -
/// no copy - and solve() reuses internal scratch, so the steady state
/// performs zero allocations per point.
///
/// Equivalence to Lu: the elimination arithmetic (division by the pivot,
/// the rank-1 update, the substitution sweeps) is operation-for-operation
/// identical, so for the same pivot sequence the results are bit-identical.
/// Pivot selection is also equivalent: real magnitudes compare with fabs
/// (exact, as in Lu); complex magnitudes compare *squared* (strictly
/// monotone in |.|, so the argmax matches Lu's std::abs comparisons unless
/// two magnitudes coincide below one ulp), falling back to std::abs for any
/// column whose squared maximum leaves the normal double range (underflow /
/// overflow / non-finite), which also reproduces Lu's singularity test.
template <typename T>
class InplaceLu {
public:
    /// Factor `a` in place (it becomes the packed LU).
    /// \throws ypm::NumericalError under exactly the condition, and with
    /// the same message, as Lu's constructor (singular / non-finite).
    void factor(Matrix<T>& a);

    /// Solve LU x = b with the matrix last passed to factor(). `b` is left
    /// untouched; the substitution runs directly in `x` (resized, reused).
    /// Identical arithmetic to Lu::solve_in_place, minus its copies.
    void solve(const Matrix<T>& lu, const std::vector<T>& b,
               std::vector<T>& x) const;

    /// Solve LU X = B in place for every column of the n x m matrix `b`
    /// (row-major, so each elimination step updates whole rows).
    void solve_columns(const Matrix<T>& lu, Matrix<T>& b);

private:
    std::vector<std::size_t> perm_;
    std::vector<T> rows_; ///< solve_columns' permutation scratch
};

extern template class Lu<double>;
extern template class Lu<std::complex<double>>;
extern template class InplaceLu<double>;
extern template class InplaceLu<std::complex<double>>;

} // namespace ypm::linalg
