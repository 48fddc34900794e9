#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace ypm::linalg {

template <typename T>
Lu<T>::Lu(Matrix<T> a) : lu_(std::move(a)) {
    if (!lu_.square()) throw NumericalError("Lu: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});

    double min_pivot = std::numeric_limits<double>::infinity();
    double max_pivot = 0.0;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        std::size_t piv = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double mag = std::abs(lu_(i, k));
            if (mag > best) {
                best = mag;
                piv = i;
            }
        }
        if (best == 0.0 || !std::isfinite(best))
            throw NumericalError("Lu: singular or non-finite matrix at column " +
                                 std::to_string(k));
        if (piv != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
            std::swap(perm_[k], perm_[piv]);
            sign_ = -sign_;
        }
        min_pivot = std::min(min_pivot, best);
        max_pivot = std::max(max_pivot, best);

        const T pivot = lu_(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const T factor = lu_(i, k) / pivot;
            lu_(i, k) = factor;
            if (factor == T{}) continue;
            for (std::size_t j = k + 1; j < n; ++j)
                lu_(i, j) -= factor * lu_(k, j);
        }
    }
    pivot_ratio_ = max_pivot > 0.0 ? min_pivot / max_pivot : 0.0;
}

template <typename T>
void Lu<T>::solve_in_place(std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) throw NumericalError("Lu::solve: rhs size mismatch");

    // Apply permutation: y = P b.
    std::vector<T> y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];

    // Forward substitution L z = y (unit diagonal).
    for (std::size_t i = 1; i < n; ++i) {
        T acc = y[i];
        for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
        y[i] = acc;
    }
    // Back substitution U x = z.
    for (std::size_t ii = n; ii-- > 0;) {
        T acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * y[j];
        y[ii] = acc / lu_(ii, ii);
    }
    b = std::move(y);
}

template <typename T>
std::vector<T> Lu<T>::solve(const std::vector<T>& b) const {
    std::vector<T> x = b;
    solve_in_place(x);
    return x;
}

template <typename T>
T Lu<T>::determinant() const {
    T det = static_cast<T>(sign_);
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
}

template class Lu<double>;
template class Lu<std::complex<double>>;

namespace {

/// Cheap pivot weight: strictly monotone in |v| within normal double range.
inline double pivot_weight(double v) { return std::fabs(v); }
inline double pivot_weight(const std::complex<double>& v) {
    return v.real() * v.real() + v.imag() * v.imag();
}

/// Is a squared-magnitude column maximum trustworthy as an ordering? Only
/// while it stays a normal double (no underflow, overflow or NaN).
inline bool weight_reliable(double best) {
    return std::isfinite(best) && best >= std::numeric_limits<double>::min();
}

} // namespace

template <typename T>
void InplaceLu<T>::factor(Matrix<T>& a) {
    const std::size_t n = a.rows();
    if (!a.square()) throw NumericalError("Lu: matrix must be square");
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    T* data = a.data().data();

    for (std::size_t k = 0; k < n; ++k) {
        // Fast pivot search on the cheap weight.
        std::size_t piv = k;
        double best = pivot_weight(data[k * n + k]);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double mag = pivot_weight(data[i * n + k]);
            if (mag > best) {
                best = mag;
                piv = i;
            }
        }
        if constexpr (!std::is_same_v<T, double>) {
            if (!weight_reliable(best)) {
                // Degenerate weights (underflow, overflow, NaN): redo the
                // column with Lu's exact std::abs comparisons so selection
                // and the singularity test match Lu bit-for-bit.
                piv = k;
                double best_abs = std::abs(data[k * n + k]);
                for (std::size_t i = k + 1; i < n; ++i) {
                    const double mag = std::abs(data[i * n + k]);
                    if (mag > best_abs) {
                        best_abs = mag;
                        piv = i;
                    }
                }
                if (best_abs == 0.0 || !std::isfinite(best_abs))
                    throw NumericalError(
                        "Lu: singular or non-finite matrix at column " +
                        std::to_string(k));
            }
        } else {
            if (best == 0.0 || !std::isfinite(best))
                throw NumericalError(
                    "Lu: singular or non-finite matrix at column " +
                    std::to_string(k));
        }
        if (piv != k) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(data[k * n + j], data[piv * n + j]);
            std::swap(perm_[k], perm_[piv]);
        }

        const T pivot = data[k * n + k];
        const T* row_k = data + k * n;
        for (std::size_t i = k + 1; i < n; ++i) {
            T* row_i = data + i * n;
            const T factor = row_i[k] / pivot;
            row_i[k] = factor;
            if (factor == T{}) continue;
            for (std::size_t j = k + 1; j < n; ++j) row_i[j] -= factor * row_k[j];
        }
    }
}

template <typename T>
void InplaceLu<T>::solve(const Matrix<T>& lu, const std::vector<T>& b,
                         std::vector<T>& x) const {
    const std::size_t n = lu.rows();
    if (b.size() != n || perm_.size() != n)
        throw NumericalError("InplaceLu::solve: size mismatch");
    const T* data = lu.data().data();

    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 1; i < n; ++i) {
        T acc = x[i];
        const T* row = data + i * n;
        for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
        x[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
        T acc = x[ii];
        const T* row = data + ii * n;
        for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
        x[ii] = acc / row[ii];
    }
}

template <typename T>
void InplaceLu<T>::solve_columns(const Matrix<T>& lu, Matrix<T>& b) {
    const std::size_t n = lu.rows();
    const std::size_t m = b.cols();
    if (b.rows() != n || perm_.size() != n)
        throw NumericalError("InplaceLu::solve_columns: size mismatch");
    const T* data = lu.data().data();
    T* x = b.data().data();

    rows_.assign(b.data().begin(), b.data().end());
    for (std::size_t i = 0; i < n; ++i)
        std::copy_n(rows_.data() + perm_[i] * m, m, x + i * m);
    for (std::size_t i = 1; i < n; ++i) {
        T* xi = x + i * m;
        for (std::size_t j = 0; j < i; ++j) {
            const T l = data[i * n + j];
            if (l == T{}) continue;
            const T* xj = x + j * m;
            for (std::size_t c = 0; c < m; ++c) xi[c] -= l * xj[c];
        }
    }
    for (std::size_t ii = n; ii-- > 0;) {
        T* xi = x + ii * m;
        for (std::size_t j = ii + 1; j < n; ++j) {
            const T u = data[ii * n + j];
            if (u == T{}) continue;
            const T* xj = x + j * m;
            for (std::size_t c = 0; c < m; ++c) xi[c] -= u * xj[c];
        }
        const T pivot = data[ii * n + ii];
        for (std::size_t c = 0; c < m; ++c) xi[c] /= pivot;
    }
}

template class InplaceLu<double>;
template class InplaceLu<std::complex<double>>;

} // namespace ypm::linalg
