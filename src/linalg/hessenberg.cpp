#include "linalg/hessenberg.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ypm::linalg {

namespace {

using C = std::complex<double>;

// Inline complex kernels: std::complex's operator/ (and operator* on a NaN
// product) call out to libgcc's __divdc3 / __muldc3, which dominate an
// O(n^2) solve at MNA sizes.
inline C mul(C a, C b) {
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/// 1/p by Smith's method (no overflow of |p|^2); p != 0.
inline C recip(C p) {
    const double a = p.real();
    const double b = p.imag();
    if (std::fabs(a) >= std::fabs(b)) {
        const double r = b / a;
        const double d = a + b * r;
        return {1.0 / d, -r / d};
    }
    const double r = a / b;
    const double d = a * r + b;
    return {r / d, -1.0 / d};
}

inline double weight(C v) { return v.real() * v.real() + v.imag() * v.imag(); }

inline bool finite(C v) { return std::isfinite(v.real()) && std::isfinite(v.imag()); }

} // namespace

bool HessenbergPencil::reduce(const MatrixD& k, const MatrixD& c, double s0,
                              const std::vector<C>& b0, const std::vector<C>& b1,
                              std::size_t probe_a, std::size_t probe_b) {
    const std::size_t n = k.rows();
    if (!k.square() || c.rows() != n || c.cols() != n || b0.size() != n ||
        (!b1.empty() && b1.size() != n))
        throw NumericalError("HessenbergPencil: shape mismatch");
    if (probe_a >= n || probe_b >= n)
        throw NumericalError("HessenbergPencil: probe index out of range");
    ready_ = false;
    n_ = n;
    s0_ = s0;
    const std::size_t m = n + 6;
    if (a0_.rows() != n) a0_ = MatrixD(n);
    if (work_.rows() != n) work_ = MatrixD(n, m);
    v_.resize(n);
    dots_.resize(m);
    t_.resize(n * n);
    w_.resize(n);
    inv_pivot_.resize(n);

    // A0 = K + s0*C; W = [C | b0 + s0*b1 | 0 | 0 | b1], complex columns
    // split into real and imaginary parts (b1 = 0 when empty).
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a0_(i, j) = k(i, j) + s0 * c(i, j);
            work_(i, j) = c(i, j);
        }
        const C slope = b1.empty() ? C{} : b1[i];
        const C y0 = b0[i] + s0 * slope;
        work_(i, n) = y0.real();
        work_(i, n + 1) = y0.imag();
        work_(i, n + 2) = 0.0;
        work_(i, n + 3) = 0.0;
        work_(i, n + 4) = slope.real();
        work_(i, n + 5) = slope.imag();
    }
    try {
        lu_.factor(a0_);
    } catch (const NumericalError&) {
        return false;
    }
    // W = [M | y0 | 0 | 0 | y1].
    lu_.solve_columns(a0_, work_);
    for (const double v : work_.data())
        if (!std::isfinite(v)) return false;

    // M -> D^-1 M D; then (I + sigma M) x = y becomes
    // (I + sigma D^-1 M D) x' = D^-1 y with x = D x', so y0 and y1 are
    // scaled by D^-1 and the probes read d_a x'_a, d_b x'_b. D is a power
    // of two, so every scaling is exact.
    balance();
    for (std::size_t i = 0; i < n; ++i) {
        work_(i, n) /= d_[i];
        work_(i, n + 1) /= d_[i];
        work_(i, n + 4) /= d_[i];
        work_(i, n + 5) /= d_[i];
    }
    work_(probe_a, n + 2) = d_[probe_a];
    work_(probe_b, n + 3) = d_[probe_b];

    // Householder reduction of M to upper Hessenberg form (Golub & Van
    // Loan, Alg. 7.4.2). Step k zeroes column k below the subdiagonal with
    // P = I - beta v v^T on rows/columns k+1..n-1, applied from the left to
    // every column of W (so y0, y1 and e_a, e_b become Q^T y0, Q^T y1,
    // Q^T e_a, Q^T e_b)
    // and from the right to the M block only.
    double* wk = work_.data().data();
    for (std::size_t col = 0; col + 2 < n; ++col) {
        double scale = 0.0;
        for (std::size_t i = col + 1; i < n; ++i)
            scale = std::max(scale, std::fabs(wk[i * m + col]));
        if (scale == 0.0) continue; // already reduced
        double norm2 = 0.0;
        for (std::size_t i = col + 1; i < n; ++i) {
            v_[i] = wk[i * m + col] / scale;
            norm2 += v_[i] * v_[i];
        }
        const double alpha = std::copysign(std::sqrt(norm2), v_[col + 1]);
        v_[col + 1] += alpha;
        const double beta = 1.0 / (alpha * v_[col + 1]); // 2 / (v^T v)

        // Left: W(col+1:n, col+1:m) -= beta v (v^T W). Column `col` itself
        // becomes (-alpha*scale, 0, ..., 0) exactly.
        std::fill(dots_.begin() + static_cast<std::ptrdiff_t>(col + 1),
                  dots_.end(), 0.0);
        for (std::size_t i = col + 1; i < n; ++i) {
            const double vi = v_[i];
            const double* row = wk + i * m;
            for (std::size_t j = col + 1; j < m; ++j) dots_[j] += vi * row[j];
        }
        for (std::size_t i = col + 1; i < n; ++i) {
            const double f = beta * v_[i];
            double* row = wk + i * m;
            for (std::size_t j = col + 1; j < m; ++j) row[j] -= f * dots_[j];
            row[col] = 0.0;
        }
        wk[(col + 1) * m + col] = -alpha * scale;

        // Right: W(0:n, col+1:n) -= beta (W v) v^T.
        for (std::size_t i = 0; i < n; ++i) {
            double* row = wk + i * m;
            double dot = 0.0;
            for (std::size_t j = col + 1; j < n; ++j) dot += row[j] * v_[j];
            const double f = beta * dot;
            for (std::size_t j = col + 1; j < n; ++j) row[j] -= f * v_[j];
        }
    }
    ready_ = true;
    return true;
}

void HessenbergPencil::balance() {
    // Parlett & Reinsch (1969) / EISPACK balanc without the permutation
    // step: scale row i by 1/f and column i by f, f a power of two, while
    // that cuts the off-diagonal 1-norms c + r of row and column i by at
    // least 5 %. A row or column with no off-diagonal mass stays unscaled,
    // and so does one whose norms leave [2^-500, 2^500], which keeps f,
    // every scaled entry and both power-of-two searches finite.
    constexpr double kRadix = 2.0;
    constexpr double kRadix2 = kRadix * kRadix;
    constexpr int kMaxSweeps = 64;
    const std::size_t n = n_;
    const std::size_t m = n + 6;
    double* wk = work_.data().data();
    d_.assign(n, 1.0);
    bool done = false;
    for (int sweep = 0; !done && sweep < kMaxSweeps; ++sweep) {
        done = true;
        for (std::size_t i = 0; i < n; ++i) {
            double c = 0.0;
            double r = 0.0;
            for (std::size_t j = 0; j < i; ++j) {
                c += std::fabs(wk[j * m + i]);
                r += std::fabs(wk[i * m + j]);
            }
            for (std::size_t j = i + 1; j < n; ++j) {
                c += std::fabs(wk[j * m + i]);
                r += std::fabs(wk[i * m + j]);
            }
            if (!(c > 0x1p-500 && r > 0x1p-500 && c + r < 0x1p500)) continue;
            const double sum = c + r;
            double f = 1.0;
            double g = r / kRadix;
            while (c < g) {
                f *= kRadix;
                c *= kRadix2;
            }
            g = r * kRadix;
            while (c >= g) {
                f /= kRadix;
                c /= kRadix2;
            }
            if ((c + r) / f >= 0.95 * sum) continue;
            done = false;
            d_[i] *= f;
            const double inv_f = 1.0 / f; // exact: f is a power of two
            for (std::size_t j = 0; j < n; ++j) {
                wk[i * m + j] *= inv_f;
                wk[j * m + i] *= f;
            }
        }
    }
}

bool HessenbergPencil::solve(double omega, C& x_a, C& x_b) {
    if (!ready_) return false;
    const std::size_t n = n_;
    const std::size_t m = n + 6;
    const double* wk = work_.data().data();
    C* t = t_.data();
    const C sigma{-s0_, omega};

    // T = I + sigma*H with sigma = j*omega - s0; rhs z0 + sigma*z1.
    for (std::size_t i = 0; i < n; ++i) {
        const double* h = wk + i * m;
        C* row = t + i * n;
        for (std::size_t j = i == 0 ? 0 : i - 1; j < n; ++j)
            row[j] = {-s0_ * h[j], omega * h[j]};
        row[i] += 1.0;
        w_[i] = C{h[n], h[n + 1]} + mul(sigma, {h[n + 4], h[n + 5]});
    }

    // Gaussian elimination of the single subdiagonal, pivoting between
    // adjacent rows.
    for (std::size_t k = 0; k + 1 < n; ++k) {
        C* rk = t + k * n;
        C* rn = t + (k + 1) * n;
        if (weight(rn[k]) > weight(rk[k])) {
            std::swap_ranges(rk + k, rk + n, rn + k);
            std::swap(w_[k], w_[k + 1]);
        }
        if (rk[k] == C{}) return false;
        inv_pivot_[k] = recip(rk[k]);
        const C l = mul(rn[k], inv_pivot_[k]);
        for (std::size_t j = k + 1; j < n; ++j) rn[j] -= mul(l, rk[j]);
        w_[k + 1] -= mul(l, w_[k]);
    }
    const C last = t[(n - 1) * n + (n - 1)];
    if (last == C{}) return false;
    inv_pivot_[n - 1] = recip(last);

    // Back substitution, then project onto the two kept rows of Q.
    C xa{};
    C xb{};
    for (std::size_t ii = n; ii-- > 0;) {
        const C* row = t + ii * n;
        C acc = w_[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= mul(row[j], w_[j]);
        w_[ii] = mul(acc, inv_pivot_[ii]);
        xa += wk[ii * m + n + 2] * w_[ii];
        xb += wk[ii * m + n + 3] * w_[ii];
    }
    x_a = xa;
    x_b = xb;
    return finite(xa) && finite(xb);
}

MatrixD HessenbergPencil::hessenberg() const {
    MatrixD h(n_);
    for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < n_; ++j) h(i, j) = work_(i, j);
    return h;
}

} // namespace ypm::linalg
