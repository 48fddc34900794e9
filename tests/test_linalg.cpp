// Unit tests for src/linalg: dense matrix, partial-pivot LU (real and
// complex) and the Hessenberg-reduced pencil solve, including
// property-style randomised solve checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>

#include "linalg/hessenberg.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace ypm;
using linalg::Lu;
using linalg::MatrixC;
using linalg::MatrixD;

TEST(Matrix, ShapeAndIndexing) {
    MatrixD m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FALSE(m.square());
    m(1, 2) = 7.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
    m.set_zero();
    EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

TEST(Matrix, IdentityMultiply) {
    const auto eye = MatrixD::identity(4);
    const std::vector<double> x = {1.0, -2.0, 3.0, 0.5};
    EXPECT_EQ(eye.multiply(x), x);
}

TEST(Matrix, NormInf) {
    MatrixD m(2, 2);
    m(0, 0) = 1.0;
    m(0, 1) = -4.0;
    m(1, 0) = 2.0;
    m(1, 1) = 2.0;
    EXPECT_DOUBLE_EQ(m.norm_inf(), 5.0);
}

TEST(Lu, SolvesKnownSystem) {
    // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
    MatrixD a(2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    const auto x = linalg::solve(a, {3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresPivoting) {
    // Zero on the initial diagonal forces a row swap.
    MatrixD a(2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const auto x = linalg::solve(a, {2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    MatrixD a(2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW((void)Lu<double>(a), NumericalError);
}

TEST(Lu, RejectsNonSquare) {
    MatrixD a(2, 3);
    EXPECT_THROW((void)Lu<double>(a), NumericalError);
}

TEST(Lu, DeterminantKnown) {
    MatrixD a(2);
    a(0, 0) = 3;
    a(0, 1) = 1;
    a(1, 0) = 4;
    a(1, 1) = 2;
    const Lu<double> lu(a);
    EXPECT_NEAR(lu.determinant(), 2.0, 1e-12);
}

TEST(Lu, DeterminantSignWithPermutation) {
    MatrixD a(2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const Lu<double> lu(a);
    EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(Lu, MultipleRhsFromOneFactorisation) {
    MatrixD a(3);
    a(0, 0) = 4;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    a(1, 2) = 1;
    a(2, 1) = 1;
    a(2, 2) = 2;
    const Lu<double> lu(a);
    for (const auto& rhs :
         {std::vector<double>{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 2, 3}}) {
        const auto x = lu.solve(rhs);
        const auto back = a.multiply(x);
        for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-10);
    }
}

TEST(Lu, ComplexSolve) {
    using C = std::complex<double>;
    MatrixC a(2);
    a(0, 0) = C(1, 1);
    a(0, 1) = C(0, 0);
    a(1, 0) = C(0, 0);
    a(1, 1) = C(0, 2);
    const auto x = linalg::solve(a, std::vector<C>{C(2, 0), C(0, 4)});
    EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
    EXPECT_NEAR(x[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(x[1].imag(), 0.0, 1e-12);
}

TEST(Lu, RhsSizeMismatchThrows) {
    const Lu<double> lu(MatrixD::identity(3));
    std::vector<double> bad = {1.0, 2.0};
    EXPECT_THROW(lu.solve_in_place(bad), NumericalError);
}

// Property: random well-conditioned systems solve to high accuracy.
class LuRandomSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSolve, ResidualIsTiny) {
    const std::size_t n = GetParam();
    Rng rng(1000 + n);
    MatrixD a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += static_cast<double>(n); // diagonal dominance
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
    const auto b = a.multiply(x_true);
    const auto x = linalg::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// Property: complex random systems.
class LuRandomComplex : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomComplex, ResidualIsTiny) {
    using C = std::complex<double>;
    const std::size_t n = GetParam();
    Rng rng(2000 + n);
    MatrixC a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        a(i, i) += C(static_cast<double>(n), 0.0);
    }
    std::vector<C> x_true(n);
    for (auto& v : x_true) v = C(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
    const auto b = a.multiply(x_true);
    const auto x = linalg::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i].real(), x_true[i].real(), 1e-8);
        EXPECT_NEAR(x[i].imag(), x_true[i].imag(), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomComplex, ::testing::Values(2, 4, 9, 17, 30));

TEST(Lu, PivotRatioReflectsConditioning) {
    // Identity: perfectly conditioned pivots.
    const Lu<double> good(MatrixD::identity(5));
    EXPECT_NEAR(good.pivot_ratio(), 1.0, 1e-12);

    MatrixD bad(2);
    bad(0, 0) = 1.0;
    bad(0, 1) = 0.0;
    bad(1, 0) = 0.0;
    bad(1, 1) = 1e-12;
    const Lu<double> poor(bad);
    EXPECT_LT(poor.pivot_ratio(), 1e-9);
}

TEST(InplaceLu, SolveColumnsMatchesPerColumnSolve) {
    const std::size_t n = 6;
    Rng rng(77);
    MatrixD a(n);
    MatrixD b(n, 3);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
        for (std::size_t j = 0; j < 3; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
    }
    const Lu<double> reference(a);
    linalg::InplaceLu<double> lu;
    MatrixD packed = a;
    lu.factor(packed);
    MatrixD x = b;
    lu.solve_columns(packed, x);
    for (std::size_t j = 0; j < 3; ++j) {
        std::vector<double> col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
        const auto expected = reference.solve(col);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, j), expected[i], 1e-12);
    }
}

// Property: on random real pencils K + sC the reduction yields an upper
// Hessenberg H similar to M = (K + s0*C)^-1 C, and the per-frequency
// Hessenberg solve reproduces a dense complex LU of (K + j*omega*C) x = b.
TEST(HessenbergPencil, RandomPencilsMatchDenseLu) {
    using C = std::complex<double>;
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 20u}) {
        Rng rng(3000 + n);
        MatrixD k(n);
        MatrixD c(n);
        std::vector<C> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                k(i, j) = rng.uniform(-1.0, 1.0);
                c(i, j) = rng.uniform(-1.0, 1.0);
            }
            k(i, i) += static_cast<double>(n);
            b[i] = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        }
        const double s0 = 1.5;
        const std::size_t probe_a = n - 1;
        const std::size_t probe_b = n / 2;
        linalg::HessenbergPencil pencil;
        ASSERT_TRUE(pencil.reduce(k, c, s0, b, probe_a, probe_b)) << "n=" << n;

        const MatrixD h = pencil.hessenberg();
        for (std::size_t i = 2; i < n; ++i)
            for (std::size_t j = 0; j + 1 < i; ++j)
                EXPECT_EQ(h(i, j), 0.0) << "n=" << n << " H(" << i << "," << j << ")";
        // An orthogonal similarity preserves the trace.
        MatrixD a0(n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) a0(i, j) = k(i, j) + s0 * c(i, j);
        const Lu<double> a0_lu(a0);
        double trace_m = 0.0;
        double trace_h = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            std::vector<double> col(n);
            for (std::size_t i = 0; i < n; ++i) col[i] = c(i, j);
            trace_m += a0_lu.solve(col)[j];
            trace_h += h(j, j);
        }
        EXPECT_NEAR(trace_h, trace_m, 1e-10 * (1.0 + std::fabs(trace_m)));

        for (double omega : {1e-3, 0.3, 1.0, 7.0, 100.0}) {
            MatrixC a(n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    a(i, j) = C(k(i, j), omega * c(i, j));
            const auto x = linalg::solve(a, b);
            double scale = 0.0;
            for (const C& v : x) scale = std::max(scale, std::abs(v));
            C x_a, x_b;
            ASSERT_TRUE(pencil.solve(omega, x_a, x_b));
            EXPECT_LE(std::abs(x_a - x[probe_a]), 1e-10 * scale)
                << "n=" << n << " omega=" << omega;
            EXPECT_LE(std::abs(x_b - x[probe_b]), 1e-10 * scale)
                << "n=" << n << " omega=" << omega;
        }
    }
}

TEST(HessenbergPencil, SingularShiftedMatrixIsReported) {
    // K = -s0*C makes A0 = K + s0*C exactly zero.
    const double s0 = 4.0;
    MatrixD c = MatrixD::identity(3);
    MatrixD k(3);
    for (std::size_t i = 0; i < 3; ++i) k(i, i) = -s0;
    const std::vector<std::complex<double>> b(3, {1.0, 0.0});
    linalg::HessenbergPencil pencil;
    EXPECT_FALSE(pencil.reduce(k, c, s0, b, 0, 1));
    std::complex<double> x_a, x_b;
    EXPECT_FALSE(pencil.solve(1.0, x_a, x_b));
    EXPECT_THROW((void)pencil.reduce(k, c, s0, b, 3, 0), NumericalError);
}

} // namespace
