// Unit tests for src/linalg: dense matrix, partial-pivot LU (real and
// complex) and the Hessenberg-reduced pencil solve, including
// property-style randomised solve checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
        ASSERT_TRUE(pencil.reduce(k, c, s0, b, {}, probe_a, probe_b)) << "n=" << n;

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

// The small-signal pencil of one OTA testbench sample under a widened
// process draw, as AcTermRecorder::sum_pencil builds it (node floor
// included). Unknowns 0-9 are nodes (0 = vdd, 1 = inp, 2 = inn, 3 = out),
// 10-12 branches (10, 11 the supply and input sources, 12 the feedback
// inductor).
constexpr std::size_t kOtaN = 13;
constexpr std::size_t kOtaOut = 3;
constexpr std::size_t kOtaInp = 1;

void ota_sample_pencil(MatrixD& k, MatrixD& c) {
    struct Entry {
        std::size_t row, col;
        double k, c;
    };
    const Entry entries[] = {
        {0, 0, 0.0004158547513259933, 1.454562533644122e-12},
        {0, 3, -3.8199198379387675e-09, -7.437349634948428e-14},
        {0, 5, -8.714272784175227e-05, -7.62494966073494e-13},
        {0, 6, -0.00032868608800460086, -5.433205748716594e-13},
        {0, 7, -2.2115558802222538e-08, -7.437349634948428e-14},
        {0, 10, 1.0, 0.0},
        {1, 1, 1e-15, 9.597135989710865e-14},
        {1, 4, 0.0, -2.4000000000000003e-15},
        {1, 5, 0.0, -2.4000000000000003e-15},
        {1, 11, 1.0, 0.0},
        {2, 2, 1e-15, 1.0000000000000655},
        {2, 4, 0.0, -6.318090659807242e-14},
        {2, 6, 0.0, -2.4000000000000003e-15},
        {2, 12, -1.0, 0.0},
        {3, 0, -5.520386051947435e-06, -7.437349634948428e-14},
        {3, 3, 6.363377645880079e-09, 1.0107047719011927e-11},
        {3, 5, 5.516566132109497e-06, -3.699696364951885e-15},
        {3, 7, 5.8250659672272355e-06, -2.414336261944301e-15},
        {3, 9, -7.384532811342085e-06, 0.0},
        {3, 12, 1.0, 0.0},
        {4, 1, -7.541090316058482e-05, -2.4000000000000003e-15},
        {4, 2, -0.0002535698929466005, -6.318090659807242e-14},
        {4, 4, 0.0004057036574123557, 1.1839090659807242e-13},
        {4, 5, -1.3372945148690433e-07, 0.0},
        {4, 6, -6.127236334839638e-07, 0.0},
        {5, 0, -8.162616170964275e-05, -7.62494966073494e-13},
        {5, 1, 7.541090316058482e-05, -2.4000000000000003e-15},
        {5, 3, 0.0, -3.699696364951885e-15},
        {5, 4, -9.296038949059909e-05, 0.0},
        {5, 5, 8.175989116212967e-05, 7.949996624384459e-13},
        {6, 0, -0.00030314996348412886, -5.433205748716594e-13},
        {6, 2, 0.0002535698929466005, -2.4000000000000003e-15},
        {6, 4, -0.00031274326792075664, 0.0},
        {6, 6, 0.00030376268711861283, 5.758252712366112e-13},
        {6, 7, 0.0, -3.699696364951885e-15},
        {7, 0, -2.555824007927422e-05, -7.437349634948428e-14},
        {7, 3, 0.0, -2.414336261944301e-15},
        {7, 6, 2.5536124520472e-05, -3.699696364951885e-15},
        {7, 7, 3.376427238436219e-05, 7.799704199190358e-13},
        {7, 8, -4.2766150341910325e-05, -5.091608081623654e-15},
        {7, 9, 0.0, -2.414336261944301e-15},
        {8, 7, -3.374215682455997e-05, -5.091608081623654e-15},
        {8, 8, 7.651025473632737e-05, 7.625304927697994e-13},
        {8, 9, 0.0, -2.414336261944301e-15},
        {9, 3, -2.5434568079413115e-09, 0.0},
        {9, 7, -5.8250659672272355e-06, -2.414336261944301e-15},
        {9, 8, 5.820114078742484e-06, -2.414336261944301e-15},
        {9, 9, 7.387097699860684e-06, 5.794905259498273e-14},
        {10, 0, 1.0, 0.0},
        {11, 1, 1.0, 0.0},
        {12, 2, -1.0, 0.0},
        {12, 3, 1.0, 0.0},
        {12, 12, 0.0, -1000000.0},
    };
    k = MatrixD(kOtaN);
    c = MatrixD(kOtaN);
    for (const Entry& e : entries) {
        k(e.row, e.col) = e.k;
        c(e.row, e.col) = e.c;
    }
}

// Regression: the 1e6 H inductor (C(12,12)) and the 1 F AC ground on inn
// (C(2,2)) of the OTA pencil sit beside fF-pF device capacitances, which
// leaves M = A0^-1 C's row and column norms ~17 decades apart. Unbalanced,
// the reduction was off by ~1e-6 relative at the 10 Hz end of the
// 10 Hz - 10 GHz sweep (tripping the sweep's 1e-6 endpoint guard);
// balanced, it is off by < 1e-8.
TEST(HessenbergPencil, BalancedReductionOfOtaPencilMatchesDenseLu) {
    using C = std::complex<double>;
    const std::size_t n = kOtaN;
    const std::size_t out = kOtaOut;
    const std::size_t inp = kOtaInp;
    MatrixD k;
    MatrixD c;
    ota_sample_pencil(k, c);
    std::vector<C> b(n);
    b[11] = 1.0; // the input source's AC magnitude

    const double two_pi = 2.0 * 3.14159265358979323846;
    const double s0 = two_pi * std::sqrt(10.0 * 10e9);
    linalg::HessenbergPencil pencil;
    ASSERT_TRUE(pencil.reduce(k, c, s0, b, {}, out, inp));
    const MatrixD h = pencil.hessenberg();
    for (std::size_t i = 2; i < n; ++i)
        for (std::size_t j = 0; j + 1 < i; ++j)
            EXPECT_EQ(h(i, j), 0.0) << "H(" << i << "," << j << ")";

    for (double f : {10.0, 12.0, 15.0, 100.0, 1e4}) {
        const double omega = two_pi * f;
        MatrixC a(n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                a(i, j) = C(k(i, j), omega * c(i, j));
        const auto ref = linalg::solve(a, b);
        C x_out, x_in;
        ASSERT_TRUE(pencil.solve(omega, x_out, x_in)) << "f=" << f;
        EXPECT_LE(std::abs(x_out - ref[out]), 3e-8 * std::abs(ref[out]))
            << "f=" << f;
        EXPECT_LE(std::abs(x_in - ref[inp]), 3e-8 * std::abs(ref[inp]))
            << "f=" << f;
    }
}

// The affine rhs b0 + s*b1 that eliminating source-pinned unknowns leaves:
// the OTA pencil without the supply (vdd, branch 10) and input (inp,
// branch 11) pairs, with V(vdd) = 0 and V(inp) = 1 moved to the rhs. inp's
// gate capacitances make b1 nonzero. Across the OTA's 10 Hz - 10 GHz sweep
// the 9-unknown reduction must reproduce a dense LU of the full system.
TEST(HessenbergPencil, AffineRhsOfEliminatedSourcesMatchesDenseLu) {
    using C = std::complex<double>;
    MatrixD k;
    MatrixD c;
    ota_sample_pencil(k, c);
    std::vector<C> b(kOtaN);
    b[11] = 1.0;

    const std::vector<std::size_t> keep = {2, 3, 4, 5, 6, 7, 8, 9, 12};
    const std::size_t n = keep.size();
    const C v_inp = b[11] / k(11, kOtaInp);
    MatrixD kr(n);
    MatrixD cr(n);
    std::vector<C> b0(n);
    std::vector<C> b1(n);
    std::size_t out = n;
    for (std::size_t a = 0; a < n; ++a) {
        if (keep[a] == kOtaOut) out = a;
        for (std::size_t j = 0; j < n; ++j) {
            kr(a, j) = k(keep[a], keep[j]);
            cr(a, j) = c(keep[a], keep[j]);
        }
        b0[a] = b[keep[a]] - v_inp * k(keep[a], kOtaInp);
        b1[a] = -v_inp * c(keep[a], kOtaInp);
    }
    ASSERT_LT(out, n);
    ASSERT_TRUE(std::any_of(b1.begin(), b1.end(), [](C v) { return v != C{}; }));

    const double two_pi = 2.0 * 3.14159265358979323846;
    const double s0 = two_pi * std::sqrt(10.0 * 10e9);
    linalg::HessenbergPencil pencil;
    ASSERT_TRUE(pencil.reduce(kr, cr, s0, b0, b1, out, out));
    for (double f = 10.0; f <= 1.0001e10; f *= std::sqrt(10.0)) {
        const double omega = two_pi * f;
        MatrixC a(kOtaN);
        for (std::size_t i = 0; i < kOtaN; ++i)
            for (std::size_t j = 0; j < kOtaN; ++j)
                a(i, j) = C(k(i, j), omega * c(i, j));
        const auto ref = linalg::solve(a, b);
        C x_out, x_dup;
        ASSERT_TRUE(pencil.solve(omega, x_out, x_dup)) << "f=" << f;
        EXPECT_EQ(x_out, x_dup);
        const C h_ref = ref[kOtaOut] / ref[kOtaInp];
        EXPECT_LE(std::abs(x_out / v_inp - h_ref),
                  1e-8 * std::max(std::abs(h_ref), 1e-3))
            << "f=" << f;
    }
}

// The affine rhs on random pencils: (K + sC) x = b0 + s*b1 at s = j*omega
// against a dense complex LU.
TEST(HessenbergPencil, RandomAffineRhsMatchesDenseLu) {
    using C = std::complex<double>;
    for (std::size_t n : {1u, 2u, 5u, 9u}) {
        Rng rng(4000 + n);
        MatrixD k(n);
        MatrixD c(n);
        std::vector<C> b0(n);
        std::vector<C> b1(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                k(i, j) = rng.uniform(-1.0, 1.0);
                c(i, j) = rng.uniform(-1.0, 1.0);
            }
            k(i, i) += static_cast<double>(n);
            b0[i] = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
            b1[i] = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        }
        const std::size_t probe_a = n - 1;
        const std::size_t probe_b = n / 2;
        linalg::HessenbergPencil pencil;
        ASSERT_TRUE(pencil.reduce(k, c, 1.5, b0, b1, probe_a, probe_b)) << "n=" << n;
        for (double omega : {1e-3, 0.3, 1.0, 7.0, 100.0}) {
            MatrixC a(n);
            std::vector<C> rhs(n);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j)
                    a(i, j) = C(k(i, j), omega * c(i, j));
                rhs[i] = b0[i] + C(0.0, omega) * b1[i];
            }
            const auto x = linalg::solve(a, rhs);
            double scale = 0.0;
            for (const C& v : x) scale = std::max(scale, std::abs(v));
            C x_a, x_b;
            ASSERT_TRUE(pencil.solve(omega, x_a, x_b));
            EXPECT_LE(std::abs(x_a - x[probe_a]), 1e-10 * scale)
                << "n=" << n << " omega=" << omega;
            EXPECT_LE(std::abs(x_b - x[probe_b]), 1e-10 * scale)
                << "n=" << n << " omega=" << omega;
        }
        EXPECT_THROW((void)pencil.reduce(k, c, 1.5, b0, std::vector<C>(n + 1),
                                         probe_a, probe_b),
                     NumericalError);
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
    EXPECT_FALSE(pencil.reduce(k, c, s0, b, {}, 0, 1));
    std::complex<double> x_a, x_b;
    EXPECT_FALSE(pencil.solve(1.0, x_a, x_b));
    EXPECT_THROW((void)pencil.reduce(k, c, s0, b, {}, 3, 0), NumericalError);
}

} // namespace
