#pragma once
/// \file ac_terms.hpp
/// \brief Recorded frequency-affine AC stamp terms.
///
/// Every device's small-signal stamp is affine in the angular frequency:
/// every matrix contribution has the form  entry += k + j*omega*c  with k
/// and c real and fixed by the operating point, and every rhs contribution
/// is a frequency-constant phasor. Devices record their stamp once per
/// operating point through AcTermRecorder; an AC sweep then either
/// *replays* the term list at each frequency instead of re-running the
/// device models (for a MOSFET that re-evaluation is the full EKV model -
/// the single hottest call in a sweep), or sums it once into the real
/// pencil K + sC (sum_pencil) for the Hessenberg-reduced sweep.
///
/// Replay contract: replay must reproduce the exact additions the device's
/// stamp_ac would perform. Each recorder call therefore maps to exactly one
/// += of the value C(k, omega*c) (the same product the device computes),
/// and terms are replayed in recording order, which is stamping order. The
/// recorder mirrors Stamper's index math (ground rows/columns dropped,
/// branch unknowns after the node block).

#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "spice/solution.hpp"
#include "util/error.hpp"

namespace ypm::spice {

/// One recorded matrix contribution: storage[index] += base + j*omega*sus.
struct AcTerm {
    std::uint32_t index = 0;
    double base = 0.0;
    double sus = 0.0;
};

/// One recorded rhs contribution: rhs[index] += value.
struct AcRhsTerm {
    std::uint32_t index = 0;
    std::complex<double> value;
};

class AcTermRecorder {
public:
    /// \param n_nodes number of non-ground nodes
    /// \param n_unknowns nodes + branches (matrix dimension)
    AcTermRecorder(std::size_t n_nodes, std::size_t n_unknowns) {
        reset(n_nodes, n_unknowns);
    }

    /// Re-target the recorder and drop recorded terms, keeping the term
    /// vectors' capacity (the sweep workspace re-records per operating
    /// point).
    void reset(std::size_t n_nodes, std::size_t n_unknowns) {
        // Matrix indices pack into 32 bits; fail loudly, don't wrap.
        if (n_unknowns * n_unknowns >
            std::numeric_limits<std::uint32_t>::max())
            throw InvalidInputError(
                "AcTermRecorder: system too large for 32-bit term indices");
        n_nodes_ = n_nodes;
        n_ = n_unknowns;
        terms_.clear();
        rhs_terms_.clear();
    }

    void clear() {
        terms_.clear();
        rhs_terms_.clear();
    }
    [[nodiscard]] const std::vector<AcTerm>& terms() const { return terms_; }
    [[nodiscard]] const std::vector<AcRhsTerm>& rhs_terms() const {
        return rhs_terms_;
    }

    /// A(row, col) += base + j*omega*sus for node/node entries.
    void mat(NodeId row, NodeId col, double base, double sus = 0.0) {
        if (row == ground || col == ground) return;
        push(idx(row) * n_ + idx(col), base, sus);
    }

    /// rhs(row) += base (AC excitations are frequency-independent phasors,
    /// so rhs terms replay once per operating point, not per frequency).
    void rhs(NodeId row, std::complex<double> base) {
        if (row == ground) return;
        rhs_terms_.push_back({static_cast<std::uint32_t>(idx(row)), base});
    }

    /// Two-terminal admittance stamp; expands to the same four mat() calls,
    /// in the same order, as Stamper::conductance.
    void conductance(NodeId a, NodeId b, double base, double sus = 0.0) {
        mat(a, a, base, sus);
        mat(b, b, base, sus);
        mat(a, b, -base, -sus);
        mat(b, a, -base, -sus);
    }

    void mat_branch_row(std::size_t branch, NodeId col, double base,
                        double sus = 0.0) {
        if (col == ground) return;
        push(brow(branch) * n_ + idx(col), base, sus);
    }
    void mat_branch_col(NodeId row, std::size_t branch, double base,
                        double sus = 0.0) {
        if (row == ground) return;
        push(idx(row) * n_ + brow(branch), base, sus);
    }
    void mat_branch_branch(std::size_t br_row, std::size_t br_col, double base,
                           double sus = 0.0) {
        push(brow(br_row) * n_ + brow(br_col), base, sus);
    }
    void rhs_branch(std::size_t branch, std::complex<double> base) {
        rhs_terms_.push_back({static_cast<std::uint32_t>(brow(branch)), base});
    }

    /// Replay every matrix term at angular frequency omega into the dense
    /// row-major storage `a` (n*n). The caller zeroes it first, as an AC
    /// solve zeroes its system before stamping.
    void replay_matrix(double omega, std::complex<double>* a) const {
        for (const AcTerm& t : terms_) {
            // sus == 0 covers -0.0 too: the device stamps a zero imaginary
            // part, whose sign cannot show in an accumulator that starts at
            // +0.0.
            a[t.index] += std::complex<double>(
                t.base, t.sus == 0.0 ? 0.0 : omega * t.sus);
        }
    }

    /// Replay the rhs terms into `b` (n entries, zeroed by the caller).
    void replay_rhs(std::complex<double>* b) const {
        for (const AcRhsTerm& t : rhs_terms_) b[t.index] += t.value;
    }

    /// Sum the matrix terms into the real pencil K + s*C that replay_matrix
    /// evaluates at s = j*omega: K collects every base, C every sus. Both
    /// are dense row-major n*n, zeroed by the caller.
    void sum_pencil(double* k, double* c) const {
        for (const AcTerm& t : terms_) {
            k[t.index] += t.base;
            c[t.index] += t.sus;
        }
    }

private:
    [[nodiscard]] std::size_t idx(NodeId n) const {
        return static_cast<std::size_t>(n) - 1;
    }
    [[nodiscard]] std::size_t brow(std::size_t branch) const {
        return n_nodes_ + branch;
    }
    void push(std::size_t index, double base, double sus) {
        terms_.push_back({static_cast<std::uint32_t>(index), base, sus});
    }

    std::size_t n_nodes_ = 0;
    std::size_t n_ = 0;
    std::vector<AcTerm> terms_;        ///< matrix contributions
    std::vector<AcRhsTerm> rhs_terms_; ///< frequency-constant rhs contributions
};

} // namespace ypm::spice
