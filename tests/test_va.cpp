// Tests for the Verilog-A layer: the behavioural OTA device's electrical
// behaviour and the generated module text.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/ac_terms.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "spice/measure.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "va/behav_ota_device.hpp"
#include "va/va_codegen.hpp"

namespace {

using namespace ypm;
using namespace ypm::spice;

TEST(BehaviouralOta, ValidatesSpec) {
    Circuit c;
    va::BehaviouralOtaSpec bad;
    bad.rout = 0.0;
    EXPECT_THROW(c.add<va::BehaviouralOta>("o", c.node("a"), c.node("b"),
                                           c.node("o"), bad),
                 InvalidInputError);
    bad.rout = 1e6;
    bad.f3db = -1.0;
    EXPECT_THROW(c.add<va::BehaviouralOta>("o2", c.node("a"), c.node("b"),
                                           c.node("o"), bad),
                 InvalidInputError);
}

TEST(BehaviouralOta, RejectsNonFiniteSpecs) {
    // Specs come from loaded tables; a NaN gain would reach every stamp
    // through undb20, rout = inf would leave the output floating, and
    // f3db = inf would make the transient step w_p * dt infinite.
    Circuit c;
    va::BehaviouralOta& ota = c.add<va::BehaviouralOta>(
        "o", c.node("a"), c.node("b"), c.node("o"), va::BehaviouralOtaSpec{});
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double gain_db : {nan, inf, -inf}) {
        va::BehaviouralOtaSpec bad;
        bad.gain_db = gain_db;
        EXPECT_THROW(ota.set_spec(bad), InvalidInputError) << gain_db;
    }
    for (double rout : {nan, inf}) {
        va::BehaviouralOtaSpec bad;
        bad.rout = rout;
        EXPECT_THROW(ota.set_spec(bad), InvalidInputError) << rout;
    }
    for (double f3db : {nan, inf}) {
        va::BehaviouralOtaSpec bad;
        bad.f3db = f3db;
        EXPECT_THROW(ota.set_spec(bad), InvalidInputError) << f3db;
    }
    // A rejected spec leaves the device's previous spec in place.
    EXPECT_EQ(ota.spec().gain_db, va::BehaviouralOtaSpec{}.gain_db);
    EXPECT_EQ(ota.spec().rout, va::BehaviouralOtaSpec{}.rout);
}

TEST(BehaviouralOta, RecordedAcTermsReplayStampAcBitForBit) {
    // The macromodel's AC row (1 + j w tau) V(u) - A0 vd = 0 is affine in
    // w: replaying its recorded terms must reproduce stamp_ac's additions
    // value for value, at any w.
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId inn = c.node("inn");
    const NodeId out = c.node("out");
    const va::BehaviouralOtaSpec spec{57.3, 3.7e3, 4.1e5};
    c.add<va::BehaviouralOta>("ota", inp, inn, out, spec);
    c.finalize();
    const std::size_t n = c.unknowns();
    const Solution op(c.node_count(), n - c.node_count());
    AcTermRecorder rec(c.node_count(), n);
    for (const auto& dev : c.devices()) dev->stamp_ac_affine(rec, op);
    EXPECT_TRUE(rec.rhs_terms().empty());
    for (double omega : {0.0, 1.0, 2.0 * mathx::pi * 3.7e3, 6.1e5, 2.3e10}) {
        linalg::MatrixC a(n);
        std::vector<std::complex<double>> rhs(n);
        ComplexStamper stamper(a, rhs, c.node_count());
        for (const auto& dev : c.devices()) dev->stamp_ac(stamper, omega, op);
        std::vector<std::complex<double>> replayed(n * n);
        rec.replay_matrix(omega, replayed.data());
        for (std::size_t i = 0; i < n * n; ++i) {
            const std::complex<double> v = a.data()[i];
            EXPECT_EQ(std::memcmp(&v, &replayed[i], sizeof v), 0)
                << "omega " << omega << " entry " << i << ": " << v << " vs "
                << replayed[i];
        }
    }
}

TEST(BehaviouralOta, OpenLoopAcMatchesSinglePoleThroughRoutDivider) {
    // h = A0 / (1 + j f/f3db) * go / (go + gl) for an open-loop OTA into a
    // resistive load, go = 1/rout, gl = 1/rl plus the AC solve's 1e-15
    // node floor, across poles from audio to far out of band.
    for (double f3db : {1e2, 1e4, 1e9}) {
        Circuit c;
        const NodeId inp = c.node("inp");
        const NodeId out = c.node("out");
        c.add<VoltageSource>("vin", inp, ground, 0.0, 1.0);
        const va::BehaviouralOtaSpec spec{63.0, f3db, 2.2e5};
        c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
        const double rl = 1e6;
        c.add<Resistor>("rl", out, ground, rl);
        const Solution op = solve_op(c);
        const auto freqs = log_sweep(1.0, 1e11, 7);
        const auto h = run_ac(c, op, freqs).transfer(out, inp);
        const double a0 = mathx::undb20(spec.gain_db);
        const double go = 1.0 / spec.rout;
        const double gl = 1.0 / rl + 1e-15;
        for (std::size_t i = 0; i < freqs.size(); ++i) {
            const std::complex<double> expected =
                a0 / std::complex<double>(1.0, freqs[i] / f3db) * go /
                (go + gl);
            EXPECT_LE(std::abs(h[i] - expected), 1e-12 * std::abs(expected))
                << "f3db " << f3db << " f " << freqs[i];
        }
    }
}

TEST(BehaviouralOta, OpenLoopDcGain) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1e-3);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3}; // A0 = 100, ro = 1k
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9); // ~unloaded
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 0.1, 1e-4); // 1 mV * 100
}

TEST(BehaviouralOta, OutputResistanceDividesWithLoad) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1e-3);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3};
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e3); // equal to rout -> halve
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 0.05, 1e-4);
}

TEST(BehaviouralOta, UnityFeedbackBuffer) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1.0);
    va::BehaviouralOtaSpec spec{60.0, 1e4, 1e6};
    c.add<va::BehaviouralOta>("ota", inp, out, out, spec);
    c.add<Resistor>("rl", out, ground, 1e6);
    const Solution op = solve_op(c);
    // Buffer: out = A/(1+A) * in with loading; A = 1000.
    EXPECT_NEAR(op.voltage(out), 1.0, 5e-3);
}

TEST(BehaviouralOta, SinglePoleAcRollOff) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 0.0, 1.0);
    va::BehaviouralOtaSpec spec{40.0, 10e3, 1e3};
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9);
    const Solution op = solve_op(c);
    const auto freqs = log_sweep(10.0, 100e6, 10);
    const AcResult ac = run_ac(c, op, freqs);
    const auto h = ac.transfer(out, inp);
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_NEAR(m.dc_gain_db, 40.0, 0.05);
    EXPECT_NEAR(m.f3db, 10e3, 600.0);
    // Single pole -> ~90 deg phase margin at unity.
    EXPECT_NEAR(m.phase_margin_deg, 90.0, 1.5);
}

TEST(BehaviouralOta, MatchesPaperContributionForm) {
    // V(out) <+ A*(V(inp)-V(inn)) - I(out)*ro: check the differential input.
    Circuit c;
    const NodeId a = c.node("a");
    const NodeId b = c.node("b");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("va", a, ground, 0.3);
    c.add<VoltageSource>("vb", b, ground, 0.299);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3};
    c.add<va::BehaviouralOta>("ota", a, b, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 100.0 * 1e-3, 1e-4);
}

// ---------------------------------------------------------------- codegen

TEST(VaCodegen, ContainsPaperStructure) {
    va::VaModuleFiles files;
    files.param_tables = {"lp1_data.tbl", "lp2_data.tbl", "lp3_data.tbl",
                          "lp4_data.tbl"};
    const std::string text = va::generate_va_module(files);
    // The structural elements of the paper's section 4.4 listing:
    EXPECT_NE(text.find("$table_model(gain, \"gain_delta.tbl\", \"3E\")"),
              std::string::npos);
    EXPECT_NE(text.find("$table_model(pm, \"pm_delta.tbl\", \"3E\")"),
              std::string::npos);
    EXPECT_NE(text.find("gain_prop = ((gain_delta/100)*gain)+gain;"),
              std::string::npos);
    EXPECT_NE(text.find("lp4 = $table_model(gain_prop, pm_prop, \"lp4_data.tbl\", "
                        "\"3E,3E\");"),
              std::string::npos);
    EXPECT_NE(text.find("pow(10, gain_prop/20)"), std::string::npos);
    EXPECT_NE(text.find("V(out) <+ (V(inp) - V(inn))*gain_in_v - I(out)*ro;"),
              std::string::npos);
    EXPECT_NE(text.find("$fopen(\"params.dat\")"), std::string::npos);
    EXPECT_NE(text.find("module ota_yield_model(inp, inn, out);"),
              std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VaCodegen, GeneralisesToNParameters) {
    va::VaModuleFiles files;
    for (int i = 1; i <= 8; ++i)
        files.param_tables.push_back("lp" + std::to_string(i) + "_data.tbl");
    const std::string text = va::generate_va_module(files);
    EXPECT_NE(text.find("real lp8;"), std::string::npos);
    EXPECT_NE(text.find("lp8 = $table_model"), std::string::npos);
}

TEST(VaCodegen, RequiresAtLeastOneTable) {
    va::VaModuleFiles files;
    EXPECT_THROW((void)va::generate_va_module(files), InvalidInputError);
}

TEST(VaCodegen, HonoursOptions) {
    va::VaModuleFiles files;
    files.param_tables = {"p1.tbl"};
    va::VaModuleOptions opts;
    opts.module_name = "my_model";
    opts.control_1d = "1C";
    const std::string text = va::generate_va_module(files, opts);
    EXPECT_NE(text.find("module my_model"), std::string::npos);
    EXPECT_NE(text.find("\"1C\""), std::string::npos);
}

} // namespace
