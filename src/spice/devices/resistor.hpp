#pragma once
/// \file resistor.hpp
/// \brief Linear resistor.

#include "spice/device.hpp"

namespace ypm::spice {

class Resistor final : public Device {
public:
    /// \param r resistance in ohms, must be > 0
    Resistor(std::string name, NodeId a, NodeId b, double r);

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(ComplexStamper& s, double omega, const Solution& op) const override;
    void stamp_ac_affine(AcTermRecorder& rec,
                         const Solution& op) const override;

    [[nodiscard]] double resistance() const { return r_; }
    void set_resistance(double r);

    [[nodiscard]] NodeId node_a() const { return a_; }
    [[nodiscard]] NodeId node_b() const { return b_; }

private:
    NodeId a_, b_;
    double r_;
};

} // namespace ypm::spice
