// Per-net switching activity, the input to dynamic power estimation.
//
// Activity can come straight from a Simulator run, or via the paper's
// file-based route (VCD -> parse). Both converge to toggles-per-second
// per net, which is what the power model consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/sim/engine.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::sim {

class ActivityMap {
public:
    explicit ActivityMap(std::size_t net_count) : rate_hz_(net_count, 0.0) {}

    void set_rate(netlist::NetId net, double toggles_per_s) {
        rate_hz_.at(net.value()) = toggles_per_s;
    }
    [[nodiscard]] double rate_hz(netlist::NetId net) const {
        return rate_hz_.at(net.value());
    }
    [[nodiscard]] std::size_t size() const { return rate_hz_.size(); }

    /// Nets sorted by descending toggle rate (the paper optimizes the
    /// highest-communication nets first).
    [[nodiscard]] std::vector<netlist::NetId> busiest(std::size_t count) const;

private:
    std::vector<double> rate_hz_;
};

/// Builds activity from a finished simulation (either engine — the parity
/// contract makes the result engine-independent): toggles observed over
/// `cycles` cycles of a clock at `clock_hz`. Per the toggle specification in
/// engine.hpp, constant-driven and undriven nets always get rate 0.
[[nodiscard]] ActivityMap activity_from_simulation(const SimEngine& sim, double clock_hz);

/// Builds activity from a parsed VCD, matching signals to nets by name.
/// Nets without a VCD record get rate 0. A dump sampled from the engine's
/// reset state once per cycle of a whole-picosecond period gives exactly
/// activity_from_simulation's rates, as long as no net changes twice between
/// two samples (a flip and flip back leaves no trace in a dump): the same
/// toggle counts over the same seconds (VcdActivity::duration_s()).
[[nodiscard]] ActivityMap activity_from_vcd(const netlist::Netlist& nl,
                                            const VcdActivity& vcd);

}  // namespace refpga::sim
