// Shared plumbing for the reproduction benches: builds the system netlist,
// runs the physical flow (pack/place/route), extracts switching activity via
// the paper's VCD round trip, and prints consistent headers.
#pragma once

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/engine.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::benchkit {

inline void print_header(const std::string& id, const std::string& title) {
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// True when the binary was invoked with --smoke. CI runs the benches in
/// this mode: a scaled-down scenario that validates the bench end-to-end
/// (and its invariants) without paying full measurement time.
inline bool smoke_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--smoke") return true;
    return false;
}

/// Physical implementation of a netlist on a device: pack + regioned
/// placement + annealing + routing.
struct Implementation {
    par::PackedDesign packed;
    fabric::Device device;
    par::Placement placement;
    par::RoutedDesign routed;

    Implementation(const netlist::Netlist& nl, fabric::PartName part,
                   double effort = 0.15, double activity_beta = 0.0,
                   const sim::ActivityMap* activity = nullptr)
        : packed(par::pack(nl)),
          device(part),
          placement(device, nl, packed),
          routed(placement, par::ChannelCapacity{}) {
        placement.place_initial();
        par::PlacerOptions options;
        options.effort = effort;
        options.activity_beta = activity_beta;
        (void)par::anneal(placement, options, activity);
        routed.route_all(par::RouteMode::Performance);
    }
};

/// Stimulates the system netlist for `cycles` and recovers per-net activity
/// through the full VCD round trip (post-PAR simulation -> VCD -> parse),
/// mirroring the paper's XPower flow. Thin wrapper over app::system_activity
/// on the library's default engine, so benches, campaigns and examples share
/// one stimulus definition; the result is the same ActivityMap the counter
/// path gives.
inline sim::ActivityMap system_activity_via_vcd(const netlist::Netlist& nl,
                                                double clock_hz, int cycles = 256) {
    app::ActivityOptions opts;
    opts.cycles = cycles;
    opts.via_vcd = true;
    return app::system_activity(nl, clock_hz, opts);
}

}  // namespace refpga::benchkit
