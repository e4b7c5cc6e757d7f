// Quickstart: build a small design, simulate it, place & route it on a
// Spartan-3 part, and get a power report — the library's core loop in under
// a hundred lines.
//
//   cmake --build build && ./build/examples/quickstart
//   ./build/examples/quickstart --engine cycle   # full-sweep reference engine
//       (identical output — the engines are parity-gated, sim/engine.hpp)
#include <iostream>
#include <string>

#include "refpga/netlist/builder.hpp"
#include "refpga/netlist/drc.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/engine.hpp"

int main(int argc, char** argv) {
    using namespace refpga;

    sim::EngineKind engine = sim::EngineKind::Event;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine" && i + 1 < argc) {
            const auto kind = sim::parse_engine_kind(argv[++i]);
            if (!kind) {
                std::cerr << "invalid value for --engine (cycle|event): "
                          << argv[i] << "\n";
                return 2;
            }
            engine = *kind;
        } else {
            std::cerr << "usage: quickstart [--engine cycle|event]\n";
            return 2;
        }
    }

    // 1. Describe hardware with the word-level builder: an 8-bit counter
    //    whose value is squared by a MULT18 block.
    netlist::Netlist nl;
    const auto clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const netlist::Bus count = b.counter(8, netlist::NetId{}, "count");
    const netlist::Bus squared = b.mul_mult18(count, count, 16, 0, "square");
    nl.add_output_port("squared", b.reg(squared, netlist::NetId{}, "out"));
    netlist::require_clean(nl);
    std::cout << "netlist: " << nl.cell_count() << " cells, " << nl.net_count()
              << " nets\n";

    // 2. Simulate a few cycles and check the arithmetic.
    const auto simulator = sim::make_engine(engine, nl);
    simulator->run(12);
    std::cout << "after 12 cycles: count^2 = " << simulator->get_port("squared")
              << " (expect 11^2 + pipeline = 121)\n";

    // 3. Pack, place (simulated annealing) and route on an XC3S200.
    const par::PackedDesign packed = par::pack(nl);
    const fabric::Device device(fabric::PartName::XC3S200);
    par::Placement placement(device, nl, packed);
    placement.place_initial();
    par::PlacerOptions placer_options;
    placer_options.effort = 0.5;
    const par::PlacerResult anneal_result = par::anneal(placement, placer_options);
    std::cout << "placement cost: " << anneal_result.initial_cost << " -> "
              << anneal_result.final_cost << " (HPWL)\n";

    par::RoutedDesign routed(placement, par::ChannelCapacity{});
    routed.route_all(par::RouteMode::Performance);
    const par::TimingReport timing = par::analyze_timing(routed);
    std::cout << "routed: " << routed.total_capacitance_pf() << " pF total, Fmax "
              << timing.fmax_mhz() << " MHz\n";

    // 4. Activity-based power estimate at 50 MHz (either engine: the power
    //    overload consumes the common SimEngine interface).
    const power::PowerReport report = power::estimate_power(routed, *simulator, 50e6);
    std::cout << report.render();
    return 0;
}
