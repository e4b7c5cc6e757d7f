// Power-driven logic reallocation on a user design (the §4.3 methodology as
// a library call): find the hottest movable nets, pull their logic together,
// re-route on low-capacitance wires, and show the before/after.
//
//   ./build/examples/power_optimization
//   ./build/examples/power_optimization --engine cycle   # reference-engine
//       activity extraction (bit-identical output; see sim/engine.hpp)
#include <iostream>
#include <string>

#include "refpga/common/table.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"
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
            std::cerr << "usage: power_optimization [--engine cycle|event]\n";
            return 2;
        }
    }

    // A little DSP datapath: two counters driving a MULT18 and an
    // accumulator — busy nets with real toggle-rate structure.
    netlist::Netlist nl;
    const auto clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const netlist::Bus a = b.counter(10, netlist::NetId{}, "phase_a");
    const netlist::Bus c = b.counter(10, netlist::NetId{}, "phase_b");
    const netlist::Bus product = b.mul_mult18(a, c, 20, 0, "mix");
    const netlist::Bus acc = b.feedback_reg(
        24, [&](const netlist::Bus& q) { return b.add(q, b.sign_extend(product, 24)); },
        netlist::NetId{}, "acc");
    nl.add_output_port("acc", acc);

    // Implement on an XC3S400 with a deliberately light annealing pass
    // (mirrors a quick ISE run that leaves power on the table).
    const par::PackedDesign packed = par::pack(nl);
    const fabric::Device device(fabric::PartName::XC3S400);
    par::Placement placement(device, nl, packed);
    placement.place_initial();
    par::PlacerOptions placer_options;
    placer_options.effort = 0.05;
    (void)par::anneal(placement, placer_options);
    par::RoutedDesign routed(placement, par::ChannelCapacity{});
    routed.route_all(par::RouteMode::Performance);

    // Activity from simulation (the VCD route is shown in bench_table2).
    const auto simulator = sim::make_engine(engine, nl);
    simulator->run(2048);
    const sim::ActivityMap activity = sim::activity_from_simulation(*simulator, 50e6);

    par::ReallocateOptions options;
    options.net_count = 6;
    options.capture_routes = true;
    const par::ReallocateReport report =
        par::optimize_net_power(placement, routed, activity, options);

    Table table({"net", "before (uW)", "after (uW)", "reduction"});
    for (const auto& change : report.nets)
        table.add_row({change.name, Table::num(change.before_uw),
                       Table::num(change.after_uw),
                       Table::num(change.reduction_pct(), 1) + " %"});
    std::cout << table.render();
    std::cout << "total dynamic: " << Table::num(report.total_before_uw * 1e-3, 2)
              << " mW -> " << Table::num(report.total_after_uw * 1e-3, 2) << " mW\n";
    std::cout << "critical path: " << Table::num(report.critical_before_ps / 1e3, 2)
              << " ns -> " << Table::num(report.critical_after_ps / 1e3, 2) << " ns\n\n";
    if (!report.nets.empty()) {
        std::cout << "hottest net, before:\n" << report.nets.front().route_before;
        std::cout << "hottest net, after:\n" << report.nets.front().route_after;
    }
    return 0;
}
