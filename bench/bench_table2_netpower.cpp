// Table 2 + Figure 6 — Power-optimized place & route (§4.3).
//
// Paper flow: post-PAR simulation -> VCD -> XPower activity -> pick the nets
// with the highest communication rates -> reallocate their logic to closer
// slices and re-route on shorter wires -> per-net power drops 40-60 %
// (headline: 1176 uW -> 516 uW, -56 %), verified after every step that total
// dynamic power decreased. Figure 6 shows one net's routing before/after.
//
// Ablation: activity-weighted placement (beta > 0) vs the conventional
// wirelength-driven flow (beta = 0).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/timing.hpp"

namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;

void print_table2(bool smoke) {
    benchkit::print_header(
        "Table 2", "per-net power before/after logic reallocation (uW)");

    // The paper optimized the hardware data-processing modules; use the full
    // system netlist (soft-IP activity included) on the XC3S1000. Smoke mode
    // shrinks to the hardware core on the XC3S400.
    const app::SystemNetlist sys =
        smoke ? app::build_system_netlist(
                    {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false})
              : app::build_system_netlist({});
    const sim::ActivityMap activity =
        benchkit::system_activity_via_vcd(sys.nl, kClockHz, smoke ? 64 : 256);

    benchkit::Implementation impl(
        sys.nl, smoke ? fabric::PartName::XC3S400 : fabric::PartName::XC3S1000, 0.05);

    par::ReallocateOptions options;
    options.net_count = 8;
    options.capture_routes = true;
    const par::ReallocateReport report =
        par::optimize_net_power(impl.placement, impl.routed, activity, options);

    Table table({"signal net", "power before (uW)", "power after (uW)",
                 "reduction (%)", "logic moved"});
    for (const auto& change : report.nets)
        table.add_row({change.name, Table::num(change.before_uw),
                       Table::num(change.after_uw),
                       Table::num(change.reduction_pct(), 1),
                       change.moved_logic ? "yes" : "re-route only"});
    std::cout << table.render();
    std::cout << "total dynamic power: " << Table::num(report.total_before_uw * 1e-3)
              << " mW -> " << Table::num(report.total_after_uw * 1e-3)
              << " mW (verified not increased: "
              << (report.total_after_uw <= report.total_before_uw ? "yes" : "NO")
              << ")\n";
    std::cout << "critical path: " << Table::num(report.critical_before_ps * 1e-3, 2)
              << " ns -> " << Table::num(report.critical_after_ps * 1e-3, 2)
              << " ns (slack gate " << options.timing_slack << "x)\n";

    // Figure 6: the hottest net's route before and after.
    benchkit::print_header("Figure 6", "optimized signal net routing (hottest net)");
    if (!report.nets.empty()) {
        std::cout << "--- before reallocation ---\n"
                  << report.nets.front().route_before;
        std::cout << "--- after reallocation ---\n"
                  << report.nets.front().route_after;
    }
}

void print_placement_ablation() {
    benchkit::print_header(
        "Ablation", "activity-weighted placement (beta) vs wirelength-only");

    const app::SystemNetlist sys = app::build_system_netlist(
        {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
    const sim::ActivityMap activity =
        benchkit::system_activity_via_vcd(sys.nl, kClockHz);

    Table table({"placer", "total net C (pF)", "hot-20 net power (uW)"});
    for (const double beta : {0.0, 0.5, 1.5}) {
        benchkit::Implementation impl(sys.nl, fabric::PartName::XC3S400, 0.15, beta,
                                      &activity);
        double hot_uw = 0.0;
        for (const auto net : activity.busiest(20))
            hot_uw += par::net_power_uw(impl.routed, net, activity, 1.2);
        table.add_row({beta == 0.0 ? "wirelength only (ISE-like)"
                                   : "activity beta=" + Table::num(beta, 1),
                       Table::num(impl.routed.total_capacitance_pf(), 1),
                       Table::num(hot_uw, 1)});
    }
    std::cout << table.render();
}

void BM_Reallocate8Nets(benchmark::State& state) {
    const app::SystemNetlist sys = app::build_system_netlist(
        {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
    const sim::ActivityMap activity =
        benchkit::system_activity_via_vcd(sys.nl, kClockHz, 64);
    for (auto _ : state) {
        benchkit::Implementation impl(sys.nl, fabric::PartName::XC3S400, 0.02);
        par::ReallocateOptions options;
        options.net_count = 8;
        auto report =
            par::optimize_net_power(impl.placement, impl.routed, activity, options);
        benchmark::DoNotOptimize(report.total_after_uw);
    }
}
BENCHMARK(BM_Reallocate8Nets)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::Args(argc, argv).smoke;
    print_table2(smoke);
    if (smoke) return 0;  // scaled-down end-to-end pass for CI
    print_placement_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
