// §4.3 reallocation engine: incremental vs reference, on the Table-2 scenario.
//
// The incremental engine (precomputed adjacency, scratch-route delta costing,
// cached net power, parallel candidate evaluation) must produce a
// byte-identical ReallocateReport to the retained reference engine at every
// thread count. The reference engine's cost is its live per-candidate
// re-route and undo; the incremental engine re-routes only the connections a
// candidate move can change (see RoutedDesign::trial_candidate). This
// bench measures both, interleaved through the bench harness (one warm-up
// round, then a fixed number of rounds; each run starts from a fresh implementation),
// checks the equality and the total-power invariant, and emits
// BENCH_par_reallocate.json (--json echoes it). Exit status is non-zero on
// any invariant violation, so CI can run it as a check.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/par/reallocate.hpp"

namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;
constexpr int kSmokeRounds = 3;
constexpr int kFullRounds = 5;
constexpr double kSmokeEffort = 0.05;
constexpr double kFullEffort = 0.15;

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const int rounds = args.smoke ? kSmokeRounds : kFullRounds;
    benchkit::Report report("par_reallocate", args, rounds);
    benchkit::print_header("PAR reallocate",
                           std::string("incremental vs reference engine") +
                               (args.smoke ? " [smoke]" : ""));

    // Table-2 scenario: the full system on the XC3S1000 (smoke: the hardware
    // core alone on the XC3S400, fewer stimulus cycles).
    const app::SystemNetlist sys =
        args.smoke ? app::build_system_netlist(
                         {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false})
                   : app::build_system_netlist({});
    const fabric::PartName part =
        args.smoke ? fabric::PartName::XC3S400 : fabric::PartName::XC3S1000;
    const sim::ActivityMap activity =
        benchkit::system_activity_via_vcd(sys.nl, kClockHz, args.smoke ? 64 : 256);
    // Full mode anneals at the §4.3 flow's effort, as perfbench's table2_flow
    // does, so the engines are timed on the placement the flow produces;
    // smoke mode keeps a shorter anneal.
    const double effort = args.smoke ? kSmokeEffort : kFullEffort;

    // Variant 0 is the reference engine; the rest are the incremental engine
    // at each thread count.
    const std::vector<int> thread_counts =
        args.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
    std::optional<par::ReallocateReport> reference;
    long overflow = 0;
    bool identical = true;
    const std::vector<benchkit::Timing> wall =
        benchkit::interleave(1 + thread_counts.size(), rounds, [&](std::size_t v) {
            par::ReallocateOptions options;
            options.net_count = 8;
            options.engine = v == 0 ? par::ReallocEngine::Reference
                                    : par::ReallocEngine::Incremental;
            if (v > 0) options.threads = thread_counts[v - 1];
            // The flow is deterministic, so every run starts from the same
            // placement and routes; only the optimizer is timed.
            benchkit::Implementation impl(sys.nl, part, effort);
            const double t0 = benchkit::wall_ms();
            par::ReallocateReport r =
                par::optimize_net_power(impl.placement, impl.routed, activity, options);
            const double ms = benchkit::wall_ms() - t0;
            if (!reference) {
                reference = std::move(r);
                overflow = impl.routed.overflow_count();
            } else {
                identical = identical && r == *reference;
            }
            return ms;
        });

    const double nets = static_cast<double>(reference->nets.size());
    benchkit::ReportTable& table =
        report.table("engines", {{"engine", "engine"},
                                 {"wall_ms", "wall (ms)", 1},
                                 {"nets_per_s", "nets/s", 1},
                                 {"speedup", "speedup", 1, "x"}});
    for (std::size_t v = 0; v < wall.size(); ++v)
        table.row({v == 0 ? std::string("reference")
                          : "incremental t=" + std::to_string(thread_counts[v - 1]),
                   wall[v], nets / (wall[v].median * 1e-3),
                   wall[0].median / wall[v].median});
    std::cout << table.render();
    std::cout << "total dynamic power: " << Table::num(reference->total_before_uw * 1e-3)
              << " mW -> " << Table::num(reference->total_after_uw * 1e-3) << " mW\n";
    std::cout << "reports byte-identical across engines and thread counts: "
              << (identical ? "yes" : "NO") << "\n";

    report.fact("scenario",
                args.smoke ? "xc3s400_core_only" : "table2_xc3s1000_full_system");
    report.fact("anneal_effort", effort);
    report.fact("nets_optimized", reference->nets.size());
    report.fact("total_before_uw", reference->total_before_uw);
    report.fact("total_after_uw", reference->total_after_uw);
    report.fact("critical_before_ps", reference->critical_before_ps);
    report.fact("critical_after_ps", reference->critical_after_ps);
    report.fact("overflow_count", overflow);
    report.check("reports identical", identical);
    report.gate("total power (uW) does not rise", reference->total_after_uw,
                benchkit::Op::AtMost, reference->total_before_uw);
    return report.finish();
}
