// §4.3 reallocation engine: incremental vs reference, on the Table-2 scenario.
//
// The incremental engine (precomputed adjacency, scratch-route delta costing,
// cached net power, parallel candidate evaluation) must produce a
// byte-identical ReallocateReport to the retained reference engine at every
// thread count. On the full Table-2 scenario it measured 7.7-10.3x faster
// (Release, shared 4-vCPU host); the reference engine's cost is its live
// per-candidate re-route and undo, since a timing analysis costs ~1.5 ms. This
// bench measures both, checks the equality and the total-power invariant, and
// emits a machine-readable BENCH_par_reallocate.json next to the binary. Exit
// status is non-zero on any invariant violation, so CI can run it as a check.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/par/reallocate.hpp"

namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;

struct RunResult {
    par::ReallocateReport report;
    double wall_ms = 0.0;
    long overflow = 0;
};

/// Builds a fresh implementation (the flow is deterministic, so every run
/// starts from the same placement and routes) and times only the optimizer.
RunResult run_engine(const netlist::Netlist& nl, fabric::PartName part,
                     const sim::ActivityMap& activity,
                     par::ReallocateOptions options) {
    benchkit::Implementation impl(nl, part, 0.05);
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.report = par::optimize_net_power(impl.placement, impl.routed, activity, options);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.overflow = impl.routed.overflow_count();
    return r;
}

double nets_per_s(const RunResult& r) {
    return r.wall_ms > 0.0
               ? static_cast<double>(r.report.nets.size()) / (r.wall_ms * 1e-3)
               : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    benchkit::print_header("PAR reallocate",
                           std::string("incremental vs reference engine") +
                               (smoke ? " [smoke]" : ""));

    // Table-2 scenario: the full system on the XC3S1000 (smoke: the hardware
    // core alone on the XC3S400, fewer stimulus cycles).
    const app::SystemNetlist sys =
        smoke ? app::build_system_netlist(
                    {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false})
              : app::build_system_netlist({});
    const fabric::PartName part =
        smoke ? fabric::PartName::XC3S400 : fabric::PartName::XC3S1000;
    const sim::ActivityMap activity =
        benchkit::system_activity_via_vcd(sys.nl, kClockHz, smoke ? 64 : 256);

    par::ReallocateOptions options;
    options.net_count = 8;

    options.engine = par::ReallocEngine::Reference;
    const RunResult ref = run_engine(sys.nl, part, activity, options);

    options.engine = par::ReallocEngine::Incremental;
    const std::vector<int> thread_counts = smoke ? std::vector<int>{1, 4}
                                                 : std::vector<int>{1, 4, 16};
    std::vector<RunResult> inc;
    for (const int threads : thread_counts) {
        options.threads = threads;
        inc.push_back(run_engine(sys.nl, part, activity, options));
    }

    bool identical = true;
    for (const RunResult& r : inc)
        if (!(r.report == ref.report)) identical = false;
    const bool power_ok = ref.report.total_after_uw <= ref.report.total_before_uw;

    Table table({"engine", "wall (ms)", "nets/s", "speedup"});
    table.add_row({"reference", Table::num(ref.wall_ms, 1),
                   Table::num(nets_per_s(ref), 1), "1.0x"});
    double best_ms = ref.wall_ms;
    for (std::size_t i = 0; i < inc.size(); ++i) {
        table.add_row({"incremental t=" + std::to_string(thread_counts[i]),
                       Table::num(inc[i].wall_ms, 1),
                       Table::num(nets_per_s(inc[i]), 1),
                       Table::num(ref.wall_ms / inc[i].wall_ms, 1) + "x"});
        best_ms = std::min(best_ms, inc[i].wall_ms);
    }
    std::cout << table.render();
    std::cout << "total dynamic power: " << Table::num(ref.report.total_before_uw * 1e-3)
              << " mW -> " << Table::num(ref.report.total_after_uw * 1e-3) << " mW\n";
    std::cout << "reports byte-identical across engines and thread counts: "
              << (identical ? "yes" : "NO") << "\n";

    std::ofstream json("BENCH_par_reallocate.json");
    json << "{\n"
         << "  \"bench\": \"par_reallocate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"scenario\": \""
         << (smoke ? "xc3s400_core_only" : "table2_xc3s1000_full_system") << "\",\n"
         << "  \"nets_optimized\": " << ref.report.nets.size() << ",\n"
         << "  \"reference\": {\"wall_ms\": " << ref.wall_ms
         << ", \"nets_per_s\": " << nets_per_s(ref) << "},\n"
         << "  \"incremental\": [";
    for (std::size_t i = 0; i < inc.size(); ++i)
        json << (i > 0 ? ", " : "") << "{\"threads\": " << thread_counts[i]
             << ", \"wall_ms\": " << inc[i].wall_ms
             << ", \"nets_per_s\": " << nets_per_s(inc[i]) << "}";
    json << "],\n"
         << "  \"speedup_best\": " << (best_ms > 0.0 ? ref.wall_ms / best_ms : 0.0)
         << ",\n"
         << "  \"total_before_uw\": " << ref.report.total_before_uw << ",\n"
         << "  \"total_after_uw\": " << ref.report.total_after_uw << ",\n"
         << "  \"critical_before_ps\": " << ref.report.critical_before_ps << ",\n"
         << "  \"critical_after_ps\": " << ref.report.critical_after_ps << ",\n"
         << "  \"overflow_count\": " << ref.overflow << ",\n"
         << "  \"reports_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";

    if (!identical || !power_ok) {
        std::cerr << "FAIL: " << (!identical ? "reports differ across engines/threads"
                                             : "total power increased")
                  << "\n";
        return 1;
    }
    return 0;
}
