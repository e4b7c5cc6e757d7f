// Fleet scaling — in-process campaign throughput vs worker threads.
//
// Runs one fixed campaign sweep (the acceptance sweep: hardware variants x
// parts x JCAP ports x noise) at 1, 2, 4 and hardware-concurrency threads
// and reports scenarios/sec plus the speedup over the serial run. Scenarios
// are embarrassingly parallel — each owns its MeasurementSystem — so
// throughput should track physical cores. The bench also re-checks the
// determinism guarantee: every run's JSON report must be byte-identical to
// the serial one.
//
// The thread counts run interleaved through the bench harness (one warm-up
// round, then a fixed number of rounds) and the speedup is a ratio of median wall
// times. The sweep is sized so the serial run takes over a second (over
// 0.2 s in smoke mode): a run of a few tens of milliseconds times the
// scheduler, not the campaign.
//
// Emits BENCH_fleet_campaign.json; --json echoes it. Exit status is non-zero
// on a determinism violation or (full mode, >= 2 cores) a 4-thread speedup
// below the 1.5x target. The process-level analogue is bench_svc_scale.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"

namespace {

using namespace refpga;

constexpr int kSmokeRounds = 3;
constexpr int kFullRounds = 5;

std::vector<fleet::Scenario> campaign_sweep(bool smoke) {
    fleet::SweepBuilder builder;
    builder.variants({app::SystemVariant::MonolithicHw,
                      app::SystemVariant::ReconfiguredHw})
        .ports({fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated})
        .campaign_seed(2008);
    if (smoke) {
        builder.parts({fabric::PartName::XC3S200, fabric::PartName::XC3S400})
            .noise_levels({1e-3, 2e-3})
            .cycles(160);
    } else {
        builder.parts({fabric::PartName::XC3S200, fabric::PartName::XC3S400,
                       fabric::PartName::XC3S1000})
            .noise_levels({1e-3, 2e-3, 5e-3, 1e-2})
            .cycles(240);
    }
    return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const int rounds = args.smoke ? kSmokeRounds : kFullRounds;
    benchkit::Report report("fleet_campaign", args, rounds);
    benchkit::print_header("Fleet",
                           std::string("campaign throughput vs worker threads") +
                               (args.smoke ? " [smoke]" : ""));

    const std::vector<fleet::Scenario> sweep = campaign_sweep(args.smoke);
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;
    std::vector<int> thread_counts{1, 2, 4};
    if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
        thread_counts.end())
        thread_counts.push_back(hw);

    std::string serial_json;  // the warm-up round's 1-thread report
    bool identical = true;
    const std::vector<benchkit::Timing> wall =
        benchkit::interleave(thread_counts.size(), rounds, [&](std::size_t v) {
            const double t0 = benchkit::wall_ms();
            const fleet::CampaignResult result =
                fleet::CampaignRunner(thread_counts[v]).run(sweep);
            const double ms = benchkit::wall_ms() - t0;
            const std::string json = fleet::CampaignReport::from(result).render_json();
            if (serial_json.empty()) serial_json = json;
            identical = identical && json == serial_json;
            return ms;
        });

    const auto speedup = [&](std::size_t v) { return wall[0].median / wall[v].median; };
    benchkit::ReportTable& table =
        report.table("threads", {{"threads", "threads"},
                                 {"wall_ms", "wall (ms)", 1},
                                 {"scenarios_per_s", "scenarios/sec", 2},
                                 {"speedup_vs_1", "speedup vs 1", 2, "x"}});
    for (std::size_t v = 0; v < thread_counts.size(); ++v)
        table.row({thread_counts[v], wall[v],
                   static_cast<double>(sweep.size()) / (wall[v].median * 1e-3),
                   speedup(v)});
    std::cout << table.render();
    std::cout << "hardware concurrency: " << hw << " (speedup is bounded by "
              << "physical cores; 4-thread target >=1.5x needs >=2 cores)\n";
    std::cout << "serial vs parallel report byte-identical: "
              << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

    report.fact("scenarios", sweep.size());
    report.fact("hardware_concurrency", hw);
    report.check("report identity", identical);
    // The timing gate needs a second core to mean anything, and smoke mode
    // keeps it off so loaded CI machines do not decide it.
    report.gate("4-thread speedup", speedup(2), benchkit::Op::AtLeast, 1.5,
                !args.smoke && hw >= 2);
    return report.finish();
}
