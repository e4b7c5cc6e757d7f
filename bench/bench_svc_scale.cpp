// svc scaling — sharded campaign throughput vs worker processes.
//
// The process-level analogue of bench_fleet_campaign: the same job is run
// through svc::Coordinator with 1, 2 and 4 forked workers (batch 1, default
// sharding, stealing enabled) and scenarios/sec is reported against the
// single-worker run. The sweep is deliberately uniform-cost — one variant,
// one part, one port, N noise levels — so the speedup measures the service
// (fork + framing + commit + steal overhead), not scenario skew.
//
// Every worker count must render the byte-identical report to the
// single-process CampaignRunner; that parity gate always applies, smoke
// included. The worker counts run interleaved through the bench harness
// (one warm-up round, then kRounds rounds) and the 2-worker speedup gate
// (>= 1.8x) is a ratio of median wall times. It applies in smoke mode too,
// so the job is sized for the single-worker run to take about 0.9 s in
// smoke mode and 1.3 s in full mode on a 4-vCPU host: a run of a few tens
// of milliseconds times fork() and the scheduler, not the service. It is
// evaluated only on hosts with >= 2 cores, since process parallelism
// cannot beat the core count.
//
// Emits BENCH_svc_scale.json; --json echoes it. Exit status is non-zero on
// a parity violation or a failed speedup gate.
//
// --chaos switches to the recovery-overhead matrix instead: the same job
// runs clean and under each fault category (worker hang, mid-batch crash,
// torn frame, slow straggler) with the liveness layer armed, interleaved
// the same way. Every faulted run must still complete and render
// byte-identically to the single-process report — recovery cost is allowed
// to show up only as wall time, never as report drift. Emits
// BENCH_svc_chaos.json.
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/svc/coordinator.hpp"

namespace {

using namespace refpga;

constexpr int kRounds = 5;  // smoke mode too: its speedup gate is evaluated

/// Uniform-cost job: every scenario differs only in tank noise, so each
/// worker's share costs the same and the speedup reflects the service. A
/// scenario costs ~30 ms, and the end of a 2-worker run can wait about one
/// scenario on the slower worker; smoke mode's 32 scenarios keep that wait
/// near 6 % of the run (16 scenarios failed the gate in 2 of 10 runs).
svc::JobSpec scale_job(bool smoke) {
    svc::JobSpec spec;
    spec.variants = {app::SystemVariant::ReconfiguredHw};
    spec.parts = {fabric::PartName::XC3S200};
    spec.ports = {fleet::PortKind::Jcap};
    spec.noise_levels.clear();
    const int scenarios = smoke ? 32 : 48;
    for (int i = 0; i < scenarios; ++i)
        spec.noise_levels.push_back(1e-3 * (1.0 + 0.05 * i));
    spec.cycles = 240;
    spec.campaign_seed = 2008;
    return spec;
}

/// The liveness policy every chaos-matrix run (clean included) uses, so the
/// overhead column compares like with like.
svc::CoordinatorOptions chaos_base_options(const std::string& tag) {
    svc::CoordinatorOptions options;
    options.workers = 2;
    options.worker_threads = 1;
    options.batch = 1;
    options.spool_path = "BENCH_svc_chaos_" + tag + ".spool";
    options.heartbeat_interval_ms = 25;
    options.heartbeat_miss_limit = 2;
    options.liveness_timeout_ms = 150;
    options.restart_backoff_ms = 1;
    options.restart_backoff_cap_ms = 50;
    options.max_worker_restarts = 4;
    return options;
}

int run_chaos_matrix(const svc::JobSpec& spec, const std::string& reference_json,
                     const benchkit::Args& args) {
    struct Case {
        const char* name;
        void (*arm)(svc::CoordinatorOptions&);
    };
    const std::vector<Case> cases = {
        {"clean", [](svc::CoordinatorOptions&) {}},
        {"hang",
         [](svc::CoordinatorOptions& o) {
             o.chaos.hang_prob = 1.0;
             o.chaos.only_worker = 0;
         }},
        {"crash-mid-batch",
         [](svc::CoordinatorOptions& o) {
             o.chaos.crash_phase = svc::CrashPhase::MidBatch;
             o.chaos.crash_after = 1;
         }},
        {"torn-frame",
         [](svc::CoordinatorOptions& o) {
             o.chaos.torn_frame_prob = 1.0;
             o.chaos.only_worker = 0;
         }},
        {"slow-straggler",
         [](svc::CoordinatorOptions& o) {
             o.chaos.slow_batch_prob = 1.0;
             o.chaos.slow_ms = 60;
             o.chaos.only_worker = 0;
             o.steal_min = 1000;  // force the speculation path, not stealing
             o.straggler_factor = 2.0;
             o.straggler_min_ms = 40;
         }},
    };

    benchkit::Report report("svc_chaos", args, kRounds);
    std::vector<svc::CoordinatorResult> last(cases.size());  // recovery counts
    std::vector<std::string> verdict(cases.size(), "identical");
    const std::vector<benchkit::Timing> wall =
        benchkit::interleave(cases.size(), kRounds, [&](std::size_t v) {
            svc::CoordinatorOptions options = chaos_base_options(cases[v].name);
            options.chaos_seed = 2008;
            cases[v].arm(options);
            svc::Coordinator coordinator(spec, options);
            const double t0 = benchkit::wall_ms();
            last[v] = coordinator.run();
            const double ms = benchkit::wall_ms() - t0;
            if (!last[v].completed) verdict[v] = "INCOMPLETE";
            else if (coordinator.report().render_json() != reference_json &&
                     verdict[v] == "identical")
                verdict[v] = "DIFFERS";
            return ms;
        });

    bool all_ok = true;
    benchkit::ReportTable& table = report.table(
        "faults", {{"fault", "fault"},
                   {"wall_ms", "wall (ms)", 1},
                   {"overhead_vs_clean", "overhead", 2, "x"},
                   {"worker_restarts", "restarts"},
                   {"liveness_kills", "kills"},
                   {"speculations", "specs"},
                   {"duplicates_discarded", "dupes"},
                   {"protocol_errors", "proto errs"},
                   {"report", "report"}});
    for (std::size_t v = 0; v < cases.size(); ++v) {
        const svc::CoordinatorResult& r = last[v];
        all_ok = all_ok && verdict[v] == "identical";
        table.row({cases[v].name, wall[v], wall[v].median / wall[0].median,
                   r.worker_restarts, r.liveness_kills + r.deadline_kills,
                   r.speculations, r.duplicates_discarded, r.protocol_errors,
                   verdict[v]});
    }
    std::cout << table.render();
    std::cout << "all faulted runs byte-identical to single-process report: "
              << (all_ok ? "yes" : "NO — RECOVERY BUG") << "\n";

    report.fact("scenarios", spec.grid_size());
    report.check("fault runs complete with identical reports", all_ok);
    return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const bool chaos = args.has("--chaos");
    benchkit::print_header(
        chaos ? "svc chaos" : "svc scale",
        std::string(chaos ? "recovery overhead under injected faults"
                          : "sharded campaign vs worker processes") +
            (args.smoke ? " [smoke]" : ""));

    const svc::JobSpec spec = scale_job(args.smoke);
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;

    // Single-process reference: the byte-identity target for every worker
    // count, and a warm-up so the fork()ed children inherit paged-in code.
    fleet::CampaignOptions reference_options(1);
    reference_options.stream_block_ticks = spec.stream_block_ticks;
    const std::string reference_json =
        fleet::CampaignReport::from(
            fleet::CampaignRunner(reference_options).run(spec.expand()))
            .render_json();

    if (chaos) return run_chaos_matrix(spec, reference_json, args);

    benchkit::Report report("svc_scale", args, kRounds);
    const std::vector<int> worker_counts = {1, 2, 4};
    std::vector<std::uint64_t> stolen(worker_counts.size());  // last round
    bool parity_ok = true;
    const std::vector<benchkit::Timing> wall =
        benchkit::interleave(worker_counts.size(), kRounds, [&](std::size_t v) {
            svc::CoordinatorOptions options;
            options.workers = worker_counts[v];
            options.worker_threads = 1;
            options.batch = 1;
            options.spool_path =
                "BENCH_svc_scale_w" + std::to_string(worker_counts[v]) + ".spool";
            svc::Coordinator coordinator(spec, options);
            const double t0 = benchkit::wall_ms();
            const svc::CoordinatorResult result = coordinator.run();
            const double ms = benchkit::wall_ms() - t0;
            if (!result.completed)
                std::cerr << worker_counts[v]
                          << "-worker run did not complete: " << result.error << "\n";
            parity_ok = parity_ok && result.completed &&
                        coordinator.report().render_json() == reference_json;
            stolen[v] = result.shards_stolen;
            return ms;
        });

    const auto speedup = [&](std::size_t v) { return wall[0].median / wall[v].median; };
    benchkit::ReportTable& table =
        report.table("workers", {{"workers", "workers"},
                                 {"wall_ms", "wall (ms)", 1},
                                 {"scenarios_per_s", "scenarios/sec", 2},
                                 {"speedup_vs_1", "speedup vs 1", 2, "x"},
                                 {"shards_stolen", "stolen"}});
    for (std::size_t v = 0; v < worker_counts.size(); ++v)
        table.row({worker_counts[v], wall[v],
                   static_cast<double>(spec.grid_size()) / (wall[v].median * 1e-3),
                   speedup(v), stolen[v]});
    std::cout << table.render();
    std::cout << "hardware concurrency: " << hw << "\n";
    std::cout << "all worker counts byte-identical to single-process report: "
              << (parity_ok ? "yes" : "NO — DETERMINISM BUG") << "\n";

    report.fact("scenarios", spec.grid_size());
    report.fact("hardware_concurrency", hw);
    report.check("report identity", parity_ok);
    report.gate("2-worker speedup", speedup(1), benchkit::Op::AtLeast, 1.8, hw >= 2);
    return report.finish();
}
