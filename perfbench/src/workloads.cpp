#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "host.hpp"
#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/fabric/device.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/job.hpp"

namespace perfbench {
namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;
// Two threads or workers, not nproc: on a shared 4-vCPU host more spinning
// threads measure the scheduler rather than the program.
constexpr int kParallelism = 2;

template <typename F>
auto timed(Tracer* tracer, const char* name, int job, F&& f) {
    const Scope scope(tracer, name, job);
    return f();
}

// ---------------------------------------------------------------------------
// table2_flow: netlist -> pack -> place -> anneal -> route -> activity ->
// power -> reallocate, on the Table-2 design and part.

// The placer seed decides how congested the routing gets, and one seed's
// flow can cost a tenth more than another's. A run therefore cycles through
// kPlacerSeeds placer seeds derived from its own seed.
constexpr int kPlacerSeeds = 4;

class Table2Flow final : public Workload {
public:
    explicit Table2Flow(const WorkloadConfig& config) : seed_(config.seed) {
        if (config.tiny) {
            netlist_.include_soft_ip = false;
            part_ = fabric::PartName::XC3S400;
            effort_ = 0.02;
            activity_.cycles = 64;
        }
    }

    int inputs() const override { return kPlacerSeeds; }

    JobOutcome run_job(Tracer* tracer, int job, int input, Layers* layers) override {
        JobOutcome out;
        out.attempted = 1;
        try {
            run(tracer, job, placer_seed(input), layers, out);
        } catch (const std::exception& e) {
            out.failed = 1;
            out.report = std::string("flow threw: ") + e.what() + "\n";
        }
        return out;
    }

private:
    std::uint64_t placer_seed(int input) const {
        return seed_ * kPlacerSeeds + static_cast<std::uint64_t>(input);
    }

    void run(Tracer* tracer, int job, std::uint64_t placer_seed, Layers* layers,
             JobOutcome& out) const {
        std::optional<Scope> root;
        root.emplace(tracer, "table2_flow", job);
        const app::SystemNetlist sys = timed(tracer, "netlist.build", job, [&] {
            return app::build_system_netlist(netlist_);
        });
        const par::PackedDesign packed =
            timed(tracer, "par.pack", job, [&] { return par::pack(sys.nl); });
        const fabric::Device device(part_);
        par::Placement placement(device, sys.nl, packed);
        timed(tracer, "par.place_initial", job, [&] { placement.place_initial(); });
        par::PlacerOptions placer;
        placer.seed = placer_seed;
        placer.effort = effort_;
        const par::PlacerResult annealed =
            timed(tracer, "par.anneal", job, [&] { return par::anneal(placement, placer); });
        par::RoutedDesign routed(placement, par::ChannelCapacity{});
        timed(tracer, "par.route", job,
              [&] { routed.route_all(par::RouteMode::Performance); });
        const long overflow = routed.overflow_count();
        const double capacitance_pf = routed.total_capacitance_pf();
        const sim::ActivityMap activity = timed(tracer, "sim.activity", job, [&] {
            return app::system_activity(sys.nl, kClockHz, activity_);
        });
        const power::PowerReport power = timed(tracer, "power.estimate", job, [&] {
            return power::estimate_power(routed, activity, kClockHz);
        });
        std::optional<obs::Recorder> recorder;  // traced jobs only
        par::ReallocateOptions realloc;
        realloc.net_count = 8;
        realloc.threads = kParallelism;
        if (layers != nullptr) realloc.recorder = &recorder.emplace();
        const par::ReallocateReport report = timed(tracer, "par.realloc", job, [&] {
            return par::optimize_net_power(placement, routed, activity, realloc);
        });
        root.reset();

        out.report = render(power, report);
        out.violation = check_invariants(report, realloc.timing_slack);
        const std::vector<std::string> worse = nets_worse(report);
        std::ostringstream defects;
        defects << "par.route.overflow = " << overflow
                << " hops over channel capacity (illegal routing)\n";
        if (!worse.empty()) {
            defects << "paper per-net rule broken: " << worse.size() << " of "
                    << report.nets.size() << " optimised nets end above their start power:";
            for (const std::string& n : worse) defects << " " << n;
            defects << "\n";
        }
        out.known_defects = defects.str();
        if (layers == nullptr) return;

        // The counter path of the same activity call, outside the job: the
        // difference to sim.activity is the VCD round trip.
        app::ActivityOptions counters = activity_;
        counters.via_vcd = false;
        (void)timed(tracer, "sim.counters", job, [&] {
            return app::system_activity(sys.nl, kClockHz, counters);
        });

        Layers& l = *layers;
        l["par.anneal.moves_tried"] = static_cast<double>(annealed.moves_tried);
        l["par.anneal.moves_accepted"] = static_cast<double>(annealed.moves_accepted);
        l["par.anneal.final_cost"] = static_cast<double>(annealed.final_cost);
        l["par.route.overflow"] = static_cast<double>(overflow);
        l["par.route.capacitance_pf"] = capacitance_pf;
        l["power.total_mw"] = power.total_mw();
        l["par.realloc.candidates"] =
            recorder->metrics().value("realloc.candidates_evaluated_total");
        l["par.realloc.commits"] = recorder->metrics().value("realloc.moves_committed_total");
        l["par.realloc.nets_worse"] = static_cast<double>(worse.size());
        l["par.realloc.saving_uw"] = report.total_before_uw - report.total_after_uw;
        l["par.realloc.critical_ratio"] =
            report.critical_before_ps > 0.0 ? report.critical_after_ps / report.critical_before_ps
                                            : 0.0;
    }

    static std::string render(const power::PowerReport& power,
                              const par::ReallocateReport& report) {
        std::ostringstream os;
        os << std::setprecision(17);
        os << "power static_mw=" << power.static_mw << " clock_mw=" << power.clock_mw
           << " logic_mw=" << power.logic_mw << "\n";
        for (const power::NetPowerEntry& e : power.top_nets)
            os << "top_net " << e.name << " uw=" << e.power_uw << " pf=" << e.capacitance_pf
               << " hz=" << e.toggle_hz << "\n";
        os << "realloc total_uw " << report.total_before_uw << " -> " << report.total_after_uw
           << "\n"
           << "realloc critical_ps " << report.critical_before_ps << " -> "
           << report.critical_after_ps << "\n";
        for (const par::NetPowerChange& n : report.nets)
            os << "net " << n.name << " uw " << n.before_uw << " -> " << n.after_uw
               << (n.moved_logic ? " moved" : " rerouted") << "\n";
        return os.str();
    }

    // The paper's §4.3 acceptance rules that the reallocator guarantees,
    // re-checked on the final report.
    static std::string check_invariants(const par::ReallocateReport& report,
                                        double timing_slack) {
        std::ostringstream os;
        os << std::setprecision(17);
        if (report.total_after_uw > report.total_before_uw)
            os << "total power rose: " << report.total_before_uw << " -> "
               << report.total_after_uw << " uW\n";
        if (report.critical_after_ps > timing_slack * report.critical_before_ps)
            os << "critical path " << report.critical_before_ps << " -> "
               << report.critical_after_ps << " ps exceeds slack " << timing_slack << "\n";
        return os.str();
    }

    // The paper's per-net rule (no optimised net ends above its start power).
    // optimize_net_power re-routes each hot net in LowPower mode before it
    // gates any move, and on congested channels that re-route can cost more,
    // so the rule is counted and printed rather than gated.
    static std::vector<std::string> nets_worse(const par::ReallocateReport& report) {
        std::vector<std::string> names;
        for (const par::NetPowerChange& n : report.nets)
            if (n.after_uw > n.before_uw) names.push_back(n.name);
        return names;
    }

    std::uint64_t seed_;
    app::SystemNetlistOptions netlist_;
    fabric::PartName part_ = fabric::PartName::XC3S1000;
    double effort_ = 0.15;
    app::ActivityOptions activity_;  // library defaults, on purpose
};

// ---------------------------------------------------------------------------
// The campaign grid both campaign workloads run.

svc::JobSpec campaign_spec(const WorkloadConfig& config) {
    svc::JobSpec spec;
    if (config.tiny) {
        spec.variants = {app::SystemVariant::ReconfiguredHw};
        spec.parts = {fabric::PartName::XC3S400};
        spec.noise_levels = {0.0, 1e-3};
        spec.cycles = 2;
    } else {
        spec.variants = {app::SystemVariant::MonolithicHw, app::SystemVariant::ReconfiguredHw};
        spec.parts = {fabric::PartName::XC3S200, fabric::PartName::XC3S400,
                      fabric::PartName::XC3S1000};
        spec.noise_levels = {0.0, 1e-3, 5e-3};
        spec.cycles = 6;
    }
    spec.ports = {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated};
    // Zero noise takes the RNG-skip path; a non-zero upset rate exercises
    // scrubbing and repair.
    spec.upset_rates = {0.0, 0.2};
    spec.campaign_seed = config.seed;
    return spec;
}

class CampaignFleet final : public Workload {
public:
    explicit CampaignFleet(const WorkloadConfig& config)
        : spec_(campaign_spec(config)), scenarios_(spec_.expand()) {}

    JobOutcome run_job(Tracer* tracer, int job, int /*input*/, Layers* layers) override {
        std::optional<obs::Recorder> recorder;  // traced jobs only
        fleet::CampaignOptions options(kParallelism);
        options.stream_block_ticks = spec_.stream_block_ticks;
        std::int64_t ring_offset = 0;
        if (layers != nullptr) {
            options.recorder = &recorder.emplace();
            ring_offset = tracer->now_ns() - static_cast<std::int64_t>(recorder->trace().now_ns());
        }

        std::optional<Scope> root;
        root.emplace(tracer, "campaign_fleet", job);
        std::optional<Scope> run_span;
        run_span.emplace(tracer, "fleet.run", job);
        const int run_id = run_span->id();
        const auto t0 = std::chrono::steady_clock::now();
        const fleet::CampaignResult result = fleet::CampaignRunner(options).run(scenarios_);
        const double run_s = seconds_since(t0);
        run_span.reset();
        JobOutcome out;
        out.report = timed(tracer, "fleet.report", job,
                           [&] { return fleet::CampaignReport::from(result).render_json(); });
        root.reset();

        out.attempted = static_cast<long>(scenarios_.size());
        out.failed = static_cast<long>(result.failure_count());
        if (layers == nullptr) return out;

        // One job's worker-thread timeline is enough to read; every job's
        // would make the trace file tens of MB.
        if (!ring_imported_) tracer->import_ring(recorder->trace(), ring_offset, run_id, job);
        ring_imported_ = true;
        // variant_fit runs inside CampaignRunner::run once per variant; time
        // it directly, outside the job, to size that share.
        for (const app::SystemVariant v : spec_.variants)
            (void)timed(tracer, "fleet.variant_fit", job, [&] { return fleet::variant_fit(v); });

        const obs::MetricRegistry& m = recorder->metrics();
        const double scenario = m.value("campaign.scenario_wall_seconds");
        const double cycle = m.value("cycle.wall_seconds");
        const double sample = m.value("cycle.sample_wall_seconds");
        const double swap = m.value("cycle.module_swap_wall_seconds");
        Layers& l = *layers;
        // Worker-thread layers: self times summed over both threads.
        l["fleet.scenario_s"] = scenario - cycle;
        l["app.cycle_s"] = cycle;
        l["analog.sample_s"] = sample;
        l["reconfig.swap_s"] = swap;
        l["app.processing_s"] = cycle - sample - swap;
        l["fleet.busy_share"] = scenario / (kParallelism * run_s);
        l["analog.ticks"] = m.value("frontend.ticks_total");
        l["reconfig.loads"] = m.value("reconfig.loads_total");
        l["reconfig.retries"] = m.value("reconfig.load_retries_total");
        l["reconfig.bits_written"] = m.value("reconfig.bits_written_total");
        l["app.upsets_detected"] = m.value("cycle.upsets_detected_total");
        l["app.columns_repaired"] = m.value("cycle.columns_repaired_total");
        return out;
    }

private:
    svc::JobSpec spec_;
    std::vector<fleet::Scenario> scenarios_;
    bool ring_imported_ = false;
};

class CampaignSvc final : public Workload {
public:
    explicit CampaignSvc(const WorkloadConfig& config)
        : spec_(campaign_spec(config)), work_dir_(config.work_dir),
          worker_exe_(config.worker_exe) {}

    JobOutcome run_job(Tracer* tracer, int job, int /*input*/, Layers* layers) override {
        // campaignd's defaults: batch 8, heartbeats every second, re-exec'd
        // worker processes, a checkpoint journal.
        svc::CoordinatorOptions options;
        options.workers = kParallelism;
        options.batch = 8;
        options.heartbeat_interval_ms = 1000;
        options.restart_backoff_ms = 100;
        options.checkpoint_path = work_dir_ + "/campaign.ckpt";
        options.spool_path = work_dir_ + "/campaign.spool";
        options.launch = svc::CoordinatorOptions::Launch::Exec;
        options.exec_path = worker_exe_;

        JobOutcome out;
        svc::CoordinatorResult result;
        std::size_t committed = 0;
        std::size_t failures = 0;
        {
            const Scope root(tracer, "campaign_svc", job);
            std::optional<svc::Coordinator> coordinator;
            {
                const Scope run(tracer, "svc.run", job);
                coordinator.emplace(spec_, options);
                result = coordinator->run();
            }
            out.report = timed(tracer, "svc.report", job,
                               [&] { return coordinator->report().render_json(); });
            committed = coordinator->report().committed();
            failures = coordinator->report().failure_count();
        }

        const std::size_t grid = spec_.grid_size();
        out.attempted = static_cast<long>(grid);
        out.failed = static_cast<long>(failures + (grid - std::min(grid, committed)));
        if (!result.completed || result.partial)
            out.violation = "svc run ended " + std::string(result.partial ? "partial" : "incomplete") +
                            ": " + result.error + "\n";
        if (layers == nullptr) return out;

        Layers& l = *layers;
        l["svc.shards_dispatched"] = static_cast<double>(result.shards_dispatched);
        l["svc.shards_stolen"] = static_cast<double>(result.shards_stolen);
        l["svc.checkpoint_records"] = static_cast<double>(result.checkpoint_records);
        l["svc.max_retained_rows"] = static_cast<double>(result.max_retained_rows);
        l["svc.worker_restarts"] = static_cast<double>(result.worker_restarts);
        l["svc.protocol_errors"] = static_cast<double>(result.protocol_errors);
        l["svc.worker_peak_rss_mb"] = children_peak_rss_mb();
        return out;
    }

private:
    svc::JobSpec spec_;
    std::string work_dir_;
    std::string worker_exe_;
};

}  // namespace

const char* workload_name(WorkloadKind kind) {
    switch (kind) {
        case WorkloadKind::Table2Flow: return "table2_flow";
        case WorkloadKind::CampaignFleet: return "campaign_fleet";
        case WorkloadKind::CampaignSvc: return "campaign_svc";
    }
    return "?";
}

WorkloadKind parse_workload(const std::string& name) {
    for (const WorkloadKind k : kAllWorkloads)
        if (name == workload_name(k)) return k;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::unique_ptr<Workload> make_workload(WorkloadKind kind, const WorkloadConfig& config) {
    switch (kind) {
        case WorkloadKind::Table2Flow: return std::make_unique<Table2Flow>(config);
        case WorkloadKind::CampaignFleet: return std::make_unique<CampaignFleet>(config);
        case WorkloadKind::CampaignSvc: return std::make_unique<CampaignSvc>(config);
    }
    throw std::invalid_argument("unknown workload");
}

std::string first_difference(const std::string& expected, const std::string& actual) {
    if (expected == actual) return {};
    std::size_t line = 1;
    std::size_t line_start = 0;
    std::size_t i = 0;
    while (i < expected.size() && i < actual.size() && expected[i] == actual[i]) {
        if (expected[i] == '\n') {
            ++line;
            line_start = i + 1;
        }
        ++i;
    }
    // A window of the differing line around the first differing byte.
    const std::size_t from = std::max(line_start, i >= 60 ? i - 60 : 0);
    auto window = [&](const std::string& s) {
        if (from >= s.size()) return std::string("<end of report>");
        const std::size_t end = std::min(s.find('\n', from), from + 120);
        return s.substr(from, end - from);
    };
    std::ostringstream os;
    os << "first difference at line " << line << ", byte " << (i - line_start + 1) << "\n"
       << "  expected: " << window(expected) << "\n"
       << "  actual:   " << window(actual) << "\n";
    return os.str();
}

}  // namespace perfbench
