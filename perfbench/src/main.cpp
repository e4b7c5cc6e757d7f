// refpga end-to-end benchmark.
//
//   perfbench --workload table2_flow|campaign_fleet|campaign_svc --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit TEXT] [--tiny]
//
// Each workload is a closed loop with one client: the next job starts when
// the previous one has finished. --trace 0 measures the end-to-end metrics
// untraced; --trace 1 records spans around every public call of a job and
// reports per-layer metrics instead. Every job's result is checked against
// the run's first job of the same input; a mismatch prints the first
// differing line and exits with status 1. End-to-end times are processor
// seconds, worker processes included; wall times are printed beside them.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --tiny shrinks every job and --flip-report-byte corrupts one job's report;
// both exist for perfbench/tests. --setup-probe is the child mode that times
// one set-up in a fresh process; --campaign-worker is the svc worker mode.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "host.hpp"
#include "refpga/svc/worker.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"job_cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricSpec> kPerLayer = {
    // table2_flow
    {"netlist.build_s", "s"},
    {"par.pack_s", "s"},
    {"par.place_initial_s", "s"},
    {"par.anneal_s", "s"},
    {"par.anneal.moves_tried", "count"},
    {"par.anneal.moves_accepted", "count"},
    {"par.anneal.final_cost", "tiles"},
    {"par.route_s", "s"},
    {"par.route.overflow", "count"},
    {"par.route.capacitance_pf", "pF"},
    {"sim.activity_s", "s"},
    {"sim.counters_s", "s"},
    {"power.estimate_s", "s"},
    {"power.total_mw", "mW"},
    {"par.realloc_s", "s"},
    {"par.realloc.candidates", "count"},
    {"par.realloc.commits", "count"},
    {"par.realloc.nets_worse", "count"},
    {"par.realloc.saving_uw", "uW"},
    {"par.realloc.critical_ratio", "ratio"},
    // campaign_fleet
    {"fleet.run_s", "s"},
    {"fleet.report_s", "s"},
    {"fleet.variant_fit_s", "s"},
    {"fleet.scenario_s", "s"},
    {"fleet.busy_share", "ratio"},
    {"app.cycle_s", "s"},
    {"analog.sample_s", "s"},
    {"app.processing_s", "s"},
    {"reconfig.swap_s", "s"},
    {"analog.ticks", "count"},
    {"reconfig.loads", "count"},
    {"reconfig.retries", "count"},
    {"reconfig.bits_written", "bits"},
    {"app.upsets_detected", "count"},
    {"app.columns_repaired", "count"},
    // campaign_svc
    {"svc.run_s", "s"},
    {"svc.report_s", "s"},
    {"svc.overhead_s", "s"},
    {"svc.shards_dispatched", "count"},
    {"svc.shards_stolen", "count"},
    {"svc.checkpoint_records", "count"},
    {"svc.max_retained_rows", "count"},
    {"svc.worker_restarts", "count"},
    {"svc.protocol_errors", "count"},
    {"svc.worker_peak_rss_mb", "MB"},
    // every workload
    {"bench.trace_overhead_s", "s"},
};

// Untraced runs set up several times (once here, the rest in fresh
// processes) and report the median, so a cold first use shows in setup_s.
// A table2_flow setup costs a whole flow, so it takes fewer samples.
int setup_samples(WorkloadKind kind) { return kind == WorkloadKind::Table2Flow ? 3 : 5; }
constexpr int kMinJobs = 3;

struct Args {
    WorkloadKind workload = WorkloadKind::Table2Flow;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool setup_probe = false;
    bool flip_report_byte = false;  ///< test hook: corrupt one job's report
    std::string out_dir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload table2_flow|campaign_fleet|campaign_svc "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit TEXT] "
                 "[--tiny]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = parse_workload(value());
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (arg == "--out-dir") {
                a.out_dir = value();
            } else if (arg == "--commit") {
                a.commit = value();
            } else if (arg == "--tiny") {
                a.tiny = true;
            } else if (arg == "--setup-probe") {
                a.setup_probe = true;
            } else if (arg == "--flip-report-byte") {
                a.flip_report_byte = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::invalid_argument& e) {
            usage(e.what());
        } catch (const std::out_of_range&) {
            usage("value out of range for " + arg);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-job values of a run, kept per input. estimate() is the mean over the
/// inputs of each input's median, so every input weighs alike however many
/// jobs it got.
class Samples {
public:
    void add(int input, double value) {
        const auto i = static_cast<std::size_t>(input);
        if (by_input_.size() <= i) by_input_.resize(i + 1);
        by_input_[i].push_back(value);
        all_.push_back(value);
    }
    [[nodiscard]] double estimate() const {
        double sum = 0.0;
        int n = 0;
        for (const std::vector<double>& v : by_input_)
            if (!v.empty()) {
                sum += median(v);
                ++n;
            }
        return n > 0 ? sum / n : 0.0;
    }
    [[nodiscard]] const std::vector<double>& all() const { return all_; }

private:
    std::vector<std::vector<double>> by_input_;
    std::vector<double> all_;
};

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string fixed(double v, int digits) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << v;
    return os.str();
}

const char* tail_prefix(WorkloadKind kind) {
    switch (kind) {
        case WorkloadKind::Table2Flow: return "flow";
        case WorkloadKind::CampaignFleet: return "fleet";
        case WorkloadKind::CampaignSvc: return "svc";
    }
    return "?";
}

/// Highest whole percentile with at least ten samples above it (nearest
/// rank); ungated, printed for the record.
std::string tail_line(WorkloadKind kind, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::ostringstream os;
    os << tail_prefix(kind) << ".job_tail_s: ";
    if (n < 11) {
        os << "n/a (n=" << n << ", fewer than 11 jobs)";
        return os.str();
    }
    const int p = static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                              static_cast<double>(n)));
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    os << "p" << p << " = " << fixed(v[std::max<std::size_t>(rank, 1) - 1], 4)
       << " s (n=" << n << ")";
    return os.str();
}

void print_header(const Args& a) {
    std::cout << "perfbench: workload=" << workload_name(a.workload) << " seed=" << a.seed
              << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
              << (a.tiny ? " tiny" : "") << "\n"
              << "host: " << host_fingerprint() << " commit=" << a.commit << "\n";
}

void print_known_defects(const JobOutcome& o) {
    std::istringstream lines(o.known_defects);
    for (std::string line; std::getline(lines, line);)
        std::cout << "known defect (reported, not gated): " << line << "\n";
}

void print_probe(const char* when, const ProbeResult& r) {
    std::cout << "probe." << when << ": 1 thread " << fixed(r.one_thread_ms, 2)
              << " ms, 2 threads " << fixed(r.two_threads_ms, 2) << " ms, capacity "
              << fixed(r.capacity(), 2) << "\n";
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i > 0 ? ", " : "") << "\"" << metrics[i].first.name
           << "\": {\"value\": " << num(metrics[i].second) << ", \"unit\": \""
           << metrics[i].first.unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

/// Operations attempted and failed over a whole run.
struct Tally {
    long attempted = 0;
    long failed = 0;
};

/// Runs one job and compares it with the run's first job of the same input.
/// Prints what broke and returns false on a mismatch or a violated invariant.
class Checked {
public:
    /// `reference` is the report of the set-up job, which ran input 0.
    Checked(WorkloadKind kind, Workload& workload, std::string reference, Tally& tally,
            bool flip = false)
        : kind_(kind), workload_(workload), references_(workload.inputs()), tally_(tally),
          flip_(flip) {
        references_[0] = std::move(reference);
    }

    /// Sets `*wall_s` and `*cpu_s` (processor time, worker processes
    /// included) to the job's cost when they are given.
    bool run(Tracer* tracer, int job, int input, Layers* layers, double* wall_s,
             double* cpu_s = nullptr) {
        const double cpu0 = cpu_seconds();
        const auto t0 = std::chrono::steady_clock::now();
        JobOutcome o = workload_.run_job(tracer, job, input, layers);
        if (wall_s != nullptr) *wall_s = seconds_since(t0);
        if (cpu_s != nullptr) *cpu_s = cpu_seconds() - cpu0;
        // The test hook corrupts the first report that has a reference to
        // be compared with.
        if (flip_ && references_[input].has_value() && !o.report.empty()) {
            o.report[o.report.size() / 2] ^= 0x01;
            flip_ = false;
        }
        return check(o, job, input);
    }

    /// Counts the job's operations and compares its report with the
    /// reference of its input; the first job of an input becomes it.
    bool check(const JobOutcome& o, int job, int input) {
        tally_.attempted += o.attempted;
        tally_.failed += o.failed;
        std::optional<std::string>& reference = references_[input];
        if (!reference.has_value()) reference = o.report;
        const std::string diff = first_difference(*reference, o.report);
        if (diff.empty() && o.violation.empty()) return true;
        std::cerr << "perfbench: oracle: " << workload_name(kind_) << " job " << job
                  << " (input " << input << ")";
        if (!o.violation.empty()) std::cerr << " violates an invariant:\n" << o.violation;
        if (!diff.empty()) std::cerr << " differs from the reference report:\n" << diff;
        return false;
    }

private:
    WorkloadKind kind_;
    Workload& workload_;
    std::vector<std::optional<std::string>> references_;
    Tally& tally_;
    bool flip_;
};

/// Removes the run's working directory on every exit path.
struct WorkDir {
    explicit WorkDir(const std::string& out_dir)
        : path(out_dir + "/work-" + std::to_string(::getpid())) {
        std::filesystem::create_directories(path);
    }
    ~WorkDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    WorkDir(const WorkDir&) = delete;
    WorkDir& operator=(const WorkDir&) = delete;
    std::string path;
};

WorkloadConfig config_for(const Args& a, const WorkDir& dir) {
    WorkloadConfig c;
    c.seed = a.seed;
    c.tiny = a.tiny;
    c.work_dir = dir.path;
    c.worker_exe = self_exe();
    return c;
}

struct Reference {
    std::unique_ptr<Workload> workload;
    JobOutcome first;
};

/// Builds a workload and runs its untimed first job, on input 0, which every
/// later job of that input is compared with.
Reference set_up(WorkloadKind kind, const WorkloadConfig& config) {
    Reference r{make_workload(kind, config), {}};
    r.first = r.workload->run_job(nullptr, 0, 0, nullptr);
    return r;
}

/// campaign_svc must render the very bytes campaign_fleet renders.
bool svc_matches_fleet(const std::string& fleet_report, const std::string& svc_report) {
    const std::string diff = first_difference(fleet_report, svc_report);
    if (diff.empty()) return true;
    std::cerr << "perfbench: oracle: campaign_svc report differs from campaign_fleet's:\n"
              << diff;
    return false;
}

/// Wall and processor time of one set-up, in seconds.
struct SetupCost {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

SetupCost timed_set_up(WorkloadKind kind, const WorkloadConfig& config, Reference& out) {
    const double cpu0 = cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    out = set_up(kind, config);
    return {seconds_since(t0), cpu_seconds() - cpu0};
}

int setup_probe(const Args& a) {
    const WorkDir dir(a.out_dir);
    Reference r;
    const SetupCost cost = timed_set_up(a.workload, config_for(a, dir), r);
    std::cout << num(cost.wall_s) << " " << num(cost.cpu_s) << "\n";
    return r.first.violation.empty() ? 0 : 1;
}

int untraced_run(const Args& a) {
    print_header(a);
    const WorkDir dir(a.out_dir);
    const WorkloadConfig config = config_for(a, dir);
    const ProbeResult before = spin_probe();

    Reference ref;
    std::vector<SetupCost> setups = {timed_set_up(a.workload, config, ref)};
    const double setup_rss_mb = peak_rss_mb();
    print_known_defects(ref.first);
    Tally tally;
    Checked checked(a.workload, *ref.workload, ref.first.report, tally, a.flip_report_byte);
    bool correct = checked.check(ref.first, 0, 0);
    if (correct && a.workload == WorkloadKind::CampaignSvc)
        correct = svc_matches_fleet(set_up(WorkloadKind::CampaignFleet, config).first.report,
                                    ref.first.report);

    for (int i = 1; correct && i < setup_samples(a.workload); ++i) {
        std::vector<std::string> argv = {config.worker_exe, "--setup-probe", "--workload",
                                         workload_name(a.workload), "--seed",
                                         std::to_string(a.seed), "--out-dir", a.out_dir};
        if (a.tiny) argv.push_back("--tiny");
        std::istringstream probe(run_child(argv));
        SetupCost cost;
        probe >> cost.wall_s >> cost.cpu_s;
        setups.push_back(cost);
    }

    // Jobs cycle through the inputs; every input runs at least twice, so
    // each is compared with its own first job.
    const int inputs = ref.workload->inputs();
    const int min_jobs = std::max(kMinJobs, 2 * inputs);
    Samples walls;
    Samples cpus;
    int jobs = 0;
    const auto loop_start = std::chrono::steady_clock::now();
    while (correct && (seconds_since(loop_start) < a.seconds || jobs < min_jobs)) {
        ++jobs;
        const int input = jobs % inputs;
        double wall = 0.0;
        double cpu = 0.0;
        correct = checked.run(nullptr, jobs, input, nullptr, &wall, &cpu);
        walls.add(input, wall);
        cpus.add(input, cpu);
    }
    const ProbeResult after = spin_probe();

    // Times are processor seconds: on a shared host, wall time also counts
    // the time other tenants hold this process's cores. peak_rss_mb is the
    // high-water mark of a process that has run one job; later jobs add
    // allocator fragmentation that varies with thread timing, so the
    // end-of-run mark is printed beside it rather than gated.
    std::vector<double> setup_wall;
    std::vector<double> setup_cpu;
    for (const SetupCost& s : setups) {
        setup_wall.push_back(s.wall_s);
        setup_cpu.push_back(s.cpu_s);
    }
    const std::vector<std::pair<MetricSpec, double>> metrics = {
        {kEndToEnd[0], cpus.estimate()}, {kEndToEnd[1], median(setup_cpu)},
        {kEndToEnd[2], setup_rss_mb}};
    for (const auto& [spec, value] : metrics)
        std::cout << "metric " << spec.name << " = " << num(value) << " " << spec.unit << "\n";
    std::cout << "metric failed_share = " << tally.failed << "/" << tally.attempted << " = "
              << num(static_cast<double>(tally.failed) / static_cast<double>(tally.attempted))
              << " ratio\n";
    std::cout << "wall time, not gated: job_s = " << num(walls.estimate()) << " s, setup_s = "
              << num(median(setup_wall)) << " s\n";
    const std::vector<double>& all = walls.all();
    std::cout << "jobs: " << all.size() << " over " << inputs << " input(s)";
    if (!all.empty())
        std::cout << ", wall min " << fixed(*std::min_element(all.begin(), all.end()), 4)
                  << " s, max " << fixed(*std::max_element(all.begin(), all.end()), 4) << " s";
    std::cout << "; setups (wall/cpu):";
    for (const SetupCost& s : setups) std::cout << " " << fixed(s.wall_s, 4) << "/" << fixed(s.cpu_s, 4);
    std::cout << " s; peak rss after all jobs " << fixed(peak_rss_mb(), 2) << " MB\n"
              << tail_line(a.workload, all) << "\n";
    print_probe("before", before);
    print_probe("after", after);
    print_result(correct, tally.attempted, tally.failed, metrics);
    return correct ? 0 : 1;
}

/// Thrown when a job fails the oracle; the message is already printed.
struct OracleFailure {};

/// Per-layer values of one traced job: the workload's own counts plus the
/// self time of every calling-thread span, per call. Sets `*traced_wall` to
/// the job's root span.
Layers traced_job(WorkloadKind kind, Checked& checked, Tracer& tracer, int job, int input,
                  double* traced_wall) {
    Layers layers;
    if (!checked.run(&tracer, job, input, &layers, nullptr)) throw OracleFailure{};
    for (const auto& [name, self] : tracer.self_seconds_by_name(job)) layers[name + "_s"] = self;
    for (const Span& s : tracer.spans())
        if (s.job == job && s.parent < 0 && s.name == workload_name(kind))
            *traced_wall = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    return layers;
}

/// A traced job of the named workload and the input it ran.
struct TracedJob {
    int job;
    int input;
};

void print_self_time_table(const Tracer& tracer, WorkloadKind kind,
                           const std::vector<TracedJob>& jobs, double untraced_s,
                           double traced_s) {
    // Self time per calling-thread span over the workload's traced jobs,
    // estimated like job_s; the root span's self time is the benchmark's own
    // glue. Spans outside the root (a second activity call, a direct
    // variant_fit) are listed after the sum.
    std::map<std::string, Samples> per_name;
    for (const TracedJob& j : jobs)
        for (const auto& [name, self] : tracer.self_seconds_by_name(j.job))
            per_name[name].add(j.input, self);
    // Rows in call order, as the spans of one job were opened.
    std::vector<std::string> order;
    std::map<std::string, bool> in_job;
    for (const Span& s : tracer.spans()) {
        if (s.thread != 0 || s.job != jobs.front().job || in_job.count(s.name) > 0) continue;
        order.push_back(s.name);
        in_job[s.name] = s.parent < 0 ? s.name == workload_name(kind)
                                      : tracer.span(s.parent).name == workload_name(kind);
    }
    auto row = [&](const std::string& name, double m) {
        std::cout << "  " << std::left << std::setw(24)
                  << (name == workload_name(kind) ? std::string("(job glue)") : name)
                  << std::right << std::setw(12) << fixed(m, 6) << " s  " << std::setw(6)
                  << fixed(traced_s > 0.0 ? 100.0 * m / traced_s : 0.0, 1) << " %\n";
    };
    std::cout << "self time per layer, " << workload_name(kind) << " (wall, median of "
              << jobs.size() << " traced jobs, calling thread):\n";
    double sum = 0.0;
    for (const std::string& name : order)
        if (in_job[name]) {
            const double m = per_name[name].estimate();
            sum += m;
            row(name, m);
        }
    std::cout << "  sum of median self times " << fixed(sum, 6) << " s; median traced job_s "
              << fixed(traced_s, 6) << " s; untraced job_s " << fixed(untraced_s, 6)
              << " s; tracing overhead " << fixed(traced_s - untraced_s, 6) << " s\n";
    bool header = false;
    for (const std::string& name : order)
        if (!in_job[name]) {
            if (!header) std::cout << "  outside the job, traced run only:\n";
            header = true;
            row(name, per_name[name].estimate());
        }
}

int traced_run(const Args& a) {
    print_header(a);
    const WorkDir dir(a.out_dir);
    const WorkloadConfig config = config_for(a, dir);
    const ProbeResult before = spin_probe();
    Tracer tracer;

    // Wall times: the traced run compares traced with untraced jobs of the
    // same inputs, run alternately on the same host.
    std::map<WorkloadKind, Samples> untraced;
    Samples traced;
    std::vector<Layers> own;
    std::vector<TracedJob> own_jobs;
    Layers merged;
    Tally tally;
    bool correct = true;
    try {
        Reference ref = set_up(a.workload, config);
        print_known_defects(ref.first);
        Checked checked(a.workload, *ref.workload, ref.first.report, tally,
                        a.flip_report_byte);
        if (!checked.check(ref.first, 0, 0)) throw OracleFailure{};
        // campaign_svc interleaves fleet jobs for svc.overhead_s.
        std::optional<Reference> fleet;
        std::optional<Checked> fleet_checked;
        if (a.workload == WorkloadKind::CampaignSvc) {
            fleet.emplace(set_up(WorkloadKind::CampaignFleet, config));
            if (!svc_matches_fleet(fleet->first.report, ref.first.report)) throw OracleFailure{};
            fleet_checked.emplace(WorkloadKind::CampaignFleet, *fleet->workload,
                                  fleet->first.report, tally);
        }

        int next_job = 1;
        double wall = 0.0;
        // Untraced and traced jobs alternate, so both see the same host, and
        // every input is traced at least once, so the per-layer counts
        // repeat exactly for a seed.
        const int inputs = ref.workload->inputs();
        const auto min_traced = static_cast<std::size_t>(std::max(2, inputs));
        const auto loop_start = std::chrono::steady_clock::now();
        for (int round = 0; seconds_since(loop_start) < a.seconds || own.size() < min_traced;
             ++round) {
            const int input = round % inputs;
            if (!checked.run(nullptr, next_job++, input, nullptr, &wall)) throw OracleFailure{};
            untraced[a.workload].add(input, wall);
            if (fleet_checked) {
                if (!fleet_checked->run(nullptr, next_job++, 0, nullptr, &wall))
                    throw OracleFailure{};
                untraced[WorkloadKind::CampaignFleet].add(0, wall);
            }
            own_jobs.push_back({next_job, input});
            own.push_back(traced_job(a.workload, checked, tracer, next_job++, input, &wall));
            traced.add(input, wall);
        }

        // One traced job of every other workload, so that every per-layer
        // metric is measured in every traced run.
        for (const WorkloadKind other : kAllWorkloads) {
            if (other == a.workload) continue;
            Reference r = set_up(other, config);
            Checked c(other, *r.workload, r.first.report, tally);
            if (!c.check(r.first, 0, 0)) throw OracleFailure{};
            for (const auto& [k, v] : traced_job(other, c, tracer, next_job++, 0, &wall))
                merged[k] = v;
            if (other != WorkloadKind::Table2Flow && untraced[other].all().empty()) {
                if (!c.run(nullptr, next_job++, 0, nullptr, &wall)) throw OracleFailure{};
                untraced[other].add(0, wall);
            }
        }

        for (const MetricSpec& spec : kPerLayer) {
            Samples values;
            for (std::size_t i = 0; i < own.size(); ++i)
                if (const auto it = own[i].find(spec.name); it != own[i].end())
                    values.add(own_jobs[i].input, it->second);
            if (!values.all().empty()) merged[spec.name] = values.estimate();
        }
        merged["svc.overhead_s"] = untraced[WorkloadKind::CampaignSvc].estimate() -
                                   untraced[WorkloadKind::CampaignFleet].estimate();
        merged["bench.trace_overhead_s"] = traced.estimate() - untraced[a.workload].estimate();
    } catch (const OracleFailure&) {
        correct = false;
    }

    std::vector<std::pair<MetricSpec, double>> metrics;
    if (correct) {
        print_self_time_table(tracer, a.workload, own_jobs, untraced[a.workload].estimate(),
                              traced.estimate());
        if (a.workload == WorkloadKind::CampaignFleet) {
            const double busy = merged["fleet.scenario_s"] + merged["app.processing_s"] +
                                merged["analog.sample_s"] + merged["reconfig.swap_s"];
            std::cout << "worker threads (summed over both): fleet.scenario_s + "
                         "app.processing_s + analog.sample_s + reconfig.swap_s = "
                      << fixed(busy, 6) << " s of " << fixed(2.0 * merged["fleet.run_s"], 6)
                      << " s (2 x fleet.run_s); busy share "
                      << fixed(merged["fleet.busy_share"], 3) << "\n";
        }
        for (const MetricSpec& spec : kPerLayer) {
            const auto it = merged.find(spec.name);
            if (it == merged.end())
                throw std::logic_error(std::string("per-layer metric not measured: ") +
                                       spec.name);
            metrics.emplace_back(spec, it->second);
            std::cout << "layer " << spec.name << " = " << num(it->second) << " " << spec.unit
                      << "\n";
        }
        const std::string trace_path = a.out_dir + "/trace-" + workload_name(a.workload) +
                                       "-seed" + std::to_string(a.seed) + ".json";
        std::ofstream(trace_path) << tracer.chrome_json();
        std::cout << "trace: " << tracer.spans().size() << " spans written to " << trace_path
                  << "\n";
    }
    print_probe("before", before);
    print_probe("after", spin_probe());
    print_result(correct, std::max(tally.attempted, 1L), tally.failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    // Worker mode: re-executed by the svc coordinator with the wire protocol
    // on fds 3 (in) and 4 (out).
    if (argc == 2 && std::string(argv[1]) == "--campaign-worker")
        return refpga::svc::worker_main(3, 4);
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    try {
        if (args.setup_probe) return perfbench::setup_probe(args);
        return args.trace ? perfbench::traced_run(args) : perfbench::untraced_run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
