// The benchmark's three closed-loop workloads. Each drives only public
// library calls; one job is what an engineer waits for: a full §4.3 flow or
// one campaign report.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace.hpp"

namespace perfbench {

enum class WorkloadKind { Table2Flow, CampaignFleet, CampaignSvc };
inline constexpr std::array<WorkloadKind, 3> kAllWorkloads = {
    WorkloadKind::Table2Flow, WorkloadKind::CampaignFleet, WorkloadKind::CampaignSvc};

[[nodiscard]] const char* workload_name(WorkloadKind kind);
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadKind parse_workload(const std::string& name);

struct WorkloadConfig {
    std::uint64_t seed = 1;
    /// Test size: a small netlist and grid that exercise the same layers.
    bool tiny = false;
    /// Working directory for the svc checkpoint journal and spool.
    std::string work_dir;
    /// Executable the svc coordinator re-executes as its workers.
    std::string worker_exe;
};

/// What one job leaves for the oracle and the failure count.
struct JobOutcome {
    /// Canonical rendering of the job's result; every job of a run on the
    /// same input must produce the same bytes.
    std::string report;
    long attempted = 0;  ///< flows or scenarios
    long failed = 0;     ///< thrown flows, failed or missing scenarios
    /// Non-empty when a gated invariant or a completion check is violated.
    std::string violation;
    /// Known defects the job shows: reported with every run, never gated.
    std::string known_defects;
};

/// Per-layer values of one traced job, keyed by metric name.
using Layers = std::map<std::string, double>;

class Workload {
public:
    virtual ~Workload() = default;
    /// How many distinct inputs the run's seed gives; a run cycles through
    /// them so that its median does not hang on one input's luck. Every job
    /// of one input produces the same report.
    [[nodiscard]] virtual int inputs() const { return 1; }
    /// Runs one job on input `input` (below inputs()). With a tracer, spans
    /// are recorded under `job` and the layer counts are written to
    /// `layers`; the job's root span is named after the workload, and work
    /// outside it (a second activity call, a direct variant_fit) belongs to
    /// the traced run only.
    virtual JobOutcome run_job(Tracer* tracer, int job, int input, Layers* layers) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(WorkloadKind kind,
                                                      const WorkloadConfig& config);

/// Empty when equal; otherwise the 1-based line number and both versions of
/// the first line that differs, each cut to a window around the first
/// differing byte.
[[nodiscard]] std::string first_difference(const std::string& expected,
                                           const std::string& actual);

}  // namespace perfbench
