// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around each public library call a job
// makes; nothing inside the library is changed. Every span carries its name,
// start, end, the span that caused it and the id of the job it belongs to.
// Spans stay in memory and are written once, as Chrome trace-event JSON,
// when the run ends. Worker-thread spans that the library itself records in
// an obs::TraceRing can be imported so one file shows the whole timeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "refpga/obs/obs.hpp"

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = -1;   ///< -1 while open
    int parent = -1;            ///< index of the causing span, -1 for a root
    int job = -1;
    int thread = 0;  ///< 0 = the benchmark's calling thread; >0 = imported
};

class Tracer {
public:
    Tracer();
    [[nodiscard]] std::int64_t now_ns() const;
    /// Opens a span on the calling thread, nested in the innermost open one.
    int open(std::string name, int job);
    void close(int id);
    /// Copies the ring's events into this trace, nested by time on their own
    /// threads; top-level ones are parented to `parent`. `ring_offset_ns` is
    /// this tracer's clock minus the ring's, sampled together.
    void import_ring(const refpga::obs::TraceRing& ring, std::int64_t ring_offset_ns,
                     int parent, int job);
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] const Span& span(int id) const { return spans_.at(id); }
    /// Self time per call of every calling-thread span of `job`, by name. A
    /// span's self time is its duration minus what its children on the same
    /// thread cover.
    [[nodiscard]] std::map<std::string, double> self_seconds_by_name(int job) const;
    [[nodiscard]] std::string chrome_json() const;

private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< stack of open calling-thread spans
};

/// RAII span; does nothing when the tracer is null (an untraced job).
class Scope {
public:
    Scope(Tracer* tracer, std::string name, int job)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->open(std::move(name), job) : -1) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
        if (tracer_ != nullptr) tracer_->close(id_);
    }
    [[nodiscard]] int id() const { return id_; }

private:
    Tracer* tracer_;
    int id_;
};

}  // namespace perfbench
