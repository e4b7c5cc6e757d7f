// Host facts printed beside every run: build fingerprint, a calibrated spin
// probe, memory high-water marks and the helpers that start child processes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Compiler, flags, build type and CPU counts, on one line.
[[nodiscard]] std::string host_fingerprint();

/// Wall time of a fixed amount of integer work on 1 and on 2 threads. On an
/// idle host with two free cores, capacity() is close to 2; a throttled or
/// shared host shows as longer times or lower capacity. Metrics are never
/// divided by it.
struct ProbeResult {
    double one_thread_ms = 0.0;
    double two_threads_ms = 0.0;
    [[nodiscard]] double capacity() const {
        return two_threads_ms > 0.0 ? 2.0 * one_thread_ms / two_threads_ms : 0.0;
    }
};

/// Runs the probe: a fixed number of iterations per thread, the same in
/// every run, so readings compare across runs (about 30 ms on one thread of
/// the shared 4-vCPU x86-64 host the baselines were measured on).
[[nodiscard]] ProbeResult spin_probe();

[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Processor time, user plus system, of this process and of every child it
/// has reaped, in seconds. Unlike wall time it does not grow while the host
/// runs someone else's work on this process's cores.
[[nodiscard]] double cpu_seconds();

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// Peak resident set of the largest child process reaped so far, in MB.
[[nodiscard]] double children_peak_rss_mb();

/// Absolute path of the running executable.
[[nodiscard]] std::string self_exe();

/// Runs `argv` to completion and returns its standard output. Throws when it
/// cannot be started or exits with a non-zero status.
[[nodiscard]] std::string run_child(const std::vector<std::string>& argv);

}  // namespace perfbench
