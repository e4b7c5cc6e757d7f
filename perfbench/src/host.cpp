#include "host.hpp"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_spin_sink{0};

// Loop-carried xorshift: no vector or memory traffic, so it measures how
// much of a core the host gives this thread.
void spin(std::uint64_t iterations) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double wall_ms(std::uint64_t iterations, int threads) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(spin, iterations);
    spin(iterations);
    for (std::thread& th : pool) th.join();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

double median3(double a, double b, double c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

std::string host_fingerprint() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
    std::ostringstream os;
#if defined(__clang__)
    const char* compiler = "clang";
#elif defined(__GNUC__)
    const char* compiler = "gcc";
#else
    const char* compiler = "c++";
#endif
    os << "compiler=\"" << compiler << " " << __VERSION__ << "\" flags=\"" << PERFBENCH_CXX_FLAGS
       << "\" build=" << PERFBENCH_BUILD_TYPE
       << " nproc=" << std::thread::hardware_concurrency() << " affinity=" << affinity;
    return os.str();
}

ProbeResult spin_probe() {
    constexpr std::uint64_t kIterations = 12'000'000;
    ProbeResult r;
    r.one_thread_ms = median3(wall_ms(kIterations, 1), wall_ms(kIterations, 1),
                              wall_ms(kIterations, 1));
    r.two_threads_ms = median3(wall_ms(kIterations, 2), wall_ms(kIterations, 2),
                               wall_ms(kIterations, 2));
    return r;
}

double cpu_seconds() {
    auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage usage{};
        getrusage(who, &usage);
        total += seconds(usage.ru_utime) + seconds(usage.ru_stime);
    }
    return total;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double children_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string self_exe() {
    std::vector<char> buf(4096);
    const ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
    if (n <= 0) throw std::runtime_error("perfbench: cannot resolve /proc/self/exe");
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string run_child(const std::vector<std::string>& argv) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("perfbench: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("perfbench: cannot start " + argv[0]);
    }
    std::string out;
    char chunk[4096];
    for (;;) {
        const ssize_t n = read(fds[0], chunk, sizeof(chunk));
        if (n > 0) {
            out.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("perfbench: child " + argv[0] + " failed");
    return out;
}

}  // namespace perfbench
