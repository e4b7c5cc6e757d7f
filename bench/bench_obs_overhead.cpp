// Observability overhead gate: the refpga::obs contract is that compiled-in
// instrumentation is free until someone attaches an enabled recorder.
//
// Three configurations drive the same sinus-generator delta-sigma bit stream
// through FrontEnd::run_block_ds (the bench_frontend_stream hot path, block
// 4096):
//   bare     — no recorder attached (the seed baseline);
//   disabled — recorder attached but disabled (what every production build
//              pays for having the hooks compiled in);
//   enabled  — recorder attached and recording (the actual cost of metrics).
// The configurations run interleaved through the bench harness — one
// warm-up round, then a fixed number of rounds of bare, disabled, enabled, a fresh
// front end per run — so host drift hits all three alike. Throughput comes
// from the median processor time of the calling thread: the stream is
// single-threaded, and processor time does not count a shared host running
// someone else.
//
// The gate (full mode only; smoke workloads are too small to time reliably
// on loaded CI machines): disabled throughput must stay within 2% of bare.
// A second, non-gating section runs a few MeasurementSystem cycles with an
// enabled recorder and prints the harvest — the cycle/reconfig/frontend
// metric taxonomy documented in DESIGN.md.
//
// Emits BENCH_obs_overhead.json; --json echoes it.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/obs/obs.hpp"

namespace {

using namespace refpga;

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kBlockTicks = 4096;
// Full mode runs eleven rounds of 4 M ticks rather than five of 8 M: with
// five samples per configuration one slow stretch of a shared host could
// move the median past the 2 % gate (3 of 40 runs on a 4-vCPU host), with
// eleven it did not in 20 runs.
constexpr int kSmokeRounds = 3;
constexpr int kFullRounds = 11;

analog::FrontEnd make_frontend() {
    analog::FrontEndConfig config;
    config.tank.noise_rms_v = 0.0;  // pipeline-bound, like the headline gate
    analog::FrontEnd frontend(config, kSeed);
    frontend.tank().set_level(0.6);
    return frontend;
}

struct Config {
    std::string label;
    obs::Recorder* recorder = nullptr;  ///< nullptr = bare
    std::int64_t pcm_checksum = 0;      ///< must match across configurations
};

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const int rounds = args.smoke ? kSmokeRounds : kFullRounds;
    benchkit::Report report("obs_overhead", args, rounds);
    benchkit::print_header("obs overhead",
                           std::string("instrumentation cost on the streaming "
                                       "front end") +
                               (args.smoke ? " [smoke]" : ""));

    const std::size_t ticks = args.smoke ? 200'000 : 4'000'000;
    std::vector<std::uint8_t> drive(ticks);
    app::SinusGenModel sinusgen{app::AppParams{}};
    sinusgen.run_block_bits(ticks, drive.data());
    const std::size_t pcm_pairs =
        ticks / static_cast<std::size_t>(analog::FrontEndConfig{}.adc_decimation);
    report.fact("modulator_ticks", ticks);
    report.fact("pcm_pairs", pcm_pairs);

    obs::Recorder disabled_recorder(/*enabled=*/false);
    obs::Recorder enabled_recorder;
    std::vector<Config> configs = {{"bare (no recorder)", nullptr},
                                   {"attached, disabled", &disabled_recorder},
                                   {"attached, enabled", &enabled_recorder}};

    analog::SampleBlock out;
    const std::vector<benchkit::Timing> cpu =
        benchkit::interleave(configs.size(), rounds, [&](std::size_t v) {
            analog::FrontEnd frontend = make_frontend();
            if (configs[v].recorder != nullptr) frontend.set_recorder(configs[v].recorder);
            const double t0 = benchkit::thread_cpu_ms();
            out.clear_pcm();
            out.reserve_pcm(drive.size() / 5);
            for (std::size_t at = 0; at < drive.size();) {
                const std::size_t n = std::min<std::size_t>(kBlockTicks, drive.size() - at);
                frontend.run_block_ds({drive.data() + at, n}, out);
                at += n;
            }
            const double ms = benchkit::thread_cpu_ms() - t0;
            configs[v].pcm_checksum = 0;
            for (const std::int32_t x : out.meas) configs[v].pcm_checksum += x;
            for (const std::int32_t x : out.ref) configs[v].pcm_checksum -= x;
            return ms;
        });

    const bool parity_ok = configs[0].pcm_checksum == configs[1].pcm_checksum &&
                           configs[0].pcm_checksum == configs[2].pcm_checksum;
    const auto regression_pct = [&](std::size_t v) {
        return 100.0 * (1.0 - cpu[0].median / cpu[v].median);
    };

    benchkit::ReportTable& table =
        report.table("configurations", {{"configuration", "configuration"},
                                        {"cpu_ms", "CPU (ms)", 1},
                                        {"pcm_per_s", "PCM pairs/s", 0},
                                        {"regression_pct", "vs bare (%)", 2}});
    for (std::size_t v = 0; v < configs.size(); ++v)
        table.row({configs[v].label, cpu[v],
                   static_cast<double>(pcm_pairs) / (cpu[v].median * 1e-3),
                   regression_pct(v)});
    std::cout << table.render();
    std::cout << "PCM checksums identical across configurations: "
              << (parity_ok ? "yes" : "NO") << "\n";
    std::cout << "enabled-recorder harvest: "
              << enabled_recorder.metrics().value("frontend.ticks_total")
              << " ticks, "
              << enabled_recorder.metrics().value("frontend.blocks_total")
              << " blocks recorded\n";

    // Non-gating showcase: what an instrumented measurement cycle reports.
    {
        obs::Recorder recorder;
        app::SystemOptions options;
        options.recorder = &recorder;
        app::MeasurementSystem system(options, 11);
        system.set_true_level(0.5);
        for (int c = 0; c < 3; ++c) (void)system.run_cycle();
        std::cout << "\nthree instrumented measurement cycles:\n"
                  << recorder.metrics().render_text();
    }

    report.check("PCM parity", parity_ok);
    report.gate("disabled overhead (%)", regression_pct(1), benchkit::Op::AtMost, 2.0,
                !args.smoke);
    return report.finish();
}
