// Block-streaming front end: throughput and cycle latency vs block size.
//
// The Fig. 4 sample window (256 PCM pairs at 3.2 MHz plus two settling
// windows, i.e. 3840 modulator ticks per cycle) is the hot loop of every
// cycle and every campaign scenario. This bench drives the same waveform
// through the retained per-sample path (the pre-streaming implementation),
// the per-sample API (block-of-1 wrappers) and run_block_ds at several block
// sizes, checks the PCM streams are bit-identical, and measures samples/s
// plus the end-to-end MeasurementSystem cycle latency vs stream_block_ticks.
//
// Two plant conditions are measured. With tank noise off the window is
// pipeline-bound and the fused kernel's speedup is the headline (and the 3x
// regression gate). With noise on, every tick must reproduce the reference
// path's two Irwin-Hall Gaussians — 24 serial xoshiro draws whose RNG-state
// recurrence dominates the tick regardless of batching — so the achievable
// speedup is bounded near the RNG floor and reported for context.
//
// Each path runs interleaved with the others through the bench harness (one
// warm-up round, then a fixed number of rounds, a fresh front end per run).
// Throughput comes from the median processor time of the calling thread:
// every path is single-threaded, and processor time does not count a shared
// host running someone else.
//
// Emits BENCH_frontend_stream.json; --json echoes it. Exit status is
// non-zero on a parity violation or (full mode) a noise-off speedup below
// the 3x target.
#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/sample_block.hpp"

namespace {

using namespace refpga;

constexpr std::uint64_t kSeed = 42;
constexpr int kSmokeRounds = 3;
constexpr int kFullRounds = 5;

analog::FrontEnd make_frontend(double noise_rms) {
    analog::FrontEndConfig config;
    config.tank.noise_rms_v = noise_rms;
    analog::FrontEnd frontend(config, kSeed);
    frontend.tank().set_level(0.6);
    return frontend;
}

using Drive = std::vector<std::uint8_t>;

/// One way of streaming the drive through a front end.
struct Path {
    std::string label;
    int block_ticks;  ///< 0 = reference path, 1 = per-sample API
    std::function<void(analog::FrontEnd&, const Drive&)> run;
};

/// Times every path under one plant condition and renders its table.
/// Returns the noise-off gate's quantity: best block throughput over the
/// reference path's.
double run_suite(benchkit::Report& report, const std::string& name, double noise_rms,
                 const Drive& drive, std::size_t pcm_pairs,
                 const std::vector<int>& block_sizes, int rounds, bool& parity_ok) {
    // Retained pre-streaming path (component-by-component steps): the
    // baseline the refactor's speedup is measured against, and the PCM every
    // block size must reproduce.
    analog::SampleBlock baseline_pcm;
    std::vector<Path> paths;
    paths.push_back({"per-sample (reference)", 0,
                     [&baseline_pcm](analog::FrontEnd& fe, const Drive& d) {
                         baseline_pcm.clear_pcm();
                         baseline_pcm.reserve_pcm(d.size() / 5);
                         for (const std::uint8_t bit : d)
                             if (const auto pcm = fe.step_ds_bit_reference(bit != 0)) {
                                 baseline_pcm.meas.push_back(pcm->meas);
                                 baseline_pcm.ref.push_back(pcm->ref);
                             }
                     }});
    // Per-sample public API: block-of-1 wrappers over the fused kernel.
    paths.push_back({"per-sample API (block of 1)", 1,
                     [](analog::FrontEnd& fe, const Drive& d) {
                         std::int64_t sink = 0;
                         for (const std::uint8_t bit : d)
                             if (const auto pcm = fe.step_ds_bit(bit != 0))
                                 sink += pcm->meas + pcm->ref;
                         if (sink == 0x7fffffff) std::cout << "";  // keep the loop live
                     }});
    // One output buffer per block size, kept across runs like the
    // reference's, so no run pays for growing it.
    std::vector<analog::SampleBlock> outs(block_sizes.size());
    for (std::size_t i = 0; i < block_sizes.size(); ++i)
        paths.push_back({"run_block " + std::to_string(block_sizes[i]), block_sizes[i],
                         [bs = block_sizes[i], &out = outs[i]](analog::FrontEnd& fe,
                                                               const Drive& d) {
                             out.clear_pcm();
                             out.reserve_pcm(d.size() / 5);
                             for (std::size_t at = 0; at < d.size();) {
                                 const std::size_t n = std::min<std::size_t>(
                                     static_cast<std::size_t>(bs), d.size() - at);
                                 fe.run_block_ds({d.data() + at, n}, out);
                                 at += n;
                             }
                         }});

    const std::vector<benchkit::Timing> cpu =
        benchkit::interleave(paths.size(), rounds, [&](std::size_t v) {
            analog::FrontEnd frontend = make_frontend(noise_rms);
            const double t0 = benchkit::thread_cpu_ms();
            paths[v].run(frontend, drive);
            const double ms = benchkit::thread_cpu_ms() - t0;
            // Block paths follow the reference in every round, so its PCM is
            // this round's.
            if (v >= 2 && (outs[v - 2].meas != baseline_pcm.meas ||
                           outs[v - 2].ref != baseline_pcm.ref)) {
                parity_ok = false;
                std::cerr << "PARITY VIOLATION at block size " << paths[v].block_ticks
                          << " (noise " << noise_rms << ")\n";
            }
            return ms;
        });

    const auto rate = [&](std::size_t v) {
        return static_cast<double>(pcm_pairs) / (cpu[v].median * 1e-3);
    };
    std::cout << "tank noise " << noise_rms << " V rms:\n";
    benchkit::ReportTable& table =
        report.table(name, {{"path", "path"},
                            {"block_ticks", "block ticks"},
                            {"cpu_ms", "CPU (ms)", 1},
                            {"pcm_per_s", "PCM pairs/s", 0},
                            {"speedup", "speedup", 1, "x"}});
    std::size_t best = 2;
    for (std::size_t v = 0; v < paths.size(); ++v) {
        table.row({paths[v].label, paths[v].block_ticks, cpu[v], rate(v),
                   rate(v) / rate(0)});
        if (v >= 2 && rate(v) > rate(best)) best = v;
    }
    std::cout << table.render();
    report.fact(name + "_best_block_ticks", paths[best].block_ticks);
    return rate(best) / rate(0);
}

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const int rounds = args.smoke ? kSmokeRounds : kFullRounds;
    benchkit::Report report("frontend_stream", args, rounds);
    benchkit::print_header("frontend stream",
                           std::string("block pipeline vs per-sample path") +
                               (args.smoke ? " [smoke]" : ""));

    // The drive is the real sinus generator's delta-sigma bit stream — the
    // same stimulus run_cycle feeds the front end (Fig. 4 sample window).
    const std::size_t ticks = args.smoke ? 200'000 : 8'000'000;
    Drive drive(ticks);
    app::SinusGenModel sinusgen{app::AppParams{}};
    sinusgen.run_block_bits(ticks, drive.data());
    const std::size_t pcm_pairs =
        ticks / static_cast<std::size_t>(analog::FrontEndConfig{}.adc_decimation);
    report.fact("modulator_ticks", ticks);
    report.fact("pcm_pairs", pcm_pairs);

    const std::vector<int> block_sizes = {16, 64, 256, 1024, 4096};
    bool parity_ok = true;
    const double quiet = run_suite(report, "noise_off", 0.0, drive, pcm_pairs, block_sizes,
                                   rounds, parity_ok);
    const double noisy = run_suite(report, "noise_on", 1e-3, drive, pcm_pairs, block_sizes,
                                   rounds, parity_ok);

    // End-to-end cycle latency (sampling + processing + reconfig) vs block
    // size — what a fleet campaign actually pays per cycle. Each run builds
    // a system and runs one untimed cycle (it grows the block buffers).
    const int cycles = args.smoke ? 3 : 20;
    const std::vector<int> cycle_settings = {0, 1, 256, 4096};
    const std::vector<benchkit::Timing> cycle_cpu =
        benchkit::interleave(cycle_settings.size(), rounds, [&](std::size_t v) {
            app::SystemOptions options;
            options.stream_block_ticks = cycle_settings[v];
            app::MeasurementSystem system(options, 11);
            system.set_true_level(0.5);
            (void)system.run_cycle();
            const double t0 = benchkit::thread_cpu_ms();
            for (int c = 0; c < cycles; ++c) (void)system.run_cycle();
            return (benchkit::thread_cpu_ms() - t0) / cycles;
        });
    benchkit::ReportTable& cycle_table = report.table(
        "cycle_latency", {{"stream_block_ticks", "stream_block_ticks (0 = reference)"},
                          {"cycle_cpu_ms", "cycle CPU (ms)", 2}});
    for (std::size_t v = 0; v < cycle_settings.size(); ++v)
        cycle_table.row({cycle_settings[v], cycle_cpu[v]});
    std::cout << cycle_table.render();
    std::cout << "noise-off: " << Table::num(quiet, 2) << "x vs per-sample reference\n";
    std::cout << "noise-on:  " << Table::num(noisy, 2)
              << "x vs per-sample reference (RNG-bound; draw order preserved)\n";
    std::cout << "PCM bit-identical across all block sizes: " << (parity_ok ? "yes" : "NO")
              << "\n";

    report.check("PCM parity", parity_ok);
    report.gate("noise-off speedup", quiet, benchkit::Op::AtLeast, 3.0, !args.smoke);
    return report.finish();
}
