// Activity-extraction engines head to head: cycle sweep vs event-driven.
//
// The workload is gated_channel_netlist — many identical CE-gated datapath
// channels behind a one-hot selector, so ~1/channels of the fabric toggles
// per cycle (the activity profile of the paper's clock-gated measurement
// design). The cycle engine pays for every cell every tick; the event engine
// pays only for cells whose inputs changed, which is where long activity
// extractions (§4.3 simulate -> VCD -> power) get their speedup.
//
// Every row is parity-gated before it is reported: identical per-net toggle
// counts, identical final state and probe value, and byte-identical VCD
// dumps between the engines (the dual-engine contract of sim/engine.hpp).
//
// A second table times the §4.3 activity stage itself: app::system_activity
// on the Table-2 system netlist for {cycle, event} x {counters, via VCD}.
// All four must return the bit-identical ActivityMap.
//
// Both tables run their variants interleaved through the bench harness (one
// warm-up round, then a fixed number of rounds) and report the median processor time
// of the calling thread: every stage here is single-threaded, and processor
// time does not count a shared host running someone else.
//
// Emits BENCH_sim_activity.json; --json echoes it. Exit status is non-zero
// on any parity violation (both modes) or, in full mode, when the
// headline-config speedup falls below the 10x target or the event engine's
// VCD round trip takes more than 1.5x its counter path (smoke workloads are
// too small to time reliably on loaded CI machines).
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/sim/engine.hpp"
#include "refpga/sim/random_netlist.hpp"
#include "refpga/sim/vcd.hpp"

namespace {

using namespace refpga;

constexpr double kTable2ClockHz = 50e6;
constexpr int kSmokeRounds = 3;
constexpr int kFullRounds = 5;

struct Config {
    int channels;
    int width;
    int depth;
    int cycles;
};

/// The shared stimulus program: mostly-idle input with an occasional new
/// "stim" word, driven identically into whichever engine runs. Returns the
/// run's processor time; the engine keeps its toggle/state tallies for
/// parity.
double drive(sim::SimEngine& sim, int cycles, std::uint64_t seed,
             std::uint64_t stim_mask) {
    Rng rng(seed);
    sim.set_input("stim", 0x2A5 & stim_mask);
    const double t0 = benchkit::thread_cpu_ms();
    for (int t = 1; t <= cycles; ++t) {
        if (t % 97 == 0) sim.set_input("stim", rng.next_u64() & stim_mask);
        sim.tick();
    }
    return benchkit::thread_cpu_ms() - t0;
}

/// Byte-compares full-netlist VCD dumps from both engines over a short run
/// (short because the dump itself, not simulation, dominates the cost).
bool vcd_bytes_identical(const netlist::Netlist& nl, int cycles,
                         std::uint64_t stim_mask) {
    std::vector<netlist::NetId> nets;
    nets.reserve(nl.net_count());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i)
        nets.push_back(netlist::NetId{i});

    std::string dumps[2];
    for (int which = 0; which < 2; ++which) {
        const auto engine = sim::make_engine(
            which == 0 ? sim::EngineKind::Cycle : sim::EngineKind::Event, nl);
        std::ostringstream os;
        sim::VcdWriter writer(os, *engine, nets);
        writer.sample(1);
        Rng rng(7);
        for (int t = 1; t <= cycles; ++t) {
            if (t % 13 == 0) engine->set_input("stim", rng.next_u64() & stim_mask);
            engine->tick();
            writer.sample(1 + std::int64_t{t} * 1000);
        }
        dumps[which] = os.str();
    }
    return dumps[0] == dumps[1];
}

/// Times both engines on one config (variant 0 cycle, 1 event), checks
/// every round's pair for parity, adds the table row and returns the
/// speedup.
double run_config(benchkit::ReportTable& table, const Config& config, int vcd_cycles,
                  int rounds, bool& parity_ok) {
    const netlist::Netlist nl =
        sim::gated_channel_netlist(config.channels, config.width, config.depth);
    const std::uint64_t stim_mask = (std::uint64_t{1} << config.width) - 1;

    std::unique_ptr<sim::SimEngine> cycle;  // this round's cycle-engine run
    double toggles_per_cycle = 0.0;
    bool row_ok = true;
    const std::vector<benchkit::Timing> cpu =
        benchkit::interleave(2, rounds, [&](std::size_t v) {
            auto engine = sim::make_engine(
                v == 0 ? sim::EngineKind::Cycle : sim::EngineKind::Event, nl);
            const double ms = drive(*engine, config.cycles, 2008, stim_mask);
            if (v == 0) {
                cycle = std::move(engine);
                return ms;
            }
            // The speedup row is meaningless unless the engines agree bit for
            // bit on what they simulated.
            std::int64_t total = 0;
            for (const std::int64_t t : cycle->toggle_counts()) total += t;
            toggles_per_cycle = static_cast<double>(total) / config.cycles;
            row_ok = row_ok && cycle->toggle_counts() == engine->toggle_counts() &&
                     cycle->get_port("probe") == engine->get_port("probe");
            for (std::uint32_t i = 0; row_ok && i < nl.net_count(); ++i)
                row_ok = cycle->net_value(netlist::NetId{i}) ==
                         engine->net_value(netlist::NetId{i});
            return ms;
        });
    const bool vcd_ok = vcd_bytes_identical(nl, vcd_cycles, stim_mask);
    if (!row_ok || !vcd_ok)
        std::cerr << "PARITY VIOLATION at channels=" << config.channels
                  << " width=" << config.width << " depth=" << config.depth
                  << (vcd_ok ? "" : " (VCD bytes)") << "\n";
    parity_ok = parity_ok && row_ok && vcd_ok;

    const double speedup = cpu[0].median / cpu[1].median;
    table.row({config.channels, config.width, config.depth, nl.cell_count(), config.cycles,
               cpu[0], cpu[1], speedup, toggles_per_cycle,
               toggles_per_cycle / static_cast<double>(nl.cell_count())});
    return speedup;
}

}  // namespace

int main(int argc, char** argv) {
    const benchkit::Args args(argc, argv);
    const int rounds = args.smoke ? kSmokeRounds : kFullRounds;
    benchkit::Report report("sim_activity", args, rounds);
    benchkit::print_header("sim activity",
                           std::string("event-driven vs cycle engine") +
                               (args.smoke ? " [smoke]" : ""));

    // The last config is the headline: large fabric, low activity factor.
    const std::vector<Config> configs =
        args.smoke ? std::vector<Config>{{64, 8, 2, 400}, {128, 12, 4, 200}}
                   : std::vector<Config>{
                         {64, 8, 2, 20000}, {128, 12, 4, 8000}, {256, 12, 4, 8000}};
    const int vcd_cycles = args.smoke ? 48 : 192;

    benchkit::ReportTable& table =
        report.table("configs", {{"channels", "channels"},
                                 {"width", "width"},
                                 {"depth", "depth"},
                                 {"cells", "cells"},
                                 {"cycles", "cycles"},
                                 {"cycle_cpu_ms", "cycle CPU (ms)", 1},
                                 {"event_cpu_ms", "event CPU (ms)", 1},
                                 {"speedup", "speedup", 1, "x"},
                                 {"toggles_per_cycle", "toggles/cycle", 1},
                                 {"activity_factor", "toggles/cell/cycle", 3}});
    bool parity_ok = true;
    double headline = 0.0;
    for (const Config& config : configs)
        headline = run_config(table, config, vcd_cycles, rounds, parity_ok);
    std::cout << table.render();
    std::cout << "engines bit-identical (toggles, state, VCD bytes): "
              << (parity_ok ? "yes" : "NO") << "\n";

    // The §4.3 activity stage on the Table-2 netlist.
    const app::SystemNetlist sys = app::build_system_netlist();
    const int stage_cycles = args.smoke ? 64 : 256;
    struct Variant {
        sim::EngineKind engine;
        bool via_vcd;
    };
    const std::vector<Variant> variants = {{sim::EngineKind::Cycle, false},
                                           {sim::EngineKind::Cycle, true},
                                           {sim::EngineKind::Event, false},
                                           {sim::EngineKind::Event, true}};
    std::vector<double> reference;
    bool maps_identical = true;
    const std::vector<benchkit::Timing> stage =
        benchkit::interleave(variants.size(), rounds, [&](std::size_t v) {
            app::ActivityOptions opts;
            opts.engine = variants[v].engine;
            opts.via_vcd = variants[v].via_vcd;
            opts.cycles = stage_cycles;
            const double t0 = benchkit::thread_cpu_ms();
            const sim::ActivityMap map = app::system_activity(sys.nl, kTable2ClockHz, opts);
            const double ms = benchkit::thread_cpu_ms() - t0;
            std::vector<double> rates(map.size());
            for (std::uint32_t i = 0; i < map.size(); ++i)
                rates[i] = map.rate_hz(netlist::NetId{i});
            if (reference.empty()) reference = rates;
            maps_identical = maps_identical && rates == reference;
            return ms;
        });
    benchkit::ReportTable& stage_table =
        report.table("table2_activity", {{"engine", "engine"},
                                         {"path", "path"},
                                         {"cpu_ms", "median CPU (ms)", 1}});
    for (std::size_t v = 0; v < variants.size(); ++v)
        stage_table.row({std::string(sim::engine_kind_name(variants[v].engine)),
                         variants[v].via_vcd ? "via VCD" : "counters", stage[v]});
    const double vcd_over_counters = stage[3].median / stage[2].median;
    std::cout << "\nTable-2 activity stage: system_activity on " << sys.nl.net_count()
              << " nets, " << stage_cycles << " cycles\n"
              << stage_table.render();
    std::cout << "event engine, via VCD / counters: " << Table::num(vcd_over_counters, 2)
              << "x\n";
    std::cout << "ActivityMap bit-identical across engines and paths: "
              << (maps_identical ? "yes" : "NO") << "\n";

    report.fact("table2_nets", sys.nl.net_count());
    report.fact("table2_cycles", stage_cycles);
    report.check("engine parity", parity_ok);
    report.check("ActivityMap identity", maps_identical);
    report.gate("headline speedup", headline, benchkit::Op::AtLeast, 10.0, !args.smoke);
    report.gate("event via-VCD / counters", vcd_over_counters, benchkit::Op::AtMost, 1.5,
                !args.smoke);
    return report.finish();
}
