// Switching-activity extraction for the measurement system's netlists.
//
// One library home for the stimulus that every consumer of §4.3 activity
// uses (benches, campaigns, examples): drive the system's known ports with
// the deterministic reference pattern, run either simulation engine, and
// return per-net toggle rates. By default the rates come straight from the
// event engine's toggle counters; the full VCD round trip (post-PAR
// simulation -> dump -> parse) that mirrors the paper's XPower flow is the
// opt-in paper-fidelity path. The dual-engine parity contract
// (sim/engine.hpp) makes the result engine-independent, and on the system
// netlist both paths give the same ActivityMap bit for bit; the options only
// select how fast it is computed.
#pragma once

#include "refpga/netlist/netlist.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::app {

struct ActivityOptions {
    sim::EngineKind engine = sim::EngineKind::Event;
    int cycles = 256;
    /// false: read the engine's toggle counters directly. true: emit and
    /// parse a VCD of every net and derive rates from the dump, like XPower.
    /// The dump is sampled from t=0, before any input is driven, and after
    /// every cycle, so it sees every toggle the counters count as long as no
    /// net flips and flips back within one cycle — true of the system
    /// netlist, where both paths give the identical ActivityMap on either
    /// engine at a whole-picosecond clock period (test_sim pins it).
    bool via_vcd = false;
};

/// Stimulates `nl` for `opts.cycles` clock cycles with the deterministic
/// system pattern (tick_16mhz/adc_valid held, adc_meas/adc_ref driven from
/// Rng(2024); ports absent from the netlist are skipped, so this also works
/// for plain cores) and returns per-net activity at `clock_hz`.
[[nodiscard]] sim::ActivityMap system_activity(const netlist::Netlist& nl,
                                               double clock_hz,
                                               const ActivityOptions& opts = {});

}  // namespace refpga::app
