// Static timing analysis over a routed design.
//
// Arrival times propagate through the combinational cone from sequential
// outputs / input pads to sequential inputs / output pads using routed net
// delays plus cell delays. Fmax follows from the critical path. The power
// reallocator uses this to reject moves that would break the clock target
// ("Naturally the requirements on performance must be considered", §4.3).
//
// The analysis is one levelised pass per call: it counts each cell's
// incoming propagation edges (non-clock nets into cells that do not end a
// path), visits cells in Kahn order and relaxes every edge once, from the
// final arrival of its source. A cell's arrival is the maximum over its
// edges of (arrival + wire) + cell delay, so the result does not depend on
// the visiting order. A combinational loop leaves cells unvisited and
// throws ContractViolation, as netlist::SimGraph does.
#pragma once

#include <string>
#include <vector>

#include "refpga/par/router.hpp"

namespace refpga::par {

struct TimingReport {
    double critical_path_ps = 0.0;
    /// Cells on the critical path, launch to capture: one start cell (FF,
    /// BRAM, input pad or constant), combinational cells, one capture cell.
    std::vector<netlist::CellId> critical_cells;

    [[nodiscard]] double fmax_mhz() const {
        return critical_path_ps > 0.0 ? 1e6 / critical_path_ps : 0.0;
    }
};

/// Cell propagation delays (Spartan-3 -4 speed grade ballpark).
struct CellDelays {
    double lut_ps = 610.0;
    double mult_ps = 4800.0;
    double ff_clk_to_q_ps = 580.0;
    double bram_clk_to_q_ps = 2100.0;
    double ff_setup_ps = 520.0;
};

[[nodiscard]] TimingReport analyze_timing(const RoutedDesign& routed,
                                          const CellDelays& delays = {});

}  // namespace refpga::par
