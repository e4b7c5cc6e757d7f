#include "refpga/par/timing.hpp"

#include <algorithm>

#include "refpga/common/contracts.hpp"

namespace refpga::par {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

TimingReport analyze_timing(const RoutedDesign& routed, const CellDelays& delays) {
    const auto& nl = routed.placement().nl();
    const std::size_t cell_count = nl.cell_count();

    auto cell_delay = [&](const Cell& c) {
        switch (c.kind) {
            case CellKind::Lut: return delays.lut_ps;
            case CellKind::Mult18: return delays.mult_ps;
            default: return 0.0;
        }
    };
    auto launch_delay = [&](const Cell& c) {
        switch (c.kind) {
            case CellKind::Ff: return delays.ff_clk_to_q_ps;
            case CellKind::Bram: return delays.bram_clk_to_q_ps;
            default: return 0.0;  // pads, constants
        }
    };
    auto starts_path = [](const Cell& c) {
        return c.sequential() || c.kind == CellKind::Inpad || c.kind == CellKind::Gnd ||
               c.kind == CellKind::Vcc;
    };
    auto ends_path = [](const Cell& c) {
        return c.sequential() || c.kind == CellKind::Outpad;
    };

    // Connection delay from a routed net to one sink. Routes keep sinks in
    // netlist order, so the indexed probe hits almost always; the scan is a
    // fallback for partially re-routed nets.
    auto sink_delay = [](const NetRoute& r, const netlist::PinRef& sink,
                         std::size_t sink_idx) {
        if (sink_idx < r.sinks.size() && r.sinks[sink_idx].sink == sink)
            return r.sinks[sink_idx].delay_ps;
        for (const auto& s : r.sinks)
            if (s.sink == sink) return s.delay_ps;
        return RoutedDesign::kPinDelayPs;  // unrouted/dedicated nets
    };

    // Propagation edges run from a cell's non-clock output nets into sinks
    // that do not end a path. Count each cell's incoming edges so the sweep
    // below can visit cells in Kahn order.
    std::vector<std::uint32_t> pending(cell_count, 0);
    for (const Cell& c : nl.cells())
        for (const NetId out : c.outputs) {
            if (!out.valid()) continue;
            const auto& n = nl.net(out);
            if (n.is_clock) continue;
            for (const auto& sink : n.sinks)
                if (!ends_path(nl.cell(sink.cell))) ++pending[sink.cell.value()];
        }

    // Arrival time at each cell output; -1 marks a cell no path reaches
    // (one fed only by undriven nets), which then propagates nothing.
    // `pred` records arrival predecessors only, so a walk back from the
    // capture cell stops at its launch cell.
    std::vector<double> arrival(cell_count, -1.0);
    std::vector<CellId> pred(cell_count, CellId{});
    std::vector<std::uint32_t> order;
    order.reserve(cell_count);
    for (std::uint32_t i = 0; i < cell_count; ++i) {
        const Cell& c = nl.cell(CellId{i});
        if (starts_path(c)) arrival[i] = launch_delay(c);
        if (pending[i] == 0) order.push_back(i);
    }

    // One sweep in topological order: every cell is visited after all of
    // its propagation predecessors, so each edge is relaxed exactly once,
    // from the final arrival of its source.
    double critical = 0.0;
    CellId critical_end;
    CellId critical_launch;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const std::uint32_t ci = order[head];
        const Cell& c = nl.cell(CellId{ci});
        const bool reached = starts_path(c) || arrival[ci] > -1.0;
        for (const NetId out : c.outputs) {
            if (!out.valid()) continue;
            const auto& n = nl.net(out);
            if (n.is_clock) continue;
            const NetRoute& r = routed.route(out);
            for (std::size_t si = 0; si < n.sinks.size(); ++si) {
                const auto& sink = n.sinks[si];
                const Cell& sc = nl.cell(sink.cell);
                if (ends_path(sc)) {
                    if (!reached) continue;
                    // Path endpoint: add setup for FFs.
                    const double total = arrival[ci] + sink_delay(r, sink, si) +
                                         (sc.kind == CellKind::Ff ? delays.ff_setup_ps : 0.0);
                    if (total > critical) {
                        critical = total;
                        critical_end = sink.cell;
                        critical_launch = CellId{ci};
                    }
                    continue;
                }
                const std::uint32_t sink_cell = sink.cell.value();
                if (reached) {
                    double t = arrival[ci] + sink_delay(r, sink, si);
                    t += cell_delay(sc);
                    if (t > arrival[sink_cell]) {
                        arrival[sink_cell] = t;
                        pred[sink_cell] = CellId{ci};
                    }
                }
                if (--pending[sink_cell] == 0) order.push_back(sink_cell);
            }
        }
    }
    // A cell left unvisited sits on or behind a combinational loop, which
    // no topological order (and no finite arrival time) exists for.
    REFPGA_EXPECTS(order.size() == cell_count);  // no combinational loop

    TimingReport report;
    report.critical_path_ps = critical;
    if (critical_end.valid()) {
        report.critical_cells.push_back(critical_end);
        for (CellId cur = critical_launch; cur.valid(); cur = pred[cur.value()])
            report.critical_cells.push_back(cur);
        std::reverse(report.critical_cells.begin(), report.critical_cells.end());
    }
    return report;
}

}  // namespace refpga::par
