// Power-driven logic reallocation (the paper's §4.3 methodology).
//
// For the highest-power nets (activity x routed capacitance), try to move the
// net's driver/sink slices closer to the net's centroid and re-route the
// affected nets on low-capacitance wires. A move is committed only when
//   (1) the target net's power decreases,
//   (2) total dynamic power does not increase (the paper re-verified this
//       after every reallocation), and
//   (3) the critical path stays within the allowed slack.
// The paper performed this by hand in FPGA Editor and argued it "must be
// integrated in FPGA tools"; this is that integration.
//
// Two engines implement one set of semantics:
//   * Incremental (default): precomputed slice<->net adjacency (ReallocIndex
//     over netlist::CellNetIndex), scratch-route trial costing (no
//     occupy/undo churn on the live grid), cached per-net power
//     (NetPowerCache), and deterministic parallel candidate evaluation over
//     a ThreadPool. Per slice, one full trial at the slice's own site gives
//     the cost before any move and a connection-level record; each
//     candidate then re-routes only the connections the move can change
//     (those touching the moved slice, and those whose L-path crosses a
//     tile the move turns full or free) and copies the rest from the record
//     (RoutedDesign::trial_candidate). Its per-net capacitances are bitwise
//     those of a full re-route, so no decision changes.
//   * Reference: the retained naive path — per-call set builders, per-
//     candidate live re-route and undo, per-candidate baseline
//     recomputation — with byte-identical reports. It exists so tests and
//     benches can pin the incremental engine's output and speedup.
// Both engines gate timing the same way: one full analyze_timing after every
// chosen move, which is undone when the critical path exceeds the limit.
//
// Determinism contract: for a fixed input, the ReallocateReport is
// byte-identical across engines and across any thread count. Candidate
// gains are computed independently per (dy, dx, idx) window position, then
// reduced sequentially in window order (max gain, lowest coordinate wins
// ties), so the schedule can never reorder the arithmetic.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "refpga/netlist/adjacency.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

enum class ReallocEngine {
    Incremental,  ///< indexed, delta-costed, parallel (default)
    Reference,    ///< retained naive path; identical reports, naive cost
};

/// optimize_net_power throws ContractViolation unless timing_slack is finite
/// and >= 1, vdd is finite and > 0, radius >= 0 and threads >= 1.
struct ReallocateOptions {
    std::size_t net_count = 10;     ///< how many hot nets to optimize
    double vdd = 1.2;               ///< core voltage
    double timing_slack = 1.10;     ///< allowed critical-path growth factor
    int radius = 4;                 ///< move search radius around the centroid
    bool capture_routes = false;    ///< record ASCII route views (Figure 6)
    /// Nets with more sinks than this are skipped: their power is dominated
    /// by irreducible pin capacitance, so reallocation cannot help (the paper
    /// likewise picked moderate-fanout nets such as multiplier inputs).
    std::size_t max_fanout = 16;
    CellDelays delays;
    ReallocEngine engine = ReallocEngine::Incremental;
    /// Candidate-evaluation worker count (Incremental engine only). 1 keeps
    /// everything on the calling thread; results are identical either way.
    int threads = 1;
    /// Observability sink (refpga::obs). When set, optimize_net_power bumps
    /// realloc.{passes,nets_considered,candidates_evaluated,moves_committed,
    /// moves_rejected,timing_analyses}_total and observes the pass wall
    /// time. timing_analyses counts every full analyze_timing call: the
    /// initial and final ones and one gate check per chosen move, so it
    /// equals 2 + moves_committed + moves_rejected. The Incremental engine
    /// also counts realloc.trial_connections_total (connections walked by
    /// candidate trials) and realloc.trial_connections_rerouted_total (those
    /// re-routed rather than reused).
    /// Counters are recorded from the calling thread only: workers tally in
    /// their own RouteScratch, summed after each candidate batch; reports
    /// remain byte-identical whether or not a recorder is attached.
    /// Non-owning.
    obs::Recorder* recorder = nullptr;
};

/// Per-net outcome, one entry per optimized net (Table 2 rows).
struct NetPowerChange {
    netlist::NetId net;
    std::string name;
    double before_uw = 0.0;
    double after_uw = 0.0;
    bool moved_logic = false;  ///< a slice move was committed (vs re-route only)
    std::string route_before;  ///< when capture_routes
    std::string route_after;

    [[nodiscard]] double reduction_pct() const {
        return before_uw > 0.0 ? 100.0 * (before_uw - after_uw) / before_uw : 0.0;
    }

    friend bool operator==(const NetPowerChange&, const NetPowerChange&) = default;
};

struct ReallocateReport {
    std::vector<NetPowerChange> nets;
    double total_before_uw = 0.0;  ///< all-net dynamic power before
    double total_after_uw = 0.0;
    double critical_before_ps = 0.0;
    double critical_after_ps = 0.0;

    friend bool operator==(const ReallocateReport&, const ReallocateReport&) = default;
};

/// Optimizes `routed` (and the underlying placement) in place.
[[nodiscard]] ReallocateReport optimize_net_power(Placement& placement,
                                                  RoutedDesign& routed,
                                                  const sim::ActivityMap& activity,
                                                  const ReallocateOptions& options = {});

/// Dynamic power of one routed net at the given activity, in microwatts.
[[nodiscard]] double net_power_uw(const RoutedDesign& routed, netlist::NetId net,
                                  const sim::ActivityMap& activity, double vdd);

/// Precomputed slice<->net adjacency over one placement: which non-dedicated
/// nets touch a slice's cells (these must be re-routed when it moves) and
/// which slices participate in a net. Membership is position-independent, so
/// the index stays valid across moves; rebuild only when packing changes.
class ReallocIndex {
public:
    ReallocIndex(const Placement& placement, const netlist::CellNetIndex& cells);

    /// Non-dedicated nets incident to the slice's cells, sorted, unique.
    [[nodiscard]] std::span<const netlist::NetId> nets_of(SliceId slice) const;
    /// Slices holding the net's driver or sinks, sorted, unique.
    [[nodiscard]] std::span<const SliceId> slices_of(netlist::NetId net) const;

private:
    std::vector<std::uint32_t> slice_offsets_;
    std::vector<netlist::NetId> slice_nets_;
    std::vector<std::uint32_t> net_offsets_;
    std::vector<SliceId> net_slices_;
};

/// Per-net dynamic power cache. refresh() recomputes one net's entry from
/// its live route; only re-routed nets are ever touched. exact_total_uw()
/// sums the cached entries in net order — the same operation order a
/// from-scratch total uses — so reports stay byte-identical to the
/// Reference engine's.
class NetPowerCache {
public:
    NetPowerCache(const RoutedDesign& routed, const sim::ActivityMap& activity,
                  double vdd);

    [[nodiscard]] double net_uw(netlist::NetId net) const;
    void refresh(netlist::NetId net);
    [[nodiscard]] double exact_total_uw() const;

private:
    const RoutedDesign* routed_;
    const sim::ActivityMap* activity_;
    double vdd_;
    std::vector<double> net_uw_;
};

}  // namespace refpga::par
