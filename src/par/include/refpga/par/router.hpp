// Routing over the wire-type channel model.
//
// Each driver->sink connection is decomposed into interconnect segments
// (direct/double/hex/long) along an L-shaped path. The cost mode picks the
// trade-off: Performance reaches far per hop (long/hex lines, fewer switch
// delays, more capacitance); LowPower composes short segments (more hops,
// less switched capacitance). Channel occupancy per tile and wire type is
// tracked so congestion forces fallbacks, and §4.3-style re-routing of a
// single net is supported.
//
// One decision loop routes every connection; it reads and writes channel
// occupancy through a small policy, so live routing (the usage grid), the
// full trial route (usage grid + a per-thread RouteScratch) and the
// candidate re-route below all pick segments identically.
//
// §4.3 candidate moves are costed in two passes. trial_reference routes the
// affected nets once with the moved slice at its own site and records every
// connection: endpoints, capacitance, occupied tiles, and a per-tile timeline
// from which R_j(t), the reference occupancy of tile t before connection j,
// is read. trial_candidate then walks the same connections in the same order
// for a candidate site, keeping D = candidate - reference occupancy. A
// connection is reused (its recorded capacitance copied) unless an endpoint
// sits in the moved slice or some tile on its L-path -- row from.y over
// [from.x, to.x), then column to.x over [from.y, to.y) -- changes fullness:
// (usage + R_j >= cap) != (usage + R_j + D >= cap). This is exact: a
// connection's segment choices read nothing but the fullness of its own
// L-path tiles (segments never pass the leg's end, and it never reads a tile
// it occupied itself), so with the same endpoints and the same fullness it
// picks the same segments, adds the same occupancy to both sides and leaves
// D unchanged. Any other connection is re-routed against usage + R_j + D.
// Per-net capacitances are summed in the same order, so every candidate's
// result is bitwise that of a full trial route at its site, which in turn
// equals a live sequential re-route. Fullness flips are tracked per diff
// tile and indexed by row and column, and a tile's flag is refreshed only
// when D changes there or the timeline passes one of its connections, so
// the reuse check costs O(1) for a connection whose row and column hold no
// flipped tile.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "refpga/fabric/wire.hpp"
#include "refpga/par/placement.hpp"

namespace refpga::par {

enum class RouteMode { Performance, LowPower };

struct RouteSegment {
    fabric::WireType type;
    int x = 0;            ///< start tile
    int y = 0;
    bool horizontal = true;
    int step = 1;         ///< +1 or -1 direction along the axis
};

/// Route of one driver->sink connection.
struct SinkRoute {
    netlist::PinRef sink;
    std::vector<RouteSegment> segments;
    double capacitance_pf = 0.0;
    double delay_ps = 0.0;
};

struct NetRoute {
    bool routed = false;
    std::vector<SinkRoute> sinks;

    [[nodiscard]] double capacitance_pf() const {
        double c = 0.0;
        for (const auto& s : sinks) c += s.capacitance_pf;
        return c;
    }
    [[nodiscard]] double max_delay_ps() const {
        double d = 0.0;
        for (const auto& s : sinks) d = d > s.delay_ps ? d : s.delay_ps;
        return d;
    }
};

/// Per-tile, per-wire-type channel capacities (both axes pooled).
struct ChannelCapacity {
    int direct = 8;
    int double_ = 8;
    int hex = 4;
    int long_ = 1;

    /// Capacity for a wire type; throws ContractViolation on an out-of-enum
    /// value (a silent 0 here would masquerade as full channels and bury
    /// congestion bugs).
    [[nodiscard]] int of(fabric::WireType t) const;
};

/// One full trial route of a list of nets, recorded connection by
/// connection for candidate trials to reuse (see RoutedDesign::
/// trial_reference). Holds, in routing order, each connection's endpoints,
/// capacitance, the channel tiles it occupied and whether an endpoint lies
/// in the moved slice, plus a per-tile timeline: the connections that
/// occupied each tile, ascending. Read-only once built, so candidate trials
/// on several threads may share one.
class TrialReference {
public:
    /// Routed capacitance per net, in the order the nets were given.
    [[nodiscard]] std::span<const double> net_capacitance_pf() const {
        return net_capacitance_pf_;
    }
    /// Connections with an endpoint in the moved slice; a candidate trial
    /// re-routes every one of them.
    [[nodiscard]] std::size_t moved_connection_count() const;

private:
    friend class RoutedDesign;

    struct Connection {
        int from_x = 0;
        int from_y = 0;
        int to_x = 0;
        int to_y = 0;
        double capacitance_pf = 0.0;
        bool driver_moves = false;  ///< driver cell sits in the moved slice
        bool sink_moves = false;    ///< sink cell sits in the moved slice
    };

    /// Reference occupancy of `tile` before connection `conn` (R_j(t)).
    [[nodiscard]] int occupancy_before(std::size_t tile, std::uint32_t conn) const;

    RouteMode mode_ = RouteMode::LowPower;
    std::vector<double> net_capacitance_pf_;
    std::vector<std::uint32_t> net_conn_begin_;   ///< per net + 1, into conns_
    std::vector<Connection> conns_;
    std::vector<std::uint32_t> conn_tile_begin_;  ///< per connection + 1
    std::vector<std::uint32_t> conn_tiles_;       ///< occupied tile indices
    std::vector<std::uint32_t> tile_conn_begin_;  ///< per grid tile + 1
    std::vector<std::uint32_t> tile_conns_;       ///< timeline, ascending per tile
};

/// Per-thread trial state: a full trial's own occupancy, or a candidate
/// trial's diff D (candidate minus reference) with the index of diff tiles
/// whose fullness it flips. Reusable across trials; give each evaluating
/// thread its own instance.
class RouteScratch {
public:
    RouteScratch() = default;

    /// Connections walked by candidate trials, and how many of them were
    /// re-routed rather than reused.
    struct Tally {
        long connections = 0;
        long rerouted = 0;
    };
    /// Returns the tally since the last call and restarts it.
    Tally take_tally() { return std::exchange(tally_, Tally{}); }

private:
    friend class RoutedDesign;

    std::vector<int> delta_;            ///< same layout as the live usage grid
    std::vector<std::size_t> touched_;  ///< tiles whose delta_ was written
    /// Per tile: bit 0 tracked (listed in touched_), bit 1 fullness flipped.
    std::vector<std::uint8_t> state_;
    std::vector<std::uint32_t> timeline_pos_;  ///< tracked tile's next timeline entry
    std::vector<std::int32_t> wake_next_;      ///< per-tile link of wake_head_'s lists
    std::vector<std::int32_t> wake_head_;      ///< per connection + 1
    std::vector<std::vector<std::uint32_t>> row_flips_;  ///< flipped tiles per row
    std::vector<std::vector<std::uint32_t>> col_flips_;  ///< flipped tiles per column
    std::vector<std::uint32_t> route_tiles_;   ///< tiles of the connection being re-routed
    std::vector<double> net_capacitance_pf_;   ///< last candidate trial's result
    Tally tally_;
};

class RoutedDesign {
public:
    RoutedDesign(const Placement& placement, ChannelCapacity capacity);

    [[nodiscard]] const Placement& placement() const { return *placement_; }
    [[nodiscard]] const NetRoute& route(netlist::NetId net) const;
    [[nodiscard]] double total_capacitance_pf() const;
    /// Hops the live routing forces onto full channels; ripping a net up
    /// releases its share, so this always describes the current routing.
    [[nodiscard]] long overflow_count() const { return overflow_; }

    /// Routes every non-dedicated net. Previously routed nets are ripped up.
    void route_all(RouteMode mode);

    /// Rips up and re-routes one net (used by the power reallocator after
    /// moving its logic).
    void reroute_net(netlist::NetId net, RouteMode mode);

    /// Rips up one net's live route, releasing its channels. The §4.3 engine
    /// unroutes every net affected by a candidate slice move first, so all
    /// candidates are costed against the same base occupancy.
    void unroute_net(netlist::NetId net);

    /// Full trial route: routes `nets` in order, sinks in order, in `mode`
    /// as if slice `moved` sat at `moved_pos`, against the live usage grid
    /// plus the occupancy of the trial's own earlier connections -- the
    /// state a live sequential re-route of the same nets would see. The
    /// live grid is not touched. Records every connection into `out`; its
    /// per-net capacitances are those of that sequential re-route.
    void trial_reference(std::span<const netlist::NetId> nets, SliceId moved,
                         const fabric::SliceCoord& moved_pos, RouteMode mode,
                         TrialReference& out, RouteScratch& scratch) const;

    /// Candidate trial: per-net capacitances of `reference`'s nets with its
    /// moved slice at `moved_pos`, bitwise equal to a full trial_reference
    /// at that position; only the connections the move can change are
    /// re-routed (see the file comment). The view stays valid until
    /// `scratch`'s next trial. Thread-safe for concurrent calls with
    /// distinct scratches, provided no live routing mutates the design
    /// meanwhile.
    [[nodiscard]] std::span<const double> trial_candidate(
        const TrialReference& reference, const fabric::SliceCoord& moved_pos,
        RouteScratch& scratch) const;

    /// Pin connection delay added on top of segment delays, per connection.
    static constexpr double kPinDelayPs = 120.0;
    /// Driver output + sink input pin capacitance per connection (pF).
    static constexpr double kPinCapacitancePf = 0.35;

private:
    class CandidateTrial;

    void rip_up(netlist::NetId net);
    void route_net(netlist::NetId net, RouteMode mode);
    /// Routes one driver->sink connection L-shaped (row from.y to to.x, then
    /// column to.x to to.y), reading and writing channel occupancy through
    /// `occ` and handing every chosen segment to `emit`; returns the
    /// connection's capacitance. Live routing and both trial passes share
    /// this one decision loop.
    template <typename Occ, typename EmitSegment>
    double route_connection(int from_x, int from_y, int to_x, int to_y, RouteMode mode,
                            Occ& occ, EmitSegment&& emit) const;
    template <typename Occ, typename EmitSegment>
    void route_axis(int fixed, int begin, int end, bool horizontal, RouteMode mode,
                    Occ& occ, EmitSegment&& emit) const;
    /// Resets `scratch` for a trial on this design's grid (O(touched)).
    void clear_scratch(RouteScratch& scratch) const;

    const Placement* placement_;
    ChannelCapacity capacity_;
    std::vector<NetRoute> routes_;      ///< indexed by net id
    std::vector<int> usage_;            ///< [y][x][type]
    std::vector<long> net_overflow_;    ///< overflows of each net's live route
    long overflow_ = 0;
};

/// ASCII rendering of one net's route on the device grid (Figure 6 views).
[[nodiscard]] std::string render_route(const RoutedDesign& design, netlist::NetId net);

/// Dynamic power of a switched capacitance: P = 1/2 * C * Vdd^2 * f_toggle,
/// in microwatts (C in pF, f in transitions per second).
[[nodiscard]] inline double switch_power_uw(double c_pf, double toggle_hz, double vdd) {
    return 0.5 * c_pf * 1e-12 * vdd * vdd * toggle_hz * 1e6;
}

}  // namespace refpga::par
