#include "refpga/par/router.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <sstream>

#include "refpga/common/contracts.hpp"

namespace refpga::par {

using fabric::SliceCoord;
using fabric::WireType;
using fabric::wire_params;
using netlist::NetId;
using netlist::PinRef;

int ChannelCapacity::of(WireType t) const {
    switch (t) {
        case WireType::Direct: return direct;
        case WireType::Double: return double_;
        case WireType::Hex: return hex;
        case WireType::Long: return long_;
    }
    // A silent 0 would read as "channel full" and surface as phantom
    // congestion; fail loudly instead.
    detail::contract_fail("precondition", "WireType within enum", __FILE__, __LINE__);
}

RoutedDesign::RoutedDesign(const Placement& placement, ChannelCapacity capacity)
    : placement_(&placement), capacity_(capacity) {
    routes_.resize(placement.nl().net_count());
    net_overflow_.assign(placement.nl().net_count(), 0);
    usage_.assign(static_cast<std::size_t>(placement.device().rows()) *
                      placement.device().cols() * fabric::kWireTypeCount,
                  0);
}

const NetRoute& RoutedDesign::route(NetId net) const {
    REFPGA_EXPECTS(net.value() < routes_.size());
    return routes_[net.value()];
}

double RoutedDesign::total_capacitance_pf() const {
    double c = 0.0;
    for (const auto& r : routes_) c += r.capacitance_pf();
    return c;
}

namespace {

/// Calls f(idx) with the usage-grid index of each on-die tile of `seg`, in
/// order; stops and returns false as soon as f does. Tiles past the die
/// edge are clipped (they count as free).
template <typename F>
bool for_each_tile(const RouteSegment& seg, int cols, int rows, F&& f) {
    int x = seg.x;
    int y = seg.y;
    for (int i = 0; i < wire_params(seg.type).span; ++i) {
        if (x < 0 || x >= cols || y < 0 || y >= rows) return true;
        if (!f((static_cast<std::size_t>(y) * cols + x) * fabric::kWireTypeCount +
               static_cast<std::size_t>(seg.type)))
            return false;
        (seg.horizontal ? x : y) += seg.step;
    }
    return true;
}

/// Channel occupancy as route_axis reads it (`occupied`) and takes a track
/// (`occupy`), plus the segments it had to force onto a full channel. Live
/// routing reads and writes the usage grid; the trial passes layer their
/// own occupancy over it.
template <typename Read, typename Take>
struct Occupancy {
    Read occupied;
    Take occupy;
    long overflows = 0;
};
template <typename Read, typename Take>
Occupancy(Read, Take) -> Occupancy<Read, Take>;

}  // namespace

std::size_t TrialReference::moved_connection_count() const {
    return static_cast<std::size_t>(
        std::count_if(conns_.begin(), conns_.end(), [](const Connection& c) {
            return c.driver_moves || c.sink_moves;
        }));
}

int TrialReference::occupancy_before(std::size_t tile, std::uint32_t conn) const {
    const auto begin = tile_conns_.begin() + tile_conn_begin_[tile];
    const auto end = tile_conns_.begin() + tile_conn_begin_[tile + 1];
    return static_cast<int>(std::lower_bound(begin, end, conn) - begin);
}

template <typename Occ, typename EmitSegment>
void RoutedDesign::route_axis(int fixed, int begin, int end, bool horizontal,
                              RouteMode mode, Occ& occ,
                              EmitSegment&& emit) const {
    int pos = begin;
    const int step = end >= begin ? 1 : -1;
    int remaining = std::abs(end - begin);
    const int cols = placement_->device().cols();
    const int rows = placement_->device().rows();

    // Candidate order by mode: Performance reaches far first; LowPower sticks
    // to the lowest capacitance-per-tile wires.
    const std::array<WireType, 4> preference =
        mode == RouteMode::Performance
            ? std::array<WireType, 4>{WireType::Long, WireType::Hex,
                                      WireType::Double, WireType::Direct}
            : std::array<WireType, 4>{WireType::Direct, WireType::Double,
                                      WireType::Hex, WireType::Long};

    while (remaining > 0) {
        RouteSegment chosen;
        bool found = false;
        for (const WireType t : preference) {
            const int span = wire_params(t).span;
            if (span > remaining) continue;
            const RouteSegment seg{t, horizontal ? pos : fixed, horizontal ? fixed : pos,
                                   horizontal, step};
            const int cap = capacity_.of(t);
            if (!for_each_tile(seg, cols, rows,
                               [&](std::size_t idx) { return occ.occupied(idx) < cap; }))
                continue;
            chosen = seg;
            found = true;
            break;
        }
        if (!found) {
            // All fitting channels are full: take the mode's smallest wire
            // anyway and record the overflow (Pathfinder would negotiate;
            // a counted overflow keeps the model honest about congestion).
            const WireType t = WireType::Direct;
            chosen = RouteSegment{t, horizontal ? pos : fixed,
                                  horizontal ? fixed : pos, horizontal, step};
            ++occ.overflows;
        }
        for_each_tile(chosen, cols, rows, [&](std::size_t idx) {
            occ.occupy(idx);
            return true;
        });
        emit(chosen);
        const int advanced = std::min(wire_params(chosen.type).span, remaining);
        pos += advanced * step;
        remaining -= advanced;
    }
}

template <typename Occ, typename EmitSegment>
double RoutedDesign::route_connection(int from_x, int from_y, int to_x, int to_y,
                                      RouteMode mode, Occ& occ,
                                      EmitSegment&& emit) const {
    double capacitance_pf = kPinCapacitancePf;
    const auto step = [&](const RouteSegment& seg) {
        capacitance_pf += wire_params(seg.type).capacitance_pf;
        emit(seg);
    };
    // L-shaped: horizontal first, then vertical.
    route_axis(from_y, from_x, to_x, true, mode, occ, step);
    route_axis(to_x, from_y, to_y, false, mode, occ, step);
    return capacitance_pf;
}

void RoutedDesign::clear_scratch(RouteScratch& s) const {
    const std::size_t tiles = usage_.size();
    const int cols = placement_->device().cols();
    if (s.delta_.size() != tiles) {
        s = RouteScratch{};
        s.delta_.assign(tiles, 0);
        s.state_.assign(tiles, 0);
        s.timeline_pos_.assign(tiles, 0);
        s.wake_next_.assign(tiles, -1);
        s.row_flips_.resize(static_cast<std::size_t>(placement_->device().rows()));
        s.col_flips_.resize(static_cast<std::size_t>(cols));
        return;
    }
    for (const std::size_t idx : s.touched_) {
        s.delta_[idx] = 0;
        if ((s.state_[idx] & 2U) != 0) {
            const std::size_t tile = idx / fabric::kWireTypeCount;
            s.row_flips_[tile / cols].clear();
            s.col_flips_[tile % cols].clear();
        }
        s.state_[idx] = 0;
    }
    s.touched_.clear();
}

void RoutedDesign::trial_reference(std::span<const NetId> nets, SliceId moved,
                                   const SliceCoord& moved_pos, RouteMode mode,
                                   TrialReference& out, RouteScratch& scratch) const {
    clear_scratch(scratch);
    out.mode_ = mode;
    out.net_capacitance_pf_.clear();
    out.net_conn_begin_.assign(1, 0);
    out.conns_.clear();
    out.conn_tile_begin_.assign(1, 0);
    out.conn_tiles_.clear();
    const auto& nl = placement_->nl();
    Occupancy occ{[&](std::size_t idx) { return usage_[idx] + scratch.delta_[idx]; },
                  [&](std::size_t idx) {
                      if (scratch.delta_[idx]++ == 0) scratch.touched_.push_back(idx);
                      out.conn_tiles_.push_back(static_cast<std::uint32_t>(idx));
                  }};
    const auto moves = [&](netlist::CellId cell) {
        const SliceId s = placement_->design().slice_of(cell);
        return s.valid() && s == moved;
    };
    for (const NetId net : nets) {
        REFPGA_EXPECTS(net.value() < routes_.size());
        const auto& n = nl.net(net);
        double capacitance_pf = 0.0;
        if (!placement_->dedicated_net(net) && n.driven()) {
            const bool driver_moves = moves(n.driver.cell);
            const SliceCoord from =
                driver_moves ? moved_pos : placement_->cell_pos(n.driver.cell);
            for (const PinRef& sink : n.sinks) {
                const bool sink_moves = moves(sink.cell);
                const SliceCoord to = sink_moves ? moved_pos : placement_->cell_pos(sink.cell);
                TrialReference::Connection c{from.x, from.y, to.x, to.y, 0.0,
                                             driver_moves, sink_moves};
                c.capacitance_pf =
                    route_connection(from.x, from.y, to.x, to.y, mode, occ,
                                     [](const RouteSegment&) {});
                capacitance_pf += c.capacitance_pf;
                out.conns_.push_back(c);
                out.conn_tile_begin_.push_back(
                    static_cast<std::uint32_t>(out.conn_tiles_.size()));
            }
        }
        out.net_capacitance_pf_.push_back(capacitance_pf);
        out.net_conn_begin_.push_back(static_cast<std::uint32_t>(out.conns_.size()));
    }

    // Timeline CSR: a tile's count is its final scratch occupancy; filling in
    // connection order keeps every tile's list ascending.
    out.tile_conn_begin_.assign(usage_.size() + 1, 0);
    for (const std::size_t idx : scratch.touched_)
        out.tile_conn_begin_[idx + 1] = static_cast<std::uint32_t>(scratch.delta_[idx]);
    for (std::size_t t = 0; t < usage_.size(); ++t)
        out.tile_conn_begin_[t + 1] += out.tile_conn_begin_[t];
    out.tile_conns_.resize(out.conn_tiles_.size());
    for (std::uint32_t j = 0; j + 1 < out.conn_tile_begin_.size(); ++j)
        for (std::uint32_t k = out.conn_tile_begin_[j]; k < out.conn_tile_begin_[j + 1];
             ++k) {
            // delta_ counts down to 0 as the tile's slots fill front to back.
            const std::uint32_t idx = out.conn_tiles_[k];
            const int left = --scratch.delta_[idx];
            out.tile_conns_[out.tile_conn_begin_[idx + 1] - 1 -
                            static_cast<std::uint32_t>(left)] = j;
        }
    scratch.touched_.clear();  // every delta_ is back at 0
}

// One candidate trial (see trial_candidate). The scratch's delta_ holds the
// diff D; each tracked tile (one whose D was ever written) keeps its position
// in its reference timeline, so R_j(t) is a subtraction, and a flag for
// whether D flips its fullness, indexed by row and column. A flag changes only
// when D changes at its tile or the timeline passes one of the tile's
// connections; wake lists keyed by connection find the latter, so no
// connection scans the diff.
class RoutedDesign::CandidateTrial {
public:
    CandidateTrial(const RoutedDesign& d, const TrialReference& ref, RouteScratch& s)
        : d_(d), ref_(ref), s_(s),
          cols_(static_cast<std::uint32_t>(d.placement_->device().cols())) {}

    std::span<const double> run(const SliceCoord& moved_pos) {
        const auto count = static_cast<std::uint32_t>(ref_.conns_.size());
        s_.wake_head_.assign(count + 1, -1);
        s_.net_capacitance_pf_.clear();
        long rerouted = 0;
        std::uint32_t j = 0;
        for (std::size_t net = 0; net < ref_.net_capacitance_pf_.size(); ++net) {
            double capacitance_pf = 0.0;
            for (; j < ref_.net_conn_begin_[net + 1]; ++j) {
                wake(j);
                const TrialReference::Connection& c = ref_.conns_[j];
                if (!c.driver_moves && !c.sink_moves && !flip_on_path(c)) {
                    capacitance_pf += c.capacitance_pf;
                    continue;
                }
                ++rerouted;
                capacitance_pf += reroute(j, c.driver_moves ? moved_pos.x : c.from_x,
                                          c.driver_moves ? moved_pos.y : c.from_y,
                                          c.sink_moves ? moved_pos.x : c.to_x,
                                          c.sink_moves ? moved_pos.y : c.to_y);
            }
            s_.net_capacitance_pf_.push_back(capacitance_pf);
        }
        s_.tally_.connections += count;
        s_.tally_.rerouted += rerouted;
        return s_.net_capacitance_pf_;
    }

private:
    /// Refreshes the tiles whose reference occupancy rose with connection
    /// conn - 1.
    void wake(std::uint32_t conn) {
        for (std::int32_t tile = std::exchange(s_.wake_head_[conn], -1); tile >= 0;) {
            const auto t = static_cast<std::uint32_t>(tile);
            tile = s_.wake_next_[t];
            ++s_.timeline_pos_[t];
            refresh_flip(t);
            schedule_wake(t);
        }
    }

    /// Queues `tile` behind its next timeline connection, if any.
    void schedule_wake(std::uint32_t tile) {
        const std::uint32_t pos = s_.timeline_pos_[tile];
        if (pos == ref_.tile_conn_begin_[tile + 1]) return;
        const std::uint32_t conn = ref_.tile_conns_[pos] + 1;
        s_.wake_next_[tile] = s_.wake_head_[conn];
        s_.wake_head_[conn] = static_cast<std::int32_t>(tile);
    }

    void refresh_flip(std::uint32_t tile) {
        const int cap =
            d_.capacity_.of(static_cast<WireType>(tile % fabric::kWireTypeCount));
        const int before = d_.usage_[tile] + static_cast<int>(s_.timeline_pos_[tile] -
                                                              ref_.tile_conn_begin_[tile]);
        const bool flipped = (before >= cap) != (before + s_.delta_[tile] >= cap);
        if (flipped == ((s_.state_[tile] & 2U) != 0)) return;
        s_.state_[tile] ^= 2U;
        const std::uint32_t site = tile / fabric::kWireTypeCount;
        auto& row = s_.row_flips_[site / cols_];
        auto& col = s_.col_flips_[site % cols_];
        if (flipped) {
            row.push_back(tile);
            col.push_back(tile);
        } else {
            row.erase(std::find(row.begin(), row.end(), tile));
            col.erase(std::find(col.begin(), col.end(), tile));
        }
    }

    /// Starts tracking `tile` at the reference occupancy before connection
    /// `conn`, or refreshes a tracked tile's flag.
    void track(std::uint32_t tile, std::uint32_t conn) {
        if ((s_.state_[tile] & 1U) == 0) {
            s_.state_[tile] = 1U;
            s_.touched_.push_back(tile);
            s_.timeline_pos_[tile] = ref_.tile_conn_begin_[tile] +
                                     static_cast<std::uint32_t>(
                                         ref_.occupancy_before(tile, conn));
            schedule_wake(tile);
        }
        refresh_flip(tile);
    }

    /// Row from.y over [from.x, to.x), then column to.x over [from.y, to.y).
    [[nodiscard]] bool flip_on_path(const TrialReference::Connection& c) const {
        const auto crosses = [](std::uint32_t coord, int from, int to) {
            const auto v = static_cast<int>(coord);
            return from < to ? v >= from && v < to : v <= from && v > to;
        };
        for (const std::uint32_t tile : s_.row_flips_[c.from_y])
            if (crosses(tile / fabric::kWireTypeCount % cols_, c.from_x, c.to_x))
                return true;
        for (const std::uint32_t tile : s_.col_flips_[c.to_x])
            if (crosses(tile / fabric::kWireTypeCount / cols_, c.from_y, c.to_y))
                return true;
        return false;
    }

    /// Routes connection `conn` against usage + R_conn + D, then adds its
    /// candidate-minus-reference occupancy to D; the flags of the tiles that
    /// changed then read the reference occupancy after it.
    double reroute(std::uint32_t conn, int from_x, int from_y, int to_x, int to_y) {
        s_.route_tiles_.clear();
        Occupancy occ{[&](std::size_t idx) {
                          return d_.usage_[idx] + ref_.occupancy_before(idx, conn) +
                                 s_.delta_[idx];
                      },
                      [&](std::size_t idx) {
                          ++s_.delta_[idx];
                          s_.route_tiles_.push_back(static_cast<std::uint32_t>(idx));
                      }};
        const double capacitance_pf = d_.route_connection(
            from_x, from_y, to_x, to_y, ref_.mode_, occ, [](const RouteSegment&) {});
        for (const std::uint32_t tile : s_.route_tiles_) track(tile, conn + 1);
        for (std::uint32_t k = ref_.conn_tile_begin_[conn];
             k < ref_.conn_tile_begin_[conn + 1]; ++k) {
            const std::uint32_t tile = ref_.conn_tiles_[k];
            --s_.delta_[tile];
            track(tile, conn + 1);
        }
        return capacitance_pf;
    }

    const RoutedDesign& d_;
    const TrialReference& ref_;
    RouteScratch& s_;
    std::uint32_t cols_;
};

std::span<const double> RoutedDesign::trial_candidate(const TrialReference& reference,
                                                      const SliceCoord& moved_pos,
                                                      RouteScratch& scratch) const {
    REFPGA_EXPECTS(reference.tile_conn_begin_.size() == usage_.size() + 1);
    clear_scratch(scratch);
    return CandidateTrial(*this, reference, scratch).run(moved_pos);
}

void RoutedDesign::rip_up(NetId net) {
    NetRoute& r = routes_[net.value()];
    const int cols = placement_->device().cols();
    const int rows = placement_->device().rows();
    for (const auto& sink : r.sinks)
        for (const auto& seg : sink.segments)
            for_each_tile(seg, cols, rows, [&](std::size_t idx) {
                --usage_[idx];
                return true;
            });
    r.sinks.clear();
    r.routed = false;
    overflow_ -= net_overflow_[net.value()];
    net_overflow_[net.value()] = 0;
}

void RoutedDesign::route_net(NetId net, RouteMode mode) {
    const auto& n = placement_->nl().net(net);
    NetRoute& out = routes_[net.value()];
    out.sinks.clear();
    out.routed = true;
    if (placement_->dedicated_net(net) || !n.driven()) return;
    Occupancy occ{[this](std::size_t idx) { return usage_[idx]; },
                  [this](std::size_t idx) { ++usage_[idx]; }};
    const SliceCoord from = placement_->cell_pos(n.driver.cell);
    for (const PinRef& sink : n.sinks) {
        const SliceCoord to = placement_->cell_pos(sink.cell);
        SinkRoute route;
        route.sink = sink;
        route.delay_ps = kPinDelayPs;
        route.capacitance_pf =
            route_connection(from.x, from.y, to.x, to.y, mode, occ,
                             [&](const RouteSegment& seg) {
                                 route.segments.push_back(seg);
                                 route.delay_ps += wire_params(seg.type).delay_ps;
                             });
        out.sinks.push_back(std::move(route));
    }
    net_overflow_[net.value()] = occ.overflows;
    overflow_ += occ.overflows;
}

void RoutedDesign::route_all(RouteMode mode) {
    for (std::uint32_t i = 0; i < routes_.size(); ++i)
        if (routes_[i].routed) rip_up(NetId{i});
    // Route short nets first so they keep the cheap wires; long nets can
    // better amortize hex/long segments.
    // HPWL is keyed once per net; the comparator sees the same values the
    // per-comparison recomputation did, so std::sort yields the same order.
    struct Keyed {
        int hpwl;
        std::uint32_t net;
    };
    std::vector<Keyed> order(routes_.size());
    for (std::uint32_t i = 0; i < routes_.size(); ++i)
        order[i] = {placement_->net_hpwl(NetId{i}), i};
    std::sort(order.begin(), order.end(),
              [](const Keyed& a, const Keyed& b) { return a.hpwl < b.hpwl; });
    for (const Keyed& k : order) route_net(NetId{k.net}, mode);
}

void RoutedDesign::reroute_net(NetId net, RouteMode mode) {
    REFPGA_EXPECTS(net.value() < routes_.size());
    rip_up(net);
    route_net(net, mode);
}

void RoutedDesign::unroute_net(NetId net) {
    REFPGA_EXPECTS(net.value() < routes_.size());
    rip_up(net);
}

std::string render_route(const RoutedDesign& design, NetId net) {
    const auto& placement = design.placement();
    const auto& nl = placement.nl();
    const auto& n = nl.net(net);
    const auto& route = design.route(net);

    // Bounding box with one tile of margin.
    int min_x = placement.device().cols() - 1;
    int max_x = 0;
    int min_y = placement.device().rows() - 1;
    int max_y = 0;
    auto extend = [&](int x, int y) {
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
    };
    const SliceCoord from = placement.cell_pos(n.driver.cell);
    extend(from.x, from.y);
    for (const auto& sink : route.sinks) {
        for (const auto& seg : sink.segments) {
            const int span = fabric::wire_params(seg.type).span;
            extend(seg.x, seg.y);
            extend(seg.horizontal ? seg.x + seg.step * span : seg.x,
                   seg.horizontal ? seg.y : seg.y + seg.step * span);
        }
        const SliceCoord to = placement.cell_pos(sink.sink.cell);
        extend(to.x, to.y);
    }
    min_x = std::max(0, min_x - 1);
    min_y = std::max(0, min_y - 1);
    max_x = std::min(placement.device().cols() - 1, max_x + 1);
    max_y = std::min(placement.device().rows() - 1, max_y + 1);

    const int w = max_x - min_x + 1;
    const int h = max_y - min_y + 1;
    std::vector<std::string> grid(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), '.'));
    auto put = [&](int x, int y, char c) {
        if (x < min_x || x > max_x || y < min_y || y > max_y) return;
        char& slot = grid[static_cast<std::size_t>(y - min_y)][static_cast<std::size_t>(x - min_x)];
        if (slot == '.' || c == 'D' || c == 'S') slot = c;
    };

    for (const auto& sink : route.sinks) {
        for (const auto& seg : sink.segments) {
            const auto& params = fabric::wire_params(seg.type);
            char mark = '?';
            switch (seg.type) {
                case WireType::Direct: mark = '-'; break;
                case WireType::Double: mark = '='; break;
                case WireType::Hex: mark = 'h'; break;
                case WireType::Long: mark = 'L'; break;
            }
            int x = seg.x;
            int y = seg.y;
            for (int i = 0; i < params.span; ++i) {
                put(x, y, mark);
                (seg.horizontal ? x : y) += seg.step;
            }
        }
        const SliceCoord to = placement.cell_pos(sink.sink.cell);
        put(to.x, to.y, 'S');
    }
    put(from.x, from.y, 'D');

    std::ostringstream os;
    os << "net " << n.name << " (D=driver, S=sink, -=direct, ==double, h=hex, L=long)\n";
    for (auto it = grid.rbegin(); it != grid.rend(); ++it) os << *it << '\n';
    return os.str();
}

}  // namespace refpga::par
