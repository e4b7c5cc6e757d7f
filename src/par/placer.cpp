#include "refpga/par/placer.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <span>

#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/adjacency.hpp"
#include "refpga/par/reallocate.hpp"

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

namespace {

struct Point {
    int x = 0;
    int y = 0;
};

/// One axis of a net's bounding box, with the number of pins on each edge.
struct Extent {
    int lo = 0;
    int hi = 0;
    int n_lo = 0;
    int n_hi = 0;

    /// Adds a pin at `v` (scans start from lo = INT_MAX, hi = INT_MIN).
    void extend(int v) {
        if (v < lo) {
            lo = v;
            n_lo = 1;
        } else if (v == lo) {
            ++n_lo;
        }
        if (v > hi) {
            hi = v;
            n_hi = 1;
        } else if (v == hi) {
            ++n_hi;
        }
    }

    /// Moves one pin from `from` to `to`. Returns false when the pin was the
    /// last one on the edge it leaves: only a rescan knows the new edge.
    [[nodiscard]] bool shift(int from, int to) {
        if (to < from) {
            if (from == hi) {
                if (n_hi == 1) return false;
                --n_hi;
            }
            if (to < lo) {
                lo = to;
                n_lo = 1;
            } else if (to == lo) {
                ++n_lo;
            }
        } else if (to > from) {
            if (from == lo) {
                if (n_lo == 1) return false;
                --n_lo;
            }
            if (to > hi) {
                hi = to;
                n_hi = 1;
            } else if (to == hi) {
                ++n_hi;
            }
        }
        return true;
    }
};

struct NetBox {
    Extent x;
    Extent y;
    [[nodiscard]] int hpwl() const { return (x.hi - x.lo) + (y.hi - y.lo); }
};

/// Per-call tables for incremental HPWL: slice <-> net adjacency
/// (ReallocIndex, each slice once per net since all its pins share its
/// position), the fixed BRAM/MULT/pad positions of each net in CSR layout,
/// per-slice positions, and a cached box per net. Clocks and constants keep
/// an empty box.
class BoxIndex {
public:
    explicit BoxIndex(const Placement& placement)
        : cells_(placement.nl()), adjacency_(placement, cells_) {
        const auto& nl = placement.nl();
        const auto& design = placement.design();

        pos_.resize(design.slice_count());
        for (std::uint32_t si = 0; si < pos_.size(); ++si) {
            const SliceCoord p = placement.slice_pos(SliceId{si});
            pos_[si] = {p.x, p.y};
        }

        fixed_offsets_.reserve(nl.net_count() + 1);
        fixed_offsets_.push_back(0);
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni) {
            if (!placement.dedicated_net(NetId{ni}))
                for (const CellId cell : cells_.cells_of(NetId{ni}))
                    if (!design.slice_of(cell).valid()) {
                        const SliceCoord p = placement.cell_pos(cell);
                        fixed_.push_back({p.x, p.y});
                    }
            fixed_offsets_.push_back(static_cast<std::uint32_t>(fixed_.size()));
        }

        boxes_.resize(nl.net_count());
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni)
            if (!placement.dedicated_net(NetId{ni}))
                boxes_[ni] = scan(NetId{ni}, SliceId{}, {});
    }

    /// Non-dedicated nets with a pin on `slice`, ascending.
    [[nodiscard]] std::span<const NetId> nets_of(SliceId slice) const {
        return adjacency_.nets_of(slice);
    }

    [[nodiscard]] const NetBox& box(NetId net) const { return boxes_[net.value()]; }
    [[nodiscard]] long rescans() const { return rescans_; }

    /// `net`'s box if `slice` moved from `from` to `to`; the tables are not
    /// changed.
    [[nodiscard]] NetBox moved(NetId net, SliceId slice, Point from, Point to) {
        NetBox b = boxes_[net.value()];
        if (b.x.shift(from.x, to.x) && b.y.shift(from.y, to.y)) return b;
        ++rescans_;
        return scan(net, slice, to);
    }

    void commit(NetId net, const NetBox& b) { boxes_[net.value()] = b; }
    void commit_pos(SliceId slice, Point p) { pos_[slice.value()] = p; }

private:
    /// Full box of `net` with `slice` (if valid) at `at`.
    [[nodiscard]] NetBox scan(NetId net, SliceId slice, Point at) const {
        NetBox b{{INT_MAX, INT_MIN, 0, 0}, {INT_MAX, INT_MIN, 0, 0}};
        for (const SliceId s : adjacency_.slices_of(net)) {
            const Point p = s == slice ? at : pos_[s.value()];
            b.x.extend(p.x);
            b.y.extend(p.y);
        }
        for (std::uint32_t i = fixed_offsets_[net.value()];
             i < fixed_offsets_[net.value() + 1]; ++i) {
            b.x.extend(fixed_[i].x);
            b.y.extend(fixed_[i].y);
        }
        return b;
    }

    netlist::CellNetIndex cells_;
    ReallocIndex adjacency_;
    std::vector<std::uint32_t> fixed_offsets_;  ///< net_count + 1 entries
    std::vector<Point> fixed_;
    std::vector<Point> pos_;  ///< per slice
    std::vector<NetBox> boxes_;
    long rescans_ = 0;
};

}  // namespace

PlacerResult anneal(Placement& placement, const PlacerOptions& options,
                    const sim::ActivityMap* activity, AnnealState* state) {
    REFPGA_EXPECTS(options.cooling > 0.0 && options.cooling < 1.0);
    REFPGA_EXPECTS(options.effort > 0.0);
    REFPGA_EXPECTS(options.initial_temperature > 0.0);
    REFPGA_EXPECTS(options.final_temperature > 0.0);
    REFPGA_EXPECTS(options.activity_beta >= 0.0);

    obs::Recorder* rec = options.recorder;
    obs::MetricId wall;
    std::uint32_t span = 0;
    if (rec != nullptr) {
        wall = rec->metrics().histogram("anneal.wall_seconds",
                                        {1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0});
        span = rec->trace().intern("anneal");
    }
    obs::ScopedSpan anneal_span(rec, span, wall);

    const auto& nl = placement.nl();
    const auto& design = placement.design();
    Rng rng(options.seed);

    // Per-net weight from activity.
    std::vector<double> weight(nl.net_count(), 1.0);
    bool unit_weights = true;
    if (activity != nullptr && options.activity_beta > 0.0) {
        double max_rate = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            max_rate = std::max(max_rate, activity->rate_hz(NetId{i}));
        if (max_rate > 0.0) {
            unit_weights = false;
            for (std::uint32_t i = 0; i < nl.net_count(); ++i)
                weight[i] = 1.0 + options.activity_beta *
                                      activity->rate_hz(NetId{i}) / max_rate;
        }
    }

    BoxIndex index(placement);
    std::vector<Region> regions(design.slice_count());
    for (std::size_t si = 0; si < regions.size(); ++si)
        regions[si] = placement.region_of(design.slices()[si].partition);

    PlacerResult result;
    double cost = 0.0;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i)
        cost += weight[i] * index.box(NetId{i}).hpwl();
    result.initial_cost = std::lround(cost);

    long temperature_steps = 0;
    if (design.slice_count() >= 2) {
        const long moves_per_temp = std::max<long>(
            64, std::lround(options.effort * 8.0 *
                            static_cast<double>(design.slice_count())));

        // A net on both swapped slices keeps its set of pin positions, so
        // its box is unchanged; `mark` finds those nets. The other slice's
        // nets are marked 2*tick, and slice si's pass raises the shared ones
        // to 2*tick+1 so the other slice's pass knows them too.
        std::vector<std::uint64_t> mark(nl.net_count(), 0);
        std::uint64_t tick = 0;
        std::vector<std::pair<NetId, NetBox>> pending;

        for (double temp = options.initial_temperature;
             temp > options.final_temperature; temp *= options.cooling) {
            ++temperature_steps;
            for (long m = 0; m < moves_per_temp; ++m) {
                ++result.moves_tried;
                // Pick a random slice and a random target site inside its region.
                const std::uint32_t si = rng.next_below(
                    static_cast<std::uint32_t>(design.slice_count()));
                const Region& region = regions[si];
                SliceCoord target;
                target.x = region.x_begin +
                           static_cast<int>(rng.next_below(
                               static_cast<std::uint32_t>(region.width())));
                target.y = region.y_begin +
                           static_cast<int>(rng.next_below(
                               static_cast<std::uint32_t>(region.height())));
                target.index = static_cast<int>(
                    rng.next_below(fabric::Device::kSlicesPerClb));

                const SliceCoord source = placement.slice_pos(SliceId{si});
                if (source == target) continue;
                const SliceId other = placement.slice_at(target);
                // Swapping across partitions would violate region constraints.
                if (other.valid() &&
                    !regions[other.value()].contains(source.x, source.y))
                    continue;

                // Price the swap: before and after each sum slice si's nets,
                // then the other slice's, in ascending net order. A shared
                // net is counted in both lists with a zero change.
                const Point from{source.x, source.y};
                const Point to{target.x, target.y};
                const std::span<const NetId> si_nets = index.nets_of(SliceId{si});
                const std::span<const NetId> other_nets =
                    other.valid() ? index.nets_of(other) : std::span<const NetId>{};
                ++tick;
                for (const NetId net : other_nets) mark[net.value()] = 2 * tick;
                pending.clear();
                double before = 0.0;
                double after = 0.0;
                auto price = [&](std::span<const NetId> nets, SliceId slice, Point from,
                                 Point to, std::uint64_t shared_mark) {
                    for (const NetId net : nets) {
                        const double w = weight[net.value()];
                        const double old_cost = w * index.box(net).hpwl();
                        before += old_cost;
                        if (mark[net.value()] == shared_mark) {
                            mark[net.value()] = 2 * tick + 1;
                            after += old_cost;
                            continue;
                        }
                        const NetBox b = index.moved(net, slice, from, to);
                        after += w * b.hpwl();
                        pending.emplace_back(net, b);
                    }
                };
                price(si_nets, SliceId{si}, from, to, 2 * tick);
                price(other_nets, other, to, from, 2 * tick + 1);

                const double delta = after - before;
                const bool accept =
                    delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
                if (!accept) continue;
                cost += delta;
                ++result.moves_accepted;
                for (const auto& [net, b] : pending) index.commit(net, b);
                index.commit_pos(SliceId{si}, to);
                if (other.valid()) index.commit_pos(other, from);
                placement.swap_sites(source, target);
            }
        }
    }

    // O(pins) once per call: the cached boxes and (for unit weights, where
    // every sum is exact) the running cost must match a full recompute.
    double full = 0.0;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const int hpwl = placement.net_hpwl(NetId{i});
        REFPGA_ENSURES(index.box(NetId{i}).hpwl() == hpwl);
        full += weight[i] * hpwl;
    }
    REFPGA_ENSURES(!unit_weights || cost == full);
    result.final_cost = std::lround(full);

    if (state != nullptr) {
        state->running_cost = cost;
        state->cached_hpwl.resize(nl.net_count());
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            state->cached_hpwl[i] = index.box(NetId{i}).hpwl();
    }
    if (rec != nullptr && rec->enabled()) {
        obs::MetricRegistry& m = rec->metrics();
        m.add(m.counter("anneal.moves_tried_total"),
              static_cast<double>(result.moves_tried));
        m.add(m.counter("anneal.moves_accepted_total"),
              static_cast<double>(result.moves_accepted));
        m.add(m.counter("anneal.temperature_steps_total"),
              static_cast<double>(temperature_steps));
        m.add(m.counter("anneal.bbox_rescans_total"),
              static_cast<double>(index.rescans()));
        m.set(m.gauge("anneal.final_cost"), static_cast<double>(result.final_cost));
    }
    return result;
}

}  // namespace refpga::par
