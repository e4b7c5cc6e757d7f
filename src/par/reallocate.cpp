#include "refpga/par/reallocate.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "refpga/common/thread_pool.hpp"

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

double net_power_uw(const RoutedDesign& routed, NetId net,
                    const sim::ActivityMap& activity, double vdd) {
    return switch_power_uw(routed.route(net).capacitance_pf(),
                           activity.rate_hz(net), vdd);
}

// ---------------------------------------------------------------- ReallocIndex

namespace {

template <typename Id>
void sort_unique_tail(std::vector<Id>& items, std::size_t begin) {
    std::sort(items.begin() + static_cast<std::ptrdiff_t>(begin), items.end());
    items.erase(std::unique(items.begin() + static_cast<std::ptrdiff_t>(begin),
                            items.end()),
                items.end());
}

}  // namespace

ReallocIndex::ReallocIndex(const Placement& placement,
                           const netlist::CellNetIndex& cells) {
    const PackedDesign& design = placement.design();

    slice_offsets_.reserve(design.slice_count() + 1);
    slice_offsets_.push_back(0);
    for (std::uint32_t si = 0; si < design.slice_count(); ++si) {
        const PackedSlice& ps = design.slices()[si];
        const std::size_t begin = slice_nets_.size();
        auto add_cell = [&](CellId cell) {
            for (const NetId net : cells.nets_of(cell))
                if (!placement.dedicated_net(net)) slice_nets_.push_back(net);
        };
        for (const CellId cell : ps.luts) add_cell(cell);
        for (const CellId cell : ps.ffs) add_cell(cell);
        sort_unique_tail(slice_nets_, begin);
        slice_offsets_.push_back(static_cast<std::uint32_t>(slice_nets_.size()));
    }

    const auto& nl = placement.nl();
    net_offsets_.reserve(nl.net_count() + 1);
    net_offsets_.push_back(0);
    for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni) {
        const std::size_t begin = net_slices_.size();
        for (const CellId cell : cells.cells_of(NetId{ni})) {
            const SliceId s = design.slice_of(cell);
            if (s.valid()) net_slices_.push_back(s);
        }
        sort_unique_tail(net_slices_, begin);
        net_offsets_.push_back(static_cast<std::uint32_t>(net_slices_.size()));
    }
}

std::span<const NetId> ReallocIndex::nets_of(SliceId slice) const {
    REFPGA_EXPECTS(slice.value() + 1 < slice_offsets_.size());
    return {slice_nets_.data() + slice_offsets_[slice.value()],
            slice_nets_.data() + slice_offsets_[slice.value() + 1]};
}

std::span<const SliceId> ReallocIndex::slices_of(NetId net) const {
    REFPGA_EXPECTS(net.value() + 1 < net_offsets_.size());
    return {net_slices_.data() + net_offsets_[net.value()],
            net_slices_.data() + net_offsets_[net.value() + 1]};
}

// --------------------------------------------------------------- NetPowerCache

NetPowerCache::NetPowerCache(const RoutedDesign& routed,
                             const sim::ActivityMap& activity, double vdd)
    : routed_(&routed), activity_(&activity), vdd_(vdd) {
    const std::size_t count = routed.placement().nl().net_count();
    net_uw_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        net_uw_.push_back(net_power_uw(routed, NetId{i}, activity, vdd));
}

double NetPowerCache::net_uw(NetId net) const {
    REFPGA_EXPECTS(net.value() < net_uw_.size());
    return net_uw_[net.value()];
}

void NetPowerCache::refresh(NetId net) {
    REFPGA_EXPECTS(net.value() < net_uw_.size());
    net_uw_[net.value()] = net_power_uw(*routed_, net, *activity_, vdd_);
}

double NetPowerCache::exact_total_uw() const {
    double total = 0.0;
    for (const double uw : net_uw_) total += uw;
    return total;
}

// --------------------------------------------------------------------- helpers

namespace {

double total_power_uw(const RoutedDesign& routed, const sim::ActivityMap& activity,
                      double vdd) {
    double total = 0.0;
    for (std::uint32_t i = 0; i < routed.placement().nl().net_count(); ++i)
        total += net_power_uw(routed, NetId{i}, activity, vdd);
    return total;
}

/// Slices participating in a net (driver and sinks that live in slices).
/// Retained set-based builder: the Reference engine's per-call path, and the
/// behavioral spec ReallocIndex::slices_of must match.
std::vector<SliceId> net_slices_naive(const Placement& placement, NetId net) {
    const auto& nl = placement.nl();
    const auto& n = nl.net(net);
    std::set<SliceId> slices;
    auto add = [&](CellId cell) {
        const SliceId s = placement.design().slice_of(cell);
        if (s.valid()) slices.insert(s);
    };
    if (n.driven()) add(n.driver.cell);
    for (const auto& sink : n.sinks) add(sink.cell);
    return {slices.begin(), slices.end()};
}

/// All nets incident to a slice's cells (these must be re-routed on a move).
/// Retained set-based builder mirrored by ReallocIndex::nets_of.
std::vector<NetId> incident_nets_naive(const Placement& placement, SliceId slice) {
    const auto& nl = placement.nl();
    const auto& packed = placement.design().slices()[slice.value()];
    std::set<NetId> nets;
    auto add_cell = [&](CellId cell) {
        const auto& c = nl.cell(cell);
        for (const NetId in : c.inputs)
            if (in.valid() && !placement.dedicated_net(in)) nets.insert(in);
        for (const NetId out : c.outputs)
            if (out.valid() && !placement.dedicated_net(out)) nets.insert(out);
    };
    for (const CellId cell : packed.luts) add_cell(cell);
    for (const CellId cell : packed.ffs) add_cell(cell);
    return {nets.begin(), nets.end()};
}

SliceCoord net_centroid(const Placement& placement, NetId net) {
    const auto& n = placement.nl().net(net);
    long sx = 0;
    long sy = 0;
    long count = 0;
    auto add = [&](CellId cell) {
        const SliceCoord pos = placement.cell_pos(cell);
        sx += pos.x;
        sy += pos.y;
        ++count;
    };
    if (n.driven()) add(n.driver.cell);
    for (const auto& sink : n.sinks) add(sink.cell);
    if (count == 0) return SliceCoord{0, 0, 0};
    return SliceCoord{static_cast<int>(sx / count), static_cast<int>(sy / count), 0};
}

/// Hot nets ranked by *reducible* power: the share switched on routing wires
/// (pin capacitance is fixed by connectivity). Very-high-fanout nets are
/// excluded -- nothing the placer can do about hundreds of loads. Power is
/// keyed once per net before sorting (the old comparator recomputed it on
/// every comparison); equal-power nets tie-break on the lower id so the
/// order is deterministic.
std::vector<NetId> rank_hot_nets(const RoutedDesign& routed,
                                 const sim::ActivityMap& activity,
                                 const ReallocateOptions& options) {
    const auto& nl = routed.placement().nl();
    struct HotNet {
        double wire_uw;
        NetId net;
    };
    std::vector<HotNet> keyed;
    keyed.reserve(nl.net_count());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId net{i};
        if (nl.net(net).fanout() > options.max_fanout) continue;
        const NetRoute& r = routed.route(net);
        const double pin_c =
            RoutedDesign::kPinCapacitancePf * static_cast<double>(r.sinks.size());
        const double wire_c = std::max(r.capacitance_pf() - pin_c, 0.0);
        keyed.push_back(
            {switch_power_uw(wire_c, activity.rate_hz(net), options.vdd), net});
    }
    std::sort(keyed.begin(), keyed.end(), [](const HotNet& a, const HotNet& b) {
        if (a.wire_uw != b.wire_uw) return a.wire_uw > b.wire_uw;
        return a.net < b.net;
    });
    if (keyed.size() > options.net_count) keyed.resize(options.net_count);
    std::vector<NetId> order;
    order.reserve(keyed.size());
    for (const HotNet& h : keyed) order.push_back(h.net);
    return order;
}

/// Free sites in the (2*radius+1)^2 window around the centroid, in window
/// scan order. Both engines enumerate (and therefore tie-break) identically.
std::vector<SliceCoord> enumerate_targets(const Placement& placement,
                                          const Region& region,
                                          const SliceCoord& centroid,
                                          const SliceCoord& original, int radius) {
    std::vector<SliceCoord> targets;
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            for (int idx = 0; idx < fabric::Device::kSlicesPerClb; ++idx) {
                const SliceCoord target{centroid.x + dx, centroid.y + dy, idx};
                if (!region.contains(target.x, target.y)) continue;
                if (target == original) continue;
                // Only move into free sites; swapping would perturb an
                // unrelated net's power (the paper moved logic into free
                // slices too).
                if (placement.slice_at(target).valid()) continue;
                targets.push_back(target);
            }
        }
    }
    return targets;
}

// ---------------------------------------------------------------------- engine

/// One optimization run. Both engines share this skeleton and its timing
/// gate; the Incremental flag switches bookkeeping strategy (indexes, caches,
/// parallel candidate evaluation) without changing any decision.
class Engine {
public:
    Engine(Placement& placement, RoutedDesign& routed,
           const sim::ActivityMap& activity, const ReallocateOptions& options)
        : placement_(placement),
          routed_(routed),
          activity_(activity),
          options_(options),
          inc_(options.engine == ReallocEngine::Incremental),
          rec_(options.recorder) {
        if (rec_ != nullptr) {
            obs::MetricRegistry& m = rec_->metrics();
            obs_passes_ = m.counter("realloc.passes_total");
            obs_nets_ = m.counter("realloc.nets_considered_total");
            obs_candidates_ = m.counter("realloc.candidates_evaluated_total");
            obs_commits_ = m.counter("realloc.moves_committed_total");
            obs_rejects_ = m.counter("realloc.moves_rejected_total");
            obs_analyses_ = m.counter("realloc.timing_analyses_total");
            obs_trial_connections_ = m.counter("realloc.trial_connections_total");
            obs_trial_rerouted_ = m.counter("realloc.trial_connections_rerouted_total");
            obs_pass_wall_ = m.histogram(
                "realloc.pass_wall_seconds",
                {1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0});
        }
    }

    ReallocateReport run();

private:
    void setup_pool();
    void optimize_net(NetId net, NetPowerChange& change);
    void optimize_slice(SliceId slice, const SliceCoord& centroid,
                        std::span<const NetId> affected, NetPowerChange& change);
    [[nodiscard]] double trial_power(std::span<const NetId> affected,
                                     std::span<const double> capacitance_pf) const;
    void evaluate_candidates(std::span<const NetId> affected,
                             std::span<const SliceCoord> targets,
                             std::span<const std::size_t> groups, double cost_before,
                             std::vector<double>& gains);
    void rip_all(std::span<const NetId> affected);
    void route_all_lp(std::span<const NetId> affected);
    [[nodiscard]] TimingReport analyze();

    Placement& placement_;
    RoutedDesign& routed_;
    const sim::ActivityMap& activity_;
    const ReallocateOptions& options_;
    const bool inc_;

    std::optional<netlist::CellNetIndex> cell_index_;
    std::optional<ReallocIndex> index_;
    std::optional<NetPowerCache> cache_;

    double limit_ = 0.0;

    std::optional<ThreadPool> pool_;
    std::vector<RouteScratch> scratches_;  ///< one per evaluation worker
    TrialReference reference_;             ///< the slice's trial at its own site

    // Observability (counters bumped from the calling thread only).
    obs::Recorder* rec_;
    obs::MetricId obs_passes_, obs_nets_, obs_candidates_, obs_commits_,
        obs_rejects_, obs_analyses_, obs_trial_connections_, obs_trial_rerouted_,
        obs_pass_wall_;

    void obs_add(obs::MetricId id, double delta = 1.0) {
        if (rec_ != nullptr && rec_->enabled()) rec_->metrics().add(id, delta);
    }
};

void Engine::setup_pool() {
    const int workers = inc_ ? options_.threads : 1;
    if (workers > 1) pool_.emplace(workers);
    scratches_.resize(static_cast<std::size_t>(workers));
}

ReallocateReport Engine::run() {
    const auto& nl = placement_.nl();
    if (inc_) {
        cell_index_.emplace(nl);
        index_.emplace(placement_, *cell_index_);
        cache_.emplace(routed_, activity_, options_.vdd);
    }
    setup_pool();
    obs_add(obs_passes_);
    obs::ScopedTimer pass_timer(rec_ != nullptr ? &rec_->metrics() : nullptr,
                                obs_pass_wall_);

    ReallocateReport report;
    report.total_before_uw = inc_ ? cache_->exact_total_uw()
                                  : total_power_uw(routed_, activity_, options_.vdd);
    report.critical_before_ps = analyze().critical_path_ps;
    limit_ = report.critical_before_ps * options_.timing_slack;

    for (const NetId net : rank_hot_nets(routed_, activity_, options_)) {
        obs_add(obs_nets_);
        NetPowerChange change;
        change.net = net;
        change.name = nl.net(net).name;
        change.before_uw = net_power_uw(routed_, net, activity_, options_.vdd);
        if (options_.capture_routes) change.route_before = render_route(routed_, net);
        optimize_net(net, change);
        change.after_uw = net_power_uw(routed_, net, activity_, options_.vdd);
        if (options_.capture_routes) change.route_after = render_route(routed_, net);
        report.nets.push_back(std::move(change));
    }

    report.total_after_uw = inc_ ? cache_->exact_total_uw()
                                 : total_power_uw(routed_, activity_, options_.vdd);
    report.critical_after_ps = analyze().critical_path_ps;
    return report;
}

void Engine::optimize_net(NetId net, NetPowerChange& change) {
    // Step 1: re-route the net itself on low-capacitance wires.
    routed_.reroute_net(net, RouteMode::LowPower);
    if (inc_) cache_->refresh(net);

    // Step 2: try to pull each participating slice toward the centroid.
    const SliceCoord centroid = net_centroid(placement_, net);
    if (inc_) {
        for (const SliceId slice : index_->slices_of(net))
            optimize_slice(slice, centroid, index_->nets_of(slice), change);
    } else {
        for (const SliceId slice : net_slices_naive(placement_, net)) {
            const std::vector<NetId> affected = incident_nets_naive(placement_, slice);
            optimize_slice(slice, centroid, affected, change);
        }
    }
}

void Engine::optimize_slice(SliceId slice, const SliceCoord& centroid,
                            std::span<const NetId> affected,
                            NetPowerChange& change) {
    if (affected.empty()) return;  // no move can change any routed net

    const Region region = placement_.region_of(
        placement_.design().slices()[slice.value()].partition);
    const SliceCoord original = placement_.slice_pos(slice);
    const std::vector<SliceCoord> targets =
        enumerate_targets(placement_, region, centroid, original, options_.radius);
    if (targets.empty()) return;

    // Candidates are delta-costed against the base occupancy with every
    // affected net ripped up -- exactly the state a live re-route starts
    // from, so trial routes equal committed routes byte for byte.
    rip_all(affected);

    // Deterministic reduction: window order, strict improvement required,
    // first (lowest-coordinate) candidate wins ties — identical across
    // engines and for any thread count.
    double best_gain = 0.0;
    std::size_t best = targets.size();
    if (inc_) {
        // The trial at the original site gives cost_before and the record
        // every candidate trial reuses unchanged connections from.
        routed_.trial_reference(affected, slice, original, RouteMode::LowPower,
                                reference_, scratches_[0]);
        const double cost_before = trial_power(affected, reference_.net_capacitance_pf());
        // Slice sites within one CLB share the tile coordinate and routing
        // never reads the intra-CLB index, so their gains are bitwise equal.
        // Evaluate one representative per tile: under the strict-improvement
        // reduction only a group's first member is ever selectable, so the
        // choice matches a full per-site evaluation exactly.
        std::vector<std::size_t> groups;
        groups.reserve(targets.size());
        for (std::size_t i = 0; i < targets.size(); ++i)
            if (groups.empty() || targets[i].x != targets[groups.back()].x ||
                targets[i].y != targets[groups.back()].y)
                groups.push_back(i);
        std::vector<double> gains(groups.size(), 0.0);
        obs_add(obs_candidates_, static_cast<double>(groups.size()));
        evaluate_candidates(affected, targets, groups, cost_before, gains);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (gains[g] > best_gain) {
                best_gain = gains[g];
                best = groups[g];
            }
        }
    } else {
        // Retained pre-PR mechanics: every candidate swaps the slice in,
        // re-routes all affected nets on the live grid, measures, then swaps
        // back and re-routes again to undo — the occupy/undo churn (and the
        // per-candidate baseline recompute) that the incremental engine's
        // scratch evaluator eliminates. Decisions are identical: live routes
        // from the same base occupancy equal scratch trial routes byte for
        // byte, and costs are summed in the same ascending net order.
        obs_add(obs_candidates_, static_cast<double>(targets.size()));
        for (std::size_t i = 0; i < targets.size(); ++i) {
            placement_.swap_sites(original, targets[i]);
            for (const NetId a : affected)
                routed_.reroute_net(a, RouteMode::LowPower);
            double cost_after = 0.0;
            for (const NetId a : affected)
                cost_after += net_power_uw(routed_, a, activity_, options_.vdd);
            rip_all(affected);
            placement_.swap_sites(targets[i], original);
            for (const NetId a : affected)
                routed_.reroute_net(a, RouteMode::LowPower);
            double cost_before = 0.0;
            for (const NetId a : affected)
                cost_before += net_power_uw(routed_, a, activity_, options_.vdd);
            rip_all(affected);
            const double gain = cost_before - cost_after;
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }
    }

    const bool move = best < targets.size();
    if (move) placement_.swap_sites(original, targets[best]);
    route_all_lp(affected);
    if (!move) return;

    // Timing gate: undo the move if the clock target breaks. One full
    // analysis per chosen move, in both engines.
    if (analyze().critical_path_ps > limit_) {
        obs_add(obs_rejects_);
        rip_all(affected);
        placement_.swap_sites(targets[best], original);
        route_all_lp(affected);
    } else {
        obs_add(obs_commits_);
        change.moved_logic = true;
    }
}

double Engine::trial_power(std::span<const NetId> affected,
                           std::span<const double> capacitance_pf) const {
    double cost = 0.0;
    for (std::size_t i = 0; i < affected.size(); ++i)
        cost += switch_power_uw(capacitance_pf[i], activity_.rate_hz(affected[i]),
                                options_.vdd);
    return cost;
}

void Engine::evaluate_candidates(std::span<const NetId> affected,
                                 std::span<const SliceCoord> targets,
                                 std::span<const std::size_t> groups,
                                 double cost_before, std::vector<double>& gains) {
    const std::size_t count = groups.size();
    const std::size_t workers = scratches_.size();
    const auto gain = [&](std::size_t g, RouteScratch& scratch) {
        return cost_before -
               trial_power(affected,
                           routed_.trial_candidate(reference_, targets[groups[g]], scratch));
    };
    if (workers <= 1 || count < 2) {
        for (std::size_t g = 0; g < count; ++g) gains[g] = gain(g, scratches_[0]);
    } else {
        // Contiguous chunks, one per worker; every candidate's gain is
        // computed from the same frozen base state into its own slot, so the
        // schedule cannot reorder any arithmetic.
        const std::size_t chunks = std::min(workers, count);
        for (std::size_t c = 0; c < chunks; ++c) {
            pool_->submit([this, &gain, &gains, c, chunks, count] {
                const std::size_t begin = c * count / chunks;
                const std::size_t end = (c + 1) * count / chunks;
                for (std::size_t g = begin; g < end; ++g) gains[g] = gain(g, scratches_[c]);
            });
        }
        pool_->wait_idle();
    }
    // Per-worker tallies are summed here, on the calling thread.
    for (RouteScratch& scratch : scratches_) {
        const RouteScratch::Tally tally = scratch.take_tally();
        obs_add(obs_trial_connections_, static_cast<double>(tally.connections));
        obs_add(obs_trial_rerouted_, static_cast<double>(tally.rerouted));
    }
}

void Engine::rip_all(std::span<const NetId> affected) {
    for (const NetId a : affected) routed_.unroute_net(a);
}

void Engine::route_all_lp(std::span<const NetId> affected) {
    for (const NetId a : affected) {
        routed_.reroute_net(a, RouteMode::LowPower);
        if (inc_) cache_->refresh(a);
    }
}

TimingReport Engine::analyze() {
    obs_add(obs_analyses_);
    return analyze_timing(routed_, options_.delays);
}

}  // namespace

ReallocateReport optimize_net_power(Placement& placement, RoutedDesign& routed,
                                    const sim::ActivityMap& activity,
                                    const ReallocateOptions& options) {
    REFPGA_EXPECTS(std::isfinite(options.timing_slack) && options.timing_slack >= 1.0);
    REFPGA_EXPECTS(std::isfinite(options.vdd) && options.vdd > 0.0);
    REFPGA_EXPECTS(options.radius >= 0);
    REFPGA_EXPECTS(options.threads >= 1);
    return Engine(placement, routed, activity, options).run();
}

}  // namespace refpga::par
