// Equivalence and unit tests for the §4.3 reallocation engines.
//
// The determinism contract (reallocate.hpp) says the ReallocateReport is
// byte-identical between the Incremental and Reference engines and across
// any thread count. These tests pin that contract with the defaulted
// operator== — every double must match bitwise, not just approximately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/adjacency.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::par {
namespace {

using fabric::Device;
using fabric::PartName;
using fabric::SliceCoord;
using netlist::Builder;
using netlist::Bus;
using netlist::CellId;
using netlist::Netlist;
using netlist::NetId;

struct Design {
    Netlist nl;
    NetId clk;
    Design() { clk = nl.add_input_port("clk", 1)[0]; }
};

// Scattered-counter scenario shared by the equivalence tests: the flow is
// deterministic, so rebuilding it fresh per engine run reproduces the exact
// same pre-optimization state (same trick the bench uses). The scatter seed
// picks the placement: at slack 1.0, seed 5 commits every move it chooses
// and seed 3 has some rejected by the timing gate.
struct Scenario {
    Design d;
    PackedDesign packed;
    Device dev{PartName::XC3S400};
    Placement placement;
    RoutedDesign routed;
    sim::ActivityMap activity;

    explicit Scenario(std::uint64_t scatter_seed = 5)
        : packed(build(d)),
          placement(dev, d.nl, packed),
          routed((prepare(placement, scatter_seed), placement), {}),
          activity(sim::ActivityMap(0)) {
        routed.route_all(RouteMode::Performance);
        sim::Simulator simulator(d.nl);
        simulator.run(512);
        activity = sim::activity_from_simulation(simulator, 50e6);
    }

    static PackedDesign build(Design& d) {
        Builder b(d.nl, d.clk);
        const Bus q = b.counter(8);
        Bus x = q;
        for (int i = 0; i < 3; ++i) x = b.not_bus(x);
        d.nl.add_output_port("o", x);
        return pack(d.nl);
    }

    // Scatter slices to create long, power-hungry nets (as test_par does).
    static void prepare(Placement& placement, std::uint64_t scatter_seed) {
        placement.place_initial();
        const Device& dev = placement.device();
        Rng rng(scatter_seed);
        for (std::uint32_t i = 0; i < placement.design().slice_count(); ++i) {
            const SliceCoord target{
                static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.cols()))),
                static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.rows()))),
                static_cast<int>(rng.next_below(4))};
            if (!placement.slice_at(target).valid())
                placement.swap_sites(placement.slice_pos(SliceId{i}), target);
        }
    }
};

ReallocateReport run_engine(const ReallocateOptions& options,
                            std::uint64_t scatter_seed = 5) {
    Scenario s(scatter_seed);
    return optimize_net_power(s.placement, s.routed, s.activity, options);
}

ReallocateOptions base_options() {
    ReallocateOptions options;
    options.net_count = 5;
    return options;
}

// ------------------------------------------------- engine equivalence

TEST(ReallocateEngine, IncrementalMatchesReferenceBitwise) {
    ReallocateOptions options = base_options();
    options.engine = ReallocEngine::Reference;
    const ReallocateReport reference = run_engine(options);

    options.engine = ReallocEngine::Incremental;
    const ReallocateReport incremental = run_engine(options);

    ASSERT_EQ(reference.nets.size(), 5u);
    EXPECT_TRUE(incremental == reference);
    // The scenario must actually exercise the move machinery, or the
    // equivalence above is vacuous.
    EXPECT_TRUE(std::any_of(reference.nets.begin(), reference.nets.end(),
                            [](const NetPowerChange& c) { return c.moved_logic; }));
    EXPECT_LT(reference.total_after_uw, reference.total_before_uw);
}

TEST(ReallocateEngine, ReportInvariantUnderThreadCount) {
    ReallocateOptions options = base_options();
    options.threads = 1;
    const ReallocateReport t1 = run_engine(options);
    options.threads = 4;
    const ReallocateReport t4 = run_engine(options);
    options.threads = 16;
    const ReallocateReport t16 = run_engine(options);
    EXPECT_TRUE(t4 == t1);
    EXPECT_TRUE(t16 == t1);
}

// Workers tally trial connections in their own scratch and the calling
// thread sums the tallies, so the counters do not depend on the schedule.
TEST(ReallocateEngine, TrialCountersInvariantUnderThreadCount) {
    std::vector<std::pair<double, double>> counts;
    for (const int threads : {1, 4, 16}) {
        obs::Recorder recorder;
        ReallocateOptions options = base_options();
        options.threads = threads;
        options.recorder = &recorder;
        (void)run_engine(options);
        const obs::MetricRegistry& m = recorder.metrics();
        counts.emplace_back(m.value("realloc.trial_connections_total"),
                            m.value("realloc.trial_connections_rerouted_total"));
    }
    EXPECT_GT(counts[0].first, 0.0);
    EXPECT_GT(counts[0].second, 0.0);
    EXPECT_LE(counts[0].second, counts[0].first);
    EXPECT_EQ(counts[1], counts[0]);
    EXPECT_EQ(counts[2], counts[0]);
}

TEST(ReallocateEngine, TightSlackStillEquivalent) {
    // slack 1.0 makes the timing gate reject every chosen move that
    // lengthens the critical path.
    ReallocateOptions options = base_options();
    options.timing_slack = 1.0;
    options.engine = ReallocEngine::Reference;
    const ReallocateReport reference = run_engine(options);
    options.engine = ReallocEngine::Incremental;
    const ReallocateReport incremental = run_engine(options);
    EXPECT_TRUE(incremental == reference);
    EXPECT_LE(reference.critical_after_ps, reference.critical_before_ps + 1e-9);

    // Scatter seed 3 runs the reject/rollback path in both engines.
    options.engine = ReallocEngine::Reference;
    const ReallocateReport rejecting = run_engine(options, 3);
    obs::Recorder recorder;
    options.engine = ReallocEngine::Incremental;
    options.recorder = &recorder;
    EXPECT_TRUE(run_engine(options, 3) == rejecting);
    EXPECT_GT(recorder.metrics().value("realloc.moves_rejected_total"), 0.0);
}

// A recorder only observes: the report is the one a plain run produces,
// and the analysis counter accounts for every full timing analysis. Both
// engines analyse once before, once after, and once per chosen move.
TEST(ReallocateEngine, RecorderCountsEveryTimingAnalysis) {
    for (const std::uint64_t seed : {5u, 3u})
        for (const double slack : {1.10, 1.0})
            for (const ReallocEngine engine :
                 {ReallocEngine::Incremental, ReallocEngine::Reference}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " slack " +
                             std::to_string(slack) + " engine " +
                             std::to_string(static_cast<int>(engine)));
                ReallocateOptions options = base_options();
                options.timing_slack = slack;
                options.engine = engine;
                const ReallocateReport plain = run_engine(options, seed);
                obs::Recorder recorder;
                options.recorder = &recorder;
                const ReallocateReport traced = run_engine(options, seed);
                EXPECT_TRUE(traced == plain);

                const obs::MetricRegistry& m = recorder.metrics();
                const double analyses = m.value("realloc.timing_analyses_total");
                const double commits = m.value("realloc.moves_committed_total");
                const double rejects = m.value("realloc.moves_rejected_total");
                EXPECT_GT(commits + rejects, 0.0);
                EXPECT_EQ(analyses, 2.0 + commits + rejects);
            }
}

// ------------------------------------------------- adjacency index

TEST(ReallocateEngine, IndexMatchesNaiveSetBuilders) {
    Scenario s;
    const netlist::CellNetIndex cells(s.d.nl);
    const ReallocIndex index(s.placement, cells);
    const PackedDesign& packed = s.placement.design();

    for (std::uint32_t si = 0; si < packed.slice_count(); ++si) {
        const SliceId slice{si};
        std::set<NetId> expected;
        const PackedSlice& ps = packed.slices()[si];
        auto add_cell = [&](CellId cell) {
            for (const NetId net : cells.nets_of(cell))
                if (!s.placement.dedicated_net(net)) expected.insert(net);
        };
        for (const CellId cell : ps.luts) add_cell(cell);
        for (const CellId cell : ps.ffs) add_cell(cell);

        const auto got = index.nets_of(slice);
        ASSERT_EQ(got.size(), expected.size()) << "slice " << si;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
    }

    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        std::set<SliceId> expected;
        for (const CellId cell : cells.cells_of(net)) {
            const SliceId slice = packed.slice_of(cell);
            if (slice.valid()) expected.insert(slice);
        }
        const auto got = index.slices_of(net);
        ASSERT_EQ(got.size(), expected.size()) << "net " << ni;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
    }
}

// ------------------------------------------------- power cache

TEST(ReallocateEngine, PowerCacheTracksReroutes) {
    Scenario s;
    const double vdd = 1.2;
    NetPowerCache cache(s.routed, s.activity, vdd);

    double fresh_total = 0.0;
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        const double fresh = net_power_uw(s.routed, net, s.activity, vdd);
        EXPECT_DOUBLE_EQ(cache.net_uw(net), fresh);
        fresh_total += fresh;
    }
    EXPECT_DOUBLE_EQ(cache.exact_total_uw(), fresh_total);

    // Re-route every non-dedicated net on low-power wires; refresh must keep
    // the cache exact.
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        if (s.placement.dedicated_net(net) || !s.d.nl.net(net).driven()) continue;
        s.routed.reroute_net(net, RouteMode::LowPower);
        cache.refresh(net);
        EXPECT_DOUBLE_EQ(cache.net_uw(net),
                         net_power_uw(s.routed, net, s.activity, vdd));
    }
    double rerouted_total = 0.0;
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni)
        rerouted_total += net_power_uw(s.routed, NetId{ni}, s.activity, vdd);
    EXPECT_EQ(cache.exact_total_uw(), rerouted_total);
}

// ------------------------------------------------- trial routing

TEST(ReallocateEngine, TrialRouteMatchesLiveRoute) {
    Scenario s;
    RouteScratch scratch;
    TrialReference reference;
    int checked = 0;
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count() && checked < 8; ++ni) {
        const NetId net{ni};
        if (s.placement.dedicated_net(net) || !s.d.nl.net(net).driven()) continue;
        const SliceId slice = s.placement.design().slice_of(s.d.nl.net(net).driver.cell);
        if (!slice.valid()) continue;

        // Trial-cost the net "as if" its driver slice sat where it already
        // sits, against the same base occupancy a live re-route would see.
        s.routed.unroute_net(net);
        const NetId nets[] = {net};
        s.routed.trial_reference(nets, slice, s.placement.slice_pos(slice),
                                 RouteMode::LowPower, reference, scratch);
        const double trial = reference.net_capacitance_pf()[0];
        s.routed.reroute_net(net, RouteMode::LowPower);
        EXPECT_EQ(s.routed.route(net).capacitance_pf(), trial) << "net " << ni;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

// ------------------------------------------------- candidate trial reuse

struct TrialCounts {
    long candidates = 0;
    long connections = 0;
    long rerouted = 0;
    long flip_rerouted = 0;  ///< re-routes of connections off the moved slice
};

// Differential oracle for the reuse trial: for every free site within
// `radius` tiles of `slice`, trial_candidate must equal a full sequential
// trial route of the affected nets at that site, bitwise per net. The
// affected nets are ripped up first, as the engine does, and restored on
// LowPower wires afterwards; the last candidate is also routed live, which
// ties the full trial to reroute_net.
void expect_reuse_matches_full(Placement& placement, RoutedDesign& routed,
                               const ReallocIndex& index, SliceId slice, int radius,
                               TrialCounts& counts) {
    const auto affected = index.nets_of(slice);
    if (affected.empty()) return;
    for (const NetId a : affected) routed.unroute_net(a);
    const SliceCoord original = placement.slice_pos(slice);
    RouteScratch scratch;
    RouteScratch full_scratch;
    TrialReference reference;
    TrialReference full;
    routed.trial_reference(affected, slice, original, RouteMode::LowPower, reference,
                           scratch);
    const auto moved = static_cast<long>(reference.moved_connection_count());
    std::vector<SliceCoord> targets;
    const Device& dev = placement.device();
    for (int dy = -radius; dy <= radius; ++dy)
        for (int dx = -radius; dx <= radius; ++dx) {
            const SliceCoord target{original.x + dx, original.y + dy, 0};
            if (target.x < 0 || target.x >= dev.cols() || target.y < 0 ||
                target.y >= dev.rows() || placement.slice_at(target).valid())
                continue;
            targets.push_back(target);
        }
    for (const SliceCoord& target : targets) {
        const std::span<const double> got =
            routed.trial_candidate(reference, target, scratch);
        const RouteScratch::Tally tally = scratch.take_tally();
        routed.trial_reference(affected, slice, target, RouteMode::LowPower, full,
                               full_scratch);
        ASSERT_EQ(got.size(), affected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], full.net_capacitance_pf()[i])
                << "slice " << slice.value() << " target " << target.x << ","
                << target.y << " net " << affected[i].value();
        ++counts.candidates;
        counts.connections += tally.connections;
        counts.rerouted += tally.rerouted;
        counts.flip_rerouted += tally.rerouted - moved;
    }
    if (!targets.empty()) {
        placement.swap_sites(original, targets.back());
        for (const NetId a : affected) routed.reroute_net(a, RouteMode::LowPower);
        for (std::size_t i = 0; i < affected.size(); ++i)
            EXPECT_EQ(routed.route(affected[i]).capacitance_pf(),
                      full.net_capacitance_pf()[i]);
        for (const NetId a : affected) routed.unroute_net(a);
        placement.swap_sites(targets.back(), original);
    }
    for (const NetId a : affected) routed.reroute_net(a, RouteMode::LowPower);
}

TEST(ReallocateEngine, TrialReuseMatchesFullTrialOnScatteredDesigns) {
    TrialCounts counts;
    for (const std::uint64_t seed : {5u, 3u, 7u}) {
        Scenario s(seed);
        const netlist::CellNetIndex cells(s.d.nl);
        const ReallocIndex index(s.placement, cells);
        for (std::uint32_t si = 0; si < s.placement.design().slice_count(); ++si)
            expect_reuse_matches_full(s.placement, s.routed, index, SliceId{si}, 4,
                                      counts);
    }
    EXPECT_GT(counts.candidates, 0);
    EXPECT_GT(counts.rerouted, 0);
    EXPECT_LT(counts.rerouted, counts.connections);
}

// A congested Table-2 slice (XC3S1000, placer seed 4, effort 0.15): channels
// near capacity make candidate diffs flip tiles between full and free, which
// forces re-routes of connections that do not touch the moved slice, some of
// which change route. Slice 4583 holds a sink of net 15878, the third net
// the seed-4 flow optimises; its 9 affected nets carry 784 connections per
// trial.
constexpr std::uint32_t kTable2Slice = 4583;

TEST(ReallocateEngine, TrialReuseMatchesFullTrialOnCongestedTable2Slice) {
    const app::SystemNetlist sys = app::build_system_netlist({});
    const PackedDesign packed = pack(sys.nl);
    const Device dev(PartName::XC3S1000);
    Placement placement(dev, sys.nl, packed);
    placement.place_initial();
    PlacerOptions placer;
    placer.seed = 4;
    placer.effort = 0.15;
    (void)anneal(placement, placer);
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);
    const netlist::CellNetIndex cells(sys.nl);
    const ReallocIndex index(placement, cells);

    TrialCounts counts;
    expect_reuse_matches_full(placement, routed, index, SliceId{kTable2Slice}, 4, counts);
    EXPECT_GT(counts.candidates, 0);
    EXPECT_LT(counts.rerouted, counts.connections);
    EXPECT_GT(counts.flip_rerouted, 0);
}

// ------------------------------------------------- capacity contract

TEST(ReallocateEngine, ChannelCapacityRejectsOutOfEnumWireType) {
    const ChannelCapacity capacity;
    EXPECT_THROW((void)capacity.of(static_cast<fabric::WireType>(99)),
                 ContractViolation);
}

}  // namespace
}  // namespace refpga::par
