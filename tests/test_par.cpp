#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/random_netlist.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::par {

void PrintTo(const PlacerResult& r, std::ostream* os) {
    *os << "{initial " << r.initial_cost << ", final " << r.final_cost << ", tried "
        << r.moves_tried << ", accepted " << r.moves_accepted << "}";
}

namespace {

using fabric::Device;
using fabric::PartName;
using fabric::Region;
using fabric::SliceCoord;
using netlist::Builder;
using netlist::Bus;
using netlist::Netlist;
using netlist::NetId;
using netlist::PartitionId;

struct Design {
    Netlist nl;
    NetId clk;
    Design() { clk = nl.add_input_port("clk", 1)[0]; }
};

// ---------------------------------------------------------------- pack

TEST(Pack, PairsLutWithDrivenFf) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 2);
    const NetId lut = b.and_(a[0], a[1]);
    const NetId q = b.ff(lut);
    d.nl.add_output_port("q", Bus{q});
    const PackedDesign packed = pack(d.nl);
    const auto lut_cell = d.nl.net(lut).driver.cell;
    const auto ff_cell = d.nl.net(q).driver.cell;
    EXPECT_EQ(packed.slice_of(lut_cell), packed.slice_of(ff_cell));
}

TEST(Pack, TwoLutsPerSlice) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 8);
    d.nl.add_output_port("o", b.not_bus(a));
    const PackedDesign packed = pack(d.nl);
    EXPECT_EQ(packed.slice_count(), 4u);
}

TEST(Pack, PartitionsNeverShareSlices) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 3);
    (void)b.not_bus(a);
    const PartitionId p1 = d.nl.add_partition("mod");
    d.nl.set_current_partition(p1);
    (void)b.not_bus(a);
    const PackedDesign packed = pack(d.nl);
    for (const PackedSlice& s : packed.slices()) {
        for (const auto cell : s.luts)
            EXPECT_EQ(d.nl.cell(cell).partition, s.partition);
        for (const auto cell : s.ffs)
            EXPECT_EQ(d.nl.cell(cell).partition, s.partition);
    }
    const auto counts = packed.slices_per_partition(d.nl);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
}

TEST(Pack, SeparatesBramMultPads) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus addr = d.nl.add_input_port("addr", 5);
    (void)b.rom_bram(addr, {1, 2, 3}, 8);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("p", b.mul_mult18(x, x, 16, 0));
    const PackedDesign packed = pack(d.nl);
    EXPECT_EQ(packed.brams().size(), 1u);
    EXPECT_EQ(packed.mults().size(), 1u);
    EXPECT_GT(packed.pads().size(), 0u);
}

// ---------------------------------------------------------------- placement

struct Placed {
    Design d;
    PackedDesign packed;
    Device dev{PartName::XC3S200};

    explicit Placed(int counter_bits = 8) {
        Builder b(d.nl, d.clk);
        const Bus q = b.counter(counter_bits);
        d.nl.add_output_port("q", q);
        packed = pack(d.nl);
    }
};

TEST(Placement, InitialPlacementIsLegal) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    std::set<std::tuple<int, int, int>> seen;
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(p.dev.valid_slice(pos));
        EXPECT_TRUE(seen.insert({pos.x, pos.y, pos.index}).second) << "overlap";
        EXPECT_EQ(placement.slice_at(pos), SliceId{i});
    }
}

TEST(Placement, RegionConstraintRespected) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    const Region region{0, 4, 0, 4};
    placement.constrain(PartitionId{0}, region);
    placement.place_initial();
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(region.contains(pos.x, pos.y));
    }
}

TEST(Placement, TooSmallRegionThrows) {
    Placed p(32);
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.constrain(PartitionId{0}, Region{0, 1, 0, 1});
    EXPECT_THROW(placement.place_initial(), ContractViolation);
}

TEST(Placement, SwapSitesMovesBoth) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    const SliceCoord a = placement.slice_pos(SliceId{0});
    const SliceCoord empty{p.dev.cols() - 1, p.dev.rows() - 1, 3};
    ASSERT_FALSE(placement.slice_at(empty).valid());
    placement.swap_sites(a, empty);
    EXPECT_EQ(placement.slice_pos(SliceId{0}), empty);
    EXPECT_FALSE(placement.slice_at(a).valid());
}

TEST(Placement, RejectsEmptyOrInvertedRegion) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    EXPECT_THROW(placement.constrain(PartitionId{0}, Region{3, 3, 0, 4}),
                 ContractViolation);
    EXPECT_THROW(placement.constrain(PartitionId{0}, Region{0, 4, 2, 2}),
                 ContractViolation);
    EXPECT_THROW(placement.constrain(PartitionId{0}, Region{5, 2, 0, 4}),
                 ContractViolation);
    EXPECT_THROW(placement.constrain(PartitionId{0}, Region{0, 4, 6, 1}),
                 ContractViolation);
    placement.constrain(PartitionId{0}, Region{0, 1, 0, 1});
}

TEST(Placement, ClockNetsAreDedicated) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    EXPECT_TRUE(placement.dedicated_net(p.d.clk));
    EXPECT_EQ(placement.net_hpwl(p.d.clk), 0);
}

// ---------------------------------------------------------------- placer

TEST(Placer, AnnealReducesOrKeepsCost) {
    Placed p(16);
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    PlacerOptions options;
    options.seed = 3;
    options.effort = 0.5;
    const PlacerResult result = anneal(placement, options);
    EXPECT_LE(result.final_cost, result.initial_cost);
    EXPECT_GT(result.moves_tried, 0);
}

TEST(Placer, PreservesLegalityAndRegions) {
    Placed p(16);
    Placement placement(p.dev, p.d.nl, p.packed);
    const Region region{0, 6, 0, 6};
    placement.constrain(PartitionId{0}, region);
    placement.place_initial();
    PlacerOptions options;
    options.effort = 0.3;
    (void)anneal(placement, options);
    std::set<std::tuple<int, int, int>> seen;
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(region.contains(pos.x, pos.y));
        EXPECT_TRUE(seen.insert({pos.x, pos.y, pos.index}).second);
    }
}

TEST(Placer, DeterministicForSeed) {
    Placed p1(12);
    Placed p2(12);
    Placement a(p1.dev, p1.d.nl, p1.packed);
    Placement b(p2.dev, p2.d.nl, p2.packed);
    a.place_initial();
    b.place_initial();
    PlacerOptions options;
    options.seed = 99;
    options.effort = 0.3;
    (void)anneal(a, options);
    (void)anneal(b, options);
    for (std::uint32_t i = 0; i < p1.packed.slice_count(); ++i)
        EXPECT_EQ(a.slice_pos(SliceId{i}), b.slice_pos(SliceId{i}));
}

TEST(Placer, RejectsInvalidOptions) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    auto rejects = [&](auto mutate) {
        PlacerOptions options;
        mutate(options);
        EXPECT_THROW((void)anneal(placement, options), ContractViolation);
    };
    rejects([](PlacerOptions& o) { o.cooling = 1.0; });
    rejects([](PlacerOptions& o) { o.cooling = 0.0; });
    rejects([](PlacerOptions& o) { o.cooling = 1.5; });
    rejects([](PlacerOptions& o) { o.effort = 0.0; });
    rejects([](PlacerOptions& o) { o.initial_temperature = 0.0; });
    rejects([](PlacerOptions& o) { o.final_temperature = 0.0; });
    rejects([](PlacerOptions& o) { o.final_temperature = -1.0; });
    rejects([](PlacerOptions& o) { o.activity_beta = -0.5; });
    rejects([](PlacerOptions& o) { o.activity_beta = std::nan(""); });
}

// The original annealer, kept here as the oracle for par::anneal: every move
// swaps the two sites, rescans every net on both slices with net_hpwl, and
// swaps back when the move is rejected. `running_cost` receives its running
// cost (initial cost plus accepted deltas).
PlacerResult oracle_anneal(Placement& placement, const PlacerOptions& options,
                           const sim::ActivityMap* activity, double& running_cost) {
    const auto& nl = placement.nl();
    const auto& design = placement.design();
    Rng rng(options.seed);
    std::vector<double> weight(nl.net_count(), 1.0);
    if (activity != nullptr && options.activity_beta > 0.0) {
        double max_rate = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            max_rate = std::max(max_rate, activity->rate_hz(NetId{i}));
        if (max_rate > 0.0)
            for (std::uint32_t i = 0; i < nl.net_count(); ++i)
                weight[i] = 1.0 + options.activity_beta *
                                      activity->rate_hz(NetId{i}) / max_rate;
    }
    std::vector<std::vector<NetId>> slice_nets(design.slice_count());
    for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni) {
        if (placement.dedicated_net(NetId{ni})) continue;
        auto touch = [&](netlist::CellId cell) {
            const SliceId s = design.slice_of(cell);
            if (!s.valid()) return;
            auto& list = slice_nets[s.value()];
            if (list.empty() || list.back() != NetId{ni}) list.push_back(NetId{ni});
        };
        touch(nl.net(NetId{ni}).driver.cell);
        for (const auto& sink : nl.net(NetId{ni}).sinks) touch(sink.cell);
    }
    auto net_cost = [&](NetId n) { return weight[n.value()] * placement.net_hpwl(n); };
    auto full_cost = [&] {
        double c = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i) c += net_cost(NetId{i});
        return c;
    };
    auto slices_cost = [&](std::uint32_t si, SliceId other) {
        double c = 0.0;
        for (const NetId n : slice_nets[si]) c += net_cost(n);
        if (other.valid())
            for (const NetId n : slice_nets[other.value()]) c += net_cost(n);
        return c;
    };

    PlacerResult result;
    running_cost = full_cost();
    result.initial_cost = std::lround(running_cost);
    if (design.slice_count() < 2) {
        result.final_cost = result.initial_cost;
        return result;
    }
    const long moves_per_temp = std::max<long>(
        64, std::lround(options.effort * 8.0 * static_cast<double>(design.slice_count())));
    for (double temp = options.initial_temperature; temp > options.final_temperature;
         temp *= options.cooling) {
        for (long m = 0; m < moves_per_temp; ++m) {
            ++result.moves_tried;
            const std::uint32_t si =
                rng.next_below(static_cast<std::uint32_t>(design.slice_count()));
            const Region region = placement.region_of(design.slices()[si].partition);
            SliceCoord target;
            target.x = region.x_begin + static_cast<int>(rng.next_below(
                                            static_cast<std::uint32_t>(region.width())));
            target.y = region.y_begin + static_cast<int>(rng.next_below(
                                            static_cast<std::uint32_t>(region.height())));
            target.index = static_cast<int>(rng.next_below(Device::kSlicesPerClb));
            const SliceCoord source = placement.slice_pos(SliceId{si});
            if (source == target) continue;
            const SliceId other = placement.slice_at(target);
            if (other.valid() &&
                !placement.region_of(design.slices()[other.value()].partition)
                     .contains(source.x, source.y))
                continue;
            const double before = slices_cost(si, other);
            placement.swap_sites(source, target);
            const double delta = slices_cost(si, other) - before;
            if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
                running_cost += delta;
                ++result.moves_accepted;
            } else {
                placement.swap_sites(source, target);
            }
        }
    }
    result.final_cost = std::lround(full_cost());
    return result;
}

/// FNV-1a over every slice's (x, y, index), in slice order.
std::uint64_t placement_hash(const Placement& placement) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&](int v) {
        for (int b = 0; b < 4; ++b) {
            hash ^= (static_cast<std::uint32_t>(v) >> (8 * b)) & 0xffU;
            hash *= 0x100000001b3ULL;
        }
    };
    for (std::uint32_t i = 0; i < placement.design().slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        mix(pos.x);
        mix(pos.y);
        mix(pos.index);
    }
    return hash;
}

/// Checks the annealer's final caches against a full recompute.
void expect_state_matches(const Placement& placement, const AnnealState& state,
                          bool unit_weights) {
    const std::uint32_t nets = static_cast<std::uint32_t>(placement.nl().net_count());
    ASSERT_EQ(state.cached_hpwl.size(), nets);
    for (std::uint32_t i = 0; i < nets; ++i)
        EXPECT_EQ(state.cached_hpwl[i], placement.net_hpwl(NetId{i})) << "net " << i;
    if (unit_weights) {
        EXPECT_EQ(state.running_cost, static_cast<double>(placement.total_hpwl()));
    }
}

/// Runs par::anneal and the oracle on two copies of one initial placement
/// and requires the same result, running cost and slice positions.
void expect_matches_oracle(const Netlist& nl, const Device& dev,
                           const std::vector<std::pair<PartitionId, Region>>& regions,
                           const PlacerOptions& options,
                           const sim::ActivityMap* activity, const std::string& label) {
    SCOPED_TRACE(label);
    const PackedDesign packed = pack(nl);
    Placement fast(dev, nl, packed);
    Placement slow(dev, nl, packed);
    for (const auto& [part, region] : regions) {
        fast.constrain(part, region);
        slow.constrain(part, region);
    }
    fast.place_initial();
    slow.place_initial();
    AnnealState state;
    const PlacerResult got = anneal(fast, options, activity, &state);
    double oracle_cost = 0.0;
    const PlacerResult want = oracle_anneal(slow, options, activity, oracle_cost);
    EXPECT_EQ(got, want);
    EXPECT_GT(got.moves_accepted, 0);
    EXPECT_EQ(state.running_cost, oracle_cost);
    for (std::uint32_t i = 0; i < packed.slice_count(); ++i)
        ASSERT_EQ(fast.slice_pos(SliceId{i}), slow.slice_pos(SliceId{i})) << "slice " << i;
    expect_state_matches(fast, state, activity == nullptr || options.activity_beta == 0.0);
}

sim::ActivityMap simulated_activity(const Netlist& nl, int cycles) {
    sim::Simulator simulator(nl);
    simulator.run(cycles);
    return sim::activity_from_simulation(simulator, 50e6);
}

TEST(Placer, MatchesOracleOnRandomNetlists) {
    const Device dev(PartName::XC3S200);
    for (std::uint64_t design = 1; design <= 30; ++design) {
        sim::RandomNetlistOptions opts;
        opts.luts = 30 + 10 * static_cast<int>(design % 6);
        opts.ffs = 8 + static_cast<int>(design % 9);
        const Netlist nl = sim::random_netlist(design, opts);
        const sim::ActivityMap activity = simulated_activity(nl, 256);
        // Every third design is packed into a small region, so pins share
        // box edges often and edge counts are exercised hard.
        std::vector<std::pair<PartitionId, Region>> regions;
        if (design % 3 == 0) regions.push_back({PartitionId{0}, Region{2, 8, 3, 9}});
        for (const std::uint64_t seed : {design, design + 100})
            for (const double beta : {0.0, 0.5}) {
                PlacerOptions options;
                options.seed = seed;
                options.effort = 0.5;
                options.activity_beta = beta;
                expect_matches_oracle(nl, dev, regions, options, &activity,
                                      "design " + std::to_string(design) + " seed " +
                                          std::to_string(seed) + " beta " +
                                          std::to_string(beta));
            }
    }
}

TEST(Placer, MatchesOracleOnConstrainedPartitions) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(10);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("p", b.mul_mult18(x, Bus(q.begin(), q.begin() + 8), 16, 0));
    const PartitionId mod = d.nl.add_partition("mod");
    d.nl.set_current_partition(mod);
    Bus y = b.counter(8);
    for (int i = 0; i < 3; ++i) y = b.not_bus(y);
    d.nl.add_output_port("o", b.not_bus(Bus(q.begin(), q.begin() + 8)));
    d.nl.add_output_port("y", y);
    const sim::ActivityMap activity = simulated_activity(d.nl, 512);
    const Device dev(PartName::XC3S200);
    // Overlapping regions: a swap into the overlap may meet the other
    // partition's slices, which the region check must refuse.
    const std::vector<std::pair<PartitionId, Region>> regions = {
        {PartitionId{0}, Region{0, 6, 0, 6}}, {mod, Region{4, 10, 2, 8}}};
    for (const std::uint64_t seed : {3u, 4u})
        for (const double beta : {0.0, 0.5}) {
            PlacerOptions options;
            options.seed = seed;
            options.effort = 1.0;
            options.activity_beta = beta;
            expect_matches_oracle(d.nl, dev, regions, options, &activity,
                                  "seed " + std::to_string(seed) + " beta " +
                                      std::to_string(beta));
        }
}

// The Table-2 system netlist on the XC3S1000 at the §4.3 flow's effort,
// placer seed 4: pins the annealer's whole trajectory.
TEST(Placer, Table2TrajectoryPinned) {
    const app::SystemNetlist sys = app::build_system_netlist({});
    const PackedDesign packed = pack(sys.nl);
    const Device dev(PartName::XC3S1000);
    Placement placement(dev, sys.nl, packed);
    placement.place_initial();
    PlacerOptions options;
    options.seed = 4;
    options.effort = 0.15;
    AnnealState state;
    const PlacerResult result = anneal(placement, options, nullptr, &state);
    EXPECT_EQ(result.initial_cost, 96282);
    EXPECT_EQ(result.final_cost, 79677);
    EXPECT_EQ(result.moves_tried, 309308);
    EXPECT_EQ(result.moves_accepted, 2339);
    EXPECT_EQ(placement_hash(placement), 0xdcb89e9255ad3d5cULL);
    expect_state_matches(placement, state, true);
}

TEST(Placer, RecorderLeavesPlacementUnchanged) {
    Placed p1(16);
    Placed p2(16);
    Placement plain(p1.dev, p1.d.nl, p1.packed);
    Placement traced(p2.dev, p2.d.nl, p2.packed);
    plain.place_initial();
    traced.place_initial();
    PlacerOptions options;
    options.seed = 11;
    options.effort = 0.5;
    const PlacerResult want = anneal(plain, options);
    obs::Recorder recorder;
    options.recorder = &recorder;
    const PlacerResult got = anneal(traced, options);
    EXPECT_EQ(got, want);
    EXPECT_EQ(placement_hash(traced), placement_hash(plain));

    const obs::MetricRegistry& m = recorder.metrics();
    EXPECT_EQ(m.value("anneal.moves_tried_total"), static_cast<double>(got.moves_tried));
    EXPECT_EQ(m.value("anneal.moves_accepted_total"),
              static_cast<double>(got.moves_accepted));
    // ceil(ln(0.05 / 4) / ln(0.92)) steps from 4.0 down past 0.05.
    EXPECT_EQ(m.value("anneal.temperature_steps_total"), 53.0);
    EXPECT_GT(m.value("anneal.bbox_rescans_total"), 0.0);
    EXPECT_EQ(m.value("anneal.final_cost"), static_cast<double>(got.final_cost));
    EXPECT_EQ(m.snapshot(m.find("anneal.wall_seconds")).count, 1);
    EXPECT_EQ(recorder.trace().pushed(), 1u);
}

// ---------------------------------------------------------------- router

struct Routed {
    Placed p;
    Placement placement;
    explicit Routed(int bits = 12) : p(bits), placement(p.dev, p.d.nl, p.packed) {
        placement.place_initial();
    }
};

// The Table-2 system netlist on the XC3S1000, annealed at the §4.3 flow's
// effort with placer seed 4.
struct Table2 {
    app::SystemNetlist sys = app::build_system_netlist({});
    PackedDesign packed = pack(sys.nl);
    Device dev{PartName::XC3S1000};
    Placement placement{dev, sys.nl, packed};
    Table2() {
        placement.place_initial();
        PlacerOptions options;
        options.seed = 4;
        options.effort = 0.15;
        (void)anneal(placement, options);
    }
};

TEST(Router, RoutesAllNets) {
    Routed r;
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i) {
        const NetId net{i};
        if (r.placement.dedicated_net(net)) continue;
        const auto& nr = routed.route(net);
        EXPECT_TRUE(nr.routed);
        EXPECT_EQ(nr.sinks.size(), r.p.d.nl.net(net).sinks.size());
    }
}

TEST(Router, LowPowerModeUsesLessCapacitance) {
    Routed r(16);
    RoutedDesign perf(r.placement, {});
    perf.route_all(RouteMode::Performance);
    RoutedDesign low(r.placement, {});
    low.route_all(RouteMode::LowPower);
    EXPECT_LE(low.total_capacitance_pf(), perf.total_capacitance_pf());
}

TEST(Router, PerformanceModeIsFasterOnLongNets) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 1);
    const NetId n1 = b.not_(a[0]);
    // The consumer lives in another partition constrained to the far corner,
    // so net n1 must span the device.
    const auto far = d.nl.add_partition("far");
    d.nl.set_current_partition(far);
    const NetId n2 = b.not_(n1);
    d.nl.add_output_port("o", Bus{n2});
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S400);
    Placement placement(dev, d.nl, packed);
    placement.constrain(PartitionId{0}, Region{0, 2, 0, 2});
    placement.constrain(far, Region{dev.cols() - 2, dev.cols(), dev.rows() - 2,
                                    dev.rows()});
    placement.place_initial();

    RoutedDesign perf(placement, {});
    perf.route_all(RouteMode::Performance);
    RoutedDesign low(placement, {});
    low.route_all(RouteMode::LowPower);
    EXPECT_LT(perf.route(n1).max_delay_ps(), low.route(n1).max_delay_ps());
    EXPECT_LT(low.route(n1).capacitance_pf(), perf.route(n1).capacitance_pf());
}

TEST(Router, ReRouteReleasesChannels) {
    Routed r(16);
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    const double before = routed.total_capacitance_pf();
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i)
            if (!r.placement.dedicated_net(NetId{i}))
                routed.reroute_net(NetId{i}, RouteMode::Performance);
    EXPECT_NEAR(routed.total_capacitance_pf(), before, before * 0.1);
}

TEST(Router, RenderRouteShowsDriver) {
    Routed r;
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i) {
        const NetId net{i};
        if (r.placement.dedicated_net(net) || r.p.d.nl.net(net).sinks.empty())
            continue;
        const std::string view = render_route(routed, net);
        EXPECT_NE(view.find('D'), std::string::npos);
        break;
    }
}

TEST(Router, SwitchPowerFormula) {
    // 10 pF at 50 MHz toggle, 1.2 V: P = 0.5 * 10e-12 * 1.44 * 50e6 = 360 uW.
    EXPECT_NEAR(switch_power_uw(10.0, 50e6, 1.2), 360.0, 1e-6);
}

// ---------------------------------------------------------------- timing

// Pins the Table-2 Performance routing (seed 4), overflow included: the
// router overcommits its channels there (ROADMAP item 1), and a change to
// the net order or to a segment decision moves both numbers.
TEST(Router, Table2RoutingPinned) {
    const Table2 t;
    RoutedDesign routed(t.placement, {});
    routed.route_all(RouteMode::Performance);
    EXPECT_EQ(routed.overflow_count(), 177715);
    EXPECT_EQ(routed.total_capacitance_pf(), 0x1.6e629999998c1p+15);  // 46 897.2 pF

    // The count describes the live routing: ripping a net up releases its
    // share, so a design with every net ripped up overcommits nothing.
    for (std::uint32_t i = 0; i < t.sys.nl.net_count(); ++i) routed.unroute_net(NetId{i});
    EXPECT_EQ(routed.overflow_count(), 0);
}

TEST(Timing, DeeperLogicHasLongerCriticalPath) {
    auto critical_for = [](int depth) {
        Design d;
        Builder b(d.nl, d.clk);
        const Bus a = d.nl.add_input_port("a", 1);
        NetId n = b.ff(a[0]);
        for (int i = 0; i < depth; ++i) n = b.not_(n);
        (void)b.ff(n);
        const PackedDesign packed = pack(d.nl);
        const Device dev(PartName::XC3S200);
        Placement placement(dev, d.nl, packed);
        placement.place_initial();
        RoutedDesign routed(placement, {});
        routed.route_all(RouteMode::Performance);
        return analyze_timing(routed).critical_path_ps;
    };
    const double d2 = critical_for(2);
    const double d8 = critical_for(8);
    EXPECT_GT(d8, d2);
    EXPECT_GT(d2, 0.0);
}

TEST(Timing, ReportsCriticalCells) {
    Routed r(8);
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    const TimingReport report = analyze_timing(routed);
    EXPECT_GT(report.critical_path_ps, 0.0);
    EXPECT_FALSE(report.critical_cells.empty());
    EXPECT_GT(report.fmax_mhz(), 0.0);
}

// The original worklist analysis, kept here as the oracle for
// par::analyze_timing: launch cells seed a LIFO worklist, and a cell is
// pushed again every time its arrival rises. Returns the critical path.
double oracle_critical_path_ps(const RoutedDesign& routed, const CellDelays& delays) {
    const auto& nl = routed.placement().nl();
    using netlist::Cell;
    using netlist::CellKind;
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
            default: return 0.0;
        }
    };
    auto net_sink_delay = [&](NetId net, const netlist::PinRef& sink,
                              std::size_t sink_idx) {
        const NetRoute& r = routed.route(net);
        if (sink_idx < r.sinks.size() && r.sinks[sink_idx].sink == sink)
            return r.sinks[sink_idx].delay_ps;
        for (const auto& s : r.sinks)
            if (s.sink == sink) return s.delay_ps;
        return RoutedDesign::kPinDelayPs;
    };
    std::vector<double> arrival(nl.cell_count(), -1.0);
    std::vector<std::uint32_t> worklist;
    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const Cell& c = nl.cell(netlist::CellId{i});
        if (c.sequential() || c.kind == CellKind::Inpad || c.kind == CellKind::Gnd ||
            c.kind == CellKind::Vcc) {
            arrival[i] = launch_delay(c);
            worklist.push_back(i);
        }
    }
    double critical = 0.0;
    while (!worklist.empty()) {
        const std::uint32_t ci = worklist.back();
        worklist.pop_back();
        for (const NetId out : nl.cell(netlist::CellId{ci}).outputs) {
            if (!out.valid()) continue;
            const auto& n = nl.net(out);
            if (n.is_clock) continue;
            for (std::size_t si = 0; si < n.sinks.size(); ++si) {
                const auto& sink = n.sinks[si];
                const Cell& sc = nl.cell(sink.cell);
                double t = arrival[ci] + net_sink_delay(out, sink, si);
                if (sc.sequential() || sc.kind == CellKind::Outpad) {
                    const double total =
                        t + (sc.kind == CellKind::Ff ? delays.ff_setup_ps : 0.0);
                    critical = std::max(critical, total);
                    continue;
                }
                t += cell_delay(sc);
                if (t > arrival[sink.cell.value()]) {
                    arrival[sink.cell.value()] = t;
                    worklist.push_back(sink.cell.value());
                }
            }
        }
    }
    return critical;
}

bool starts_path(const netlist::Cell& c) {
    using netlist::CellKind;
    return c.sequential() || c.kind == CellKind::Inpad || c.kind == CellKind::Gnd ||
           c.kind == CellKind::Vcc;
}

/// Delay of one launch-to-capture cell list, summed in the analysis's
/// operation order, or -1 if two neighbours are not connected.
double path_delay_ps(const RoutedDesign& routed,
                     const std::vector<netlist::CellId>& cells,
                     const CellDelays& delays) {
    using netlist::CellKind;
    const auto& nl = routed.placement().nl();
    if (cells.size() < 2) return -1.0;
    // Slowest connection from `from` into `to` (the analysis takes the max).
    auto wire = [&](netlist::CellId from, netlist::CellId to) {
        double worst = -1.0;
        for (const NetId out : nl.cell(from).outputs) {
            if (!out.valid() || nl.net(out).is_clock) continue;
            const NetRoute& r = routed.route(out);
            for (const auto& sink : nl.net(out).sinks) {
                if (sink.cell != to) continue;
                double d = RoutedDesign::kPinDelayPs;
                for (const auto& s : r.sinks)
                    if (s.sink == sink) d = s.delay_ps;
                worst = std::max(worst, d);
            }
        }
        return worst;
    };
    const auto& first = nl.cell(cells.front());
    double t = first.kind == CellKind::Ff     ? delays.ff_clk_to_q_ps
               : first.kind == CellKind::Bram ? delays.bram_clk_to_q_ps
                                              : 0.0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const double w = wire(cells[i - 1], cells[i]);
        if (w < 0.0) return -1.0;
        t += w;
        const auto& c = nl.cell(cells[i]);
        if (i + 1 == cells.size()) {
            if (c.kind == CellKind::Ff) t += delays.ff_setup_ps;
        } else if (c.kind == CellKind::Lut) {
            t += delays.lut_ps;
        } else if (c.kind == CellKind::Mult18) {
            t += delays.mult_ps;
        }
    }
    return t;
}

/// The reported path starts at exactly one launch cell, crosses only
/// combinational cells, ends at a capture cell, and sums to the critical
/// path bit for bit.
void expect_well_formed_path(const RoutedDesign& routed, const TimingReport& report,
                             const CellDelays& delays) {
    const auto& nl = routed.placement().nl();
    const auto& cells = report.critical_cells;
    ASSERT_GE(cells.size(), 2u);
    EXPECT_TRUE(starts_path(nl.cell(cells.front())));
    const auto& last = nl.cell(cells.back());
    EXPECT_TRUE(last.sequential() || last.kind == netlist::CellKind::Outpad);
    for (std::size_t i = 1; i + 1 < cells.size(); ++i)
        EXPECT_FALSE(starts_path(nl.cell(cells[i]))) << "cell " << i << " of the path";
    EXPECT_EQ(path_delay_ps(routed, cells, delays), report.critical_path_ps);
}

TEST(Timing, MatchesWorklistOracleOnRandomNetlists) {
    const Device dev(PartName::XC3S200);
    CellDelays slow_luts;
    slow_luts.lut_ps = 1375.0;
    slow_luts.ff_setup_ps = 95.0;
    for (std::uint64_t design = 1; design <= 32; ++design) {
        sim::RandomNetlistOptions opts;
        opts.luts = 30 + 15 * static_cast<int>(design % 5);
        opts.ffs = 6 + static_cast<int>(design % 7);
        opts.with_bram = design % 4 != 1;
        opts.with_mult = design % 3 != 2;
        Netlist nl = sim::random_netlist(design, opts);
        if (design % 2 == 0) {
            // A LUT chain fed by an undriven net: no path reaches it, so it
            // adds nothing, however long it is.
            NetId n = nl.add_net("floating");
            for (int i = 0; i < 16; ++i)
                n = nl.add_lut(0x1, std::vector<NetId>{n}, "float" + std::to_string(i));
            nl.add_output_port("float_out", Bus{n});
        }
        const PackedDesign packed = pack(nl);
        Placement placement(dev, nl, packed);
        placement.place_initial();
        for (const RouteMode mode : {RouteMode::Performance, RouteMode::LowPower}) {
            RoutedDesign routed(placement, {});
            routed.route_all(mode);
            for (const CellDelays& delays : {CellDelays{}, slow_luts}) {
                SCOPED_TRACE("design " + std::to_string(design) + " mode " +
                             std::to_string(static_cast<int>(mode)) + " lut " +
                             std::to_string(delays.lut_ps));
                const TimingReport report = analyze_timing(routed, delays);
                EXPECT_EQ(report.critical_path_ps, oracle_critical_path_ps(routed, delays));
                expect_well_formed_path(routed, report, delays);
            }
        }
    }
}

// inpad -> `pre` LUTs -> FF -> `post` LUTs -> FF -> outpad. The reported
// path is the slowest of the three register-bounded segments, and a walk
// back from its capture cell stops at that segment's launch cell.
TEST(Timing, CriticalPathStopsAtLaunchCell) {
    const Device dev(PartName::XC3S200);
    for (const int pre : {1, 3, 5})
        for (const int post : {2, 6, 10}) {
            SCOPED_TRACE("pre " + std::to_string(pre) + " post " + std::to_string(post));
            Design d;
            Builder b(d.nl, d.clk);
            NetId n = d.nl.add_input_port("a", 1)[0];
            auto cell_of = [&](NetId net) { return d.nl.net(net).driver.cell; };
            std::vector<netlist::CellId> first{cell_of(n)};
            for (int i = 0; i < pre; ++i) first.push_back(cell_of(n = b.not_(n)));
            first.push_back(cell_of(n = b.ff(n)));
            std::vector<netlist::CellId> second{first.back()};
            for (int i = 0; i < post; ++i) second.push_back(cell_of(n = b.not_(n)));
            second.push_back(cell_of(n = b.ff(n)));
            d.nl.add_output_port("q", Bus{n});
            std::vector<netlist::CellId> third{second.back(), d.nl.find_port("q")->pads[0]};

            const PackedDesign packed = pack(d.nl);
            Placement placement(dev, d.nl, packed);
            placement.place_initial();
            RoutedDesign routed(placement, {});
            routed.route_all(RouteMode::Performance);
            const TimingReport report = analyze_timing(routed);

            const CellDelays delays;
            const std::vector<netlist::CellId>* want = &first;
            for (const auto* segment : {&second, &third})
                if (path_delay_ps(routed, *segment, delays) >
                    path_delay_ps(routed, *want, delays))
                    want = segment;
            EXPECT_EQ(report.critical_cells, *want);
            expect_well_formed_path(routed, report, delays);
        }
}

TEST(Timing, CombinationalLoopThrows) {
    Design d;
    const NetId a = d.nl.add_input_port("a", 1)[0];
    const NetId feedback = d.nl.add_net("feedback");
    const NetId o1 = d.nl.add_lut(0x6, std::vector<NetId>{a, feedback}, "l1");
    const NetId o2 = d.nl.add_lut(0x1, std::vector<NetId>{o1}, "l2");
    // Close the loop by hand (DRC would refuse it): l2 drives l1's pin 1.
    const netlist::CellId l1 = d.nl.net(o1).driver.cell;
    d.nl.cell(l1).inputs[1] = o2;
    d.nl.net(feedback).sinks.clear();
    d.nl.net(o2).sinks.push_back(netlist::PinRef{l1, 1});
    d.nl.add_output_port("o", Bus{o2});

    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);
    EXPECT_THROW((void)analyze_timing(routed), ContractViolation);
}

// The Table-2 system netlist on the XC3S1000, annealed at the §4.3 flow's
// effort with placer seed 4: pins the critical path in both route modes.
TEST(Timing, Table2CriticalPathPinned) {
    const app::SystemNetlist sys = app::build_system_netlist({});
    const PackedDesign packed = pack(sys.nl);
    const Device dev(PartName::XC3S1000);
    Placement placement(dev, sys.nl, packed);
    placement.place_initial();
    PlacerOptions options;
    options.seed = 4;
    options.effort = 0.15;
    (void)anneal(placement, options);
    for (const auto& [mode, want] : {std::pair{RouteMode::Performance, 576210.0},
                                     std::pair{RouteMode::LowPower, 579110.0}}) {
        RoutedDesign routed(placement, {});
        routed.route_all(mode);
        const TimingReport report = analyze_timing(routed);
        EXPECT_EQ(report.critical_path_ps, want);
        EXPECT_EQ(report.critical_path_ps, oracle_critical_path_ps(routed, {}));
        expect_well_formed_path(routed, report, {});
    }
}

// ---------------------------------------------------------------- reallocate

TEST(Reallocate, ReducesHotNetPowerWithoutRaisingTotal) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(8);
    Bus x = q;
    for (int i = 0; i < 3; ++i) x = b.not_bus(x);
    d.nl.add_output_port("o", x);
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S400);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();

    // Scatter slices to create long, power-hungry nets.
    Rng rng(5);
    for (std::uint32_t i = 0; i < packed.slice_count(); ++i) {
        const SliceCoord target{
            static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.cols()))),
            static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.rows()))),
            static_cast<int>(rng.next_below(4))};
        if (!placement.slice_at(target).valid())
            placement.swap_sites(placement.slice_pos(SliceId{i}), target);
    }

    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);

    sim::Simulator simulator(d.nl);
    simulator.run(512);
    const sim::ActivityMap activity = sim::activity_from_simulation(simulator, 50e6);

    ReallocateOptions options;
    options.net_count = 5;
    const ReallocateReport report =
        optimize_net_power(placement, routed, activity, options);

    ASSERT_EQ(report.nets.size(), 5u);
    // The paper's invariant: total dynamic power decreased, not increased.
    EXPECT_LE(report.total_after_uw, report.total_before_uw);
    EXPECT_LE(report.nets[0].after_uw, report.nets[0].before_uw);
}

TEST(Reallocate, HonoursTimingGate) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(6);
    d.nl.add_output_port("o", b.not_bus(q));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);

    sim::Simulator simulator(d.nl);
    simulator.run(128);
    const sim::ActivityMap activity = sim::activity_from_simulation(simulator, 50e6);

    ReallocateOptions options;
    options.net_count = 3;
    options.timing_slack = 1.50;
    const ReallocateReport report =
        optimize_net_power(placement, routed, activity, options);
    EXPECT_LE(report.critical_after_ps, report.critical_before_ps * 1.5 + 1.0);
}

// A NaN slack would make the timing limit NaN, and `critical > NaN` never
// rejects a move: every option the engine cannot honour throws up front.
TEST(Reallocate, RejectsInvalidOptions) {
    Design d;
    Builder b(d.nl, d.clk);
    d.nl.add_output_port("o", b.not_bus(b.counter(4)));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);
    sim::Simulator simulator(d.nl);
    simulator.run(64);
    const auto activity = sim::activity_from_simulation(simulator, 50e6);
    constexpr double inf = std::numeric_limits<double>::infinity();
    auto rejects = [&](auto mutate) {
        ReallocateOptions options;
        options.net_count = 1;
        mutate(options);
        EXPECT_THROW((void)optimize_net_power(placement, routed, activity, options),
                     ContractViolation);
    };
    rejects([](ReallocateOptions& o) { o.timing_slack = std::nan(""); });
    rejects([](ReallocateOptions& o) { o.timing_slack = inf; });
    rejects([](ReallocateOptions& o) { o.timing_slack = 0.99; });
    rejects([](ReallocateOptions& o) { o.vdd = std::nan(""); });
    rejects([](ReallocateOptions& o) { o.vdd = inf; });
    rejects([](ReallocateOptions& o) { o.vdd = 0.0; });
    rejects([](ReallocateOptions& o) { o.vdd = -1.2; });
    rejects([](ReallocateOptions& o) { o.radius = -1; });
    rejects([](ReallocateOptions& o) { o.threads = 0; });
    rejects([](ReallocateOptions& o) { o.threads = -2; });

    // The boundary values are accepted.
    ReallocateOptions options;
    options.net_count = 1;
    options.timing_slack = 1.0;
    options.radius = 0;
    EXPECT_NO_THROW((void)optimize_net_power(placement, routed, activity, options));
}

// The §4.3 flow on the Table-2 system netlist (XC3S1000, effort 0.15,
// placer seed 4, 8 nets, 2 threads): pins the default engine's report and
// move counts on the real design, where the engine-equivalence tests only
// compare the two engines on a small scattered counter.
TEST(Reallocate, Table2ReportPinned) {
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
    const sim::ActivityMap activity = app::system_activity(sys.nl, 50e6);

    obs::Recorder recorder;
    ReallocateOptions options;
    options.net_count = 8;
    options.threads = 2;
    options.recorder = &recorder;
    const ReallocateReport report =
        optimize_net_power(placement, routed, activity, options);
    ASSERT_EQ(report.nets.size(), 8u);
    EXPECT_EQ(report.total_before_uw, 0x1.d1f62e87ae143p+18);  // 477 144.727 uW
    EXPECT_EQ(report.total_after_uw, 0x1.cf7b94570a3d3p+18);   // 474 606.318 uW
    EXPECT_EQ(report.critical_before_ps, 0x1.195a4p+19);       // 576 210 ps
    EXPECT_EQ(report.critical_after_ps, 0x1.190ccp+19);        // 575 590 ps
    const obs::MetricRegistry& m = recorder.metrics();
    EXPECT_EQ(m.value("realloc.candidates_evaluated_total"), 598.0);
    EXPECT_EQ(m.value("realloc.moves_committed_total"), 15.0);
    EXPECT_EQ(m.value("realloc.moves_rejected_total"), 0.0);
    EXPECT_EQ(m.value("realloc.timing_analyses_total"), 2.0 + 15.0);
}

// The Table-2 flow of Table2ReportPinned: candidate trials reuse most
// connections, and the trial counters leave the report unchanged.
TEST(Reallocate, Table2TrialsReuseConnections) {
    Table2 t;
    RoutedDesign routed(t.placement, {});
    routed.route_all(RouteMode::Performance);
    const sim::ActivityMap activity = app::system_activity(t.sys.nl, 50e6);
    Placement plain_placement = t.placement;
    RoutedDesign plain_routed(plain_placement, {});
    plain_routed.route_all(RouteMode::Performance);

    ReallocateOptions options;
    options.net_count = 8;
    options.threads = 2;
    const ReallocateReport plain =
        optimize_net_power(plain_placement, plain_routed, activity, options);
    obs::Recorder recorder;
    options.recorder = &recorder;
    EXPECT_TRUE(optimize_net_power(t.placement, routed, activity, options) == plain);

    const obs::MetricRegistry& m = recorder.metrics();
    const double total = m.value("realloc.trial_connections_total");
    const double rerouted = m.value("realloc.trial_connections_rerouted_total");
    EXPECT_EQ(total, 188782.0);
    EXPECT_GT(rerouted, 0.0);
    EXPECT_LT(rerouted, total);
}

TEST(Reallocate, CaptureRoutesProducesViews) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(4);
    d.nl.add_output_port("o", b.not_bus(q));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);
    sim::Simulator simulator(d.nl);
    simulator.run(64);
    const auto activity = sim::activity_from_simulation(simulator, 50e6);
    ReallocateOptions options;
    options.net_count = 1;
    options.capture_routes = true;
    const auto report = optimize_net_power(placement, routed, activity, options);
    ASSERT_EQ(report.nets.size(), 1u);
    EXPECT_FALSE(report.nets[0].route_before.empty());
    EXPECT_FALSE(report.nets[0].route_after.empty());
}

}  // namespace
}  // namespace refpga::par
