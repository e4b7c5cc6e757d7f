// Differential harness for the dual simulation engines (sim/engine.hpp).
//
// The event-driven engine is only allowed to exist because this suite pins
// it bit-for-bit to the cycle engine: across seeded random netlists (LUT
// soup, FFs with clock enables, feedback registers, counters, ROM and
// writable BRAM, MULT18) and several stimulus shapes, both engines must
// produce identical per-net toggle counts, identical net/BRAM/port state,
// the same changed-net sets, and byte-identical VCD dumps. A failure prints
// the seed, which reproduces deterministically on any platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/random_netlist.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::sim {
namespace {

using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

std::vector<NetId> all_nets(const netlist::Netlist& nl) {
    std::vector<NetId> nets;
    nets.reserve(nl.net_count());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) nets.push_back(NetId{i});
    return nets;
}

std::vector<std::uint32_t> sorted_changed(const SimEngine& sim) {
    std::vector<std::uint32_t> ids;
    ids.reserve(sim.changed_nets().size());
    for (const NetId n : sim.changed_nets()) ids.push_back(n.value());
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<CellId> writable_brams(const netlist::Netlist& nl) {
    std::vector<CellId> cells;
    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const CellId id{i};
        const auto& c = nl.cell(id);
        if (c.kind == CellKind::Bram && nl.bram_config(c).writable)
            cells.push_back(id);
    }
    return cells;
}

void expect_equivalent(const netlist::Netlist& nl, const Simulator& ref,
                       const EventSimulator& fast, std::uint64_t seed) {
    ASSERT_EQ(ref.toggle_counts().size(), fast.toggle_counts().size());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        EXPECT_EQ(ref.toggle_counts()[i], fast.toggle_counts()[i])
            << "toggle mismatch on net '" << nl.net(NetId{i}).name << "' (seed "
            << seed << ")";
        EXPECT_EQ(ref.net_value(NetId{i}), fast.net_value(NetId{i}))
            << "value mismatch on net '" << nl.net(NetId{i}).name << "' (seed "
            << seed << ")";
    }
    for (const CellId bram : writable_brams(nl)) {
        const auto& cfg = nl.bram_config(nl.cell(bram));
        for (std::size_t a = 0; a < cfg.depth(); ++a)
            EXPECT_EQ(ref.bram_word(bram, a), fast.bram_word(bram, a))
                << "BRAM word mismatch at addr " << a << " (seed " << seed << ")";
    }
}

/// Drives both engines with identical stimulus. `pattern` selects the
/// stimulus shape: 0 = new value every tick, 1 = sparse (every 7th tick),
/// 2 = bursts separated by long idle stretches. Returns the two VCD dumps.
std::pair<std::string, std::string> run_pair(std::uint64_t seed, int pattern,
                                             int cycles,
                                             const RandomNetlistOptions& opts = {}) {
    const netlist::Netlist nl = random_netlist(seed, opts);
    Simulator ref(nl);
    EventSimulator fast(nl);
    const std::vector<CellId> brams = writable_brams(nl);

    std::ostringstream ref_vcd, fast_vcd;
    VcdWriter ref_writer(ref_vcd, ref, all_nets(nl));
    VcdWriter fast_writer(fast_vcd, fast, all_nets(nl));
    ref_writer.sample(1);
    fast_writer.sample(1);

    Rng stim(seed ^ 0xD1FFull);
    const auto stim_mask =
        (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
    for (int t = 1; t <= cycles; ++t) {
        const bool drive = pattern == 0 || (pattern == 1 && t % 7 == 0) ||
                           (pattern == 2 && (t / 11) % 2 == 0);
        if (drive) {
            const std::uint64_t value = stim.next_u64() & stim_mask;
            ref.set_input("stim", value);
            fast.set_input("stim", value);
            EXPECT_EQ(sorted_changed(ref), sorted_changed(fast))
                << "changed-net set diverged on set_input, seed " << seed;
        }
        if (!brams.empty() && stim.next_below(5) == 0) {
            // External memory pokes must re-arm the event engine's BRAM.
            const CellId bram = brams[stim.next_below(
                static_cast<std::uint32_t>(brams.size()))];
            const auto& cfg = nl.bram_config(nl.cell(bram));
            const auto addr = stim.next_below(static_cast<std::uint32_t>(cfg.depth()));
            const auto word = static_cast<std::uint32_t>(stim.next_u64()) &
                              ((1u << cfg.data_bits) - 1);
            ref.set_bram_word(bram, addr, word);
            fast.set_bram_word(bram, addr, word);
        }
        ref.tick();
        fast.tick();
        EXPECT_EQ(sorted_changed(ref), sorted_changed(fast))
            << "changed-net set diverged on tick " << t << ", seed " << seed;
        ref_writer.sample(1 + std::int64_t{t} * 1000);
        fast_writer.sample(1 + std::int64_t{t} * 1000);
        EXPECT_EQ(ref.get_port("probe"), fast.get_port("probe"))
            << "probe diverged on tick " << t << ", seed " << seed;
    }

    expect_equivalent(nl, ref, fast, seed);
    return {ref_vcd.str(), fast_vcd.str()};
}

// -------------------------------------------------------- randomized parity

/// >= 100 generated netlists x stimulus patterns (34 seeds x 3 patterns).
class EngineParity : public ::testing::TestWithParam<int> {};

TEST_P(EngineParity, TogglesStateAndVcdMatchAcrossRandomNetlists) {
    const int pattern = GetParam();
    for (std::uint64_t seed = 1; seed <= 34; ++seed) {
        const auto [ref_vcd, fast_vcd] = run_pair(seed, pattern, 48);
        EXPECT_EQ(ref_vcd, fast_vcd)
            << "VCD bytes diverged, seed " << seed << " pattern " << pattern;
        if (::testing::Test::HasFailure()) break;  // first seed is enough
    }
}

INSTANTIATE_TEST_SUITE_P(StimulusPatterns, EngineParity, ::testing::Values(0, 1, 2));

TEST(EngineParity, TopologyCornersMatch) {
    // Degenerate generator settings: each stresses one engine code path
    // (pure soup, no feedback; seq-only; BRAM-free; MULT-free).
    RandomNetlistOptions opts;
    opts.with_bram = false;
    for (std::uint64_t seed = 200; seed < 204; ++seed)
        (void)run_pair(seed, 0, 24, opts);

    opts = RandomNetlistOptions{};
    opts.with_mult = false;
    opts.with_feedback = false;
    for (std::uint64_t seed = 300; seed < 304; ++seed) {
        const netlist::Netlist nl = random_netlist(seed, opts);
        Simulator ref(nl);
        EventSimulator fast(nl);
        Rng stim(seed);
        const auto mask =
            (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
        for (int t = 0; t < 32; ++t) {
            const std::uint64_t v = stim.next_u64() & mask;
            ref.set_input("stim", v);
            fast.set_input("stim", v);
            ref.tick();
            fast.tick();
        }
        expect_equivalent(nl, ref, fast, seed);
    }
}

TEST(EngineParity, MakeEngineDispatchesBothKinds) {
    const netlist::Netlist nl = random_netlist(7);
    const auto cycle = make_engine(EngineKind::Cycle, nl);
    const auto event = make_engine(EngineKind::Event, nl);
    EXPECT_EQ(cycle->kind(), EngineKind::Cycle);
    EXPECT_EQ(event->kind(), EngineKind::Event);
    cycle->run(16);
    event->run(16);
    EXPECT_EQ(cycle->toggle_counts(), event->toggle_counts());
    EXPECT_EQ(parse_engine_kind("cycle"), EngineKind::Cycle);
    EXPECT_EQ(parse_engine_kind("event"), EngineKind::Event);
    EXPECT_FALSE(parse_engine_kind("warp").has_value());
}

// ---------------------------------------------------- VCD writer oracle

/// The full-scan writer VcdWriter replaced, kept as its oracle: every sample
/// reads every watched bit back from the engine and dumps the ones that
/// differ from the last dump. Same header, codes and line format.
class FullScanVcd {
public:
    FullScanVcd(std::ostream& os, const SimEngine& sim, std::vector<NetId> nets,
                std::vector<VcdVectorVar> vectors)
        : os_(os), sim_(sim), nets_(std::move(nets)), vectors_(std::move(vectors)),
          last_(nets_.size(), -1), vec_last_(vectors_.size()) {
        os_ << "$timescale 1ps $end\n$scope module top $end\n";
        for (std::size_t i = 0; i < nets_.size(); ++i)
            os_ << "$var wire 1 " << code(i) << ' ' << sim_.netlist().net(nets_[i]).name
                << " $end\n";
        for (std::size_t j = 0; j < vectors_.size(); ++j) {
            vec_last_[j].assign(vectors_[j].bits.size(), -1);
            os_ << "$var wire " << vectors_[j].bits.size() << ' ' << code(nets_.size() + j)
                << ' ' << vectors_[j].name << " $end\n";
        }
        os_ << "$upscope $end\n$enddefinitions $end\n";
    }

    void sample(std::int64_t time_ps) {
        std::ostringstream changes;
        for (std::size_t i = 0; i < nets_.size(); ++i) {
            const int v = sim_.net_value(nets_[i]) ? 1 : 0;
            if (v == last_[i]) continue;
            changes << v << code(i) << '\n';
            last_[i] = v;
        }
        for (std::size_t j = 0; j < vectors_.size(); ++j) {
            bool dirty = false;
            for (std::size_t b = 0; b < vectors_[j].bits.size(); ++b) {
                const int v = sim_.net_value(vectors_[j].bits[b]) ? 1 : 0;
                dirty = dirty || v != vec_last_[j][b];
                vec_last_[j][b] = v;
            }
            if (!dirty) continue;
            changes << 'b';
            for (std::size_t b = vectors_[j].bits.size(); b-- > 0;) changes << vec_last_[j][b];
            changes << ' ' << code(nets_.size() + j) << '\n';
        }
        if (!changes.str().empty()) os_ << '#' << time_ps << '\n' << changes.str();
    }

private:
    static std::string code(std::size_t index) {
        std::string c;
        do {
            c += static_cast<char>('!' + index % 94);
            index /= 94;
        } while (index != 0);
        return c;
    }

    std::ostream& os_;
    const SimEngine& sim_;
    std::vector<NetId> nets_;
    std::vector<VcdVectorVar> vectors_;
    std::vector<int> last_;
    std::vector<std::vector<int>> vec_last_;
};

TEST(VcdWriterOracle, MatchesFullScanAcrossRandomNetlists) {
    // Between samples: zero to two input changes and zero to two edges, so
    // nets change in set_input settles only, flip and flip back, or sit idle.
    for (std::uint64_t seed = 1; seed <= 34; ++seed) {
        const netlist::Netlist nl = random_netlist(seed);
        const std::vector<VcdVectorVar> vectors = {{"stim", nl.find_port("stim")->nets},
                                                   {"probe", nl.find_port("probe")->nets}};
        const auto mask = (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
        for (const EngineKind kind : {EngineKind::Cycle, EngineKind::Event}) {
            const auto sim = make_engine(kind, nl);
            std::ostringstream fast_os, ref_os;
            VcdWriter fast(fast_os, *sim, all_nets(nl), vectors);
            FullScanVcd ref(ref_os, *sim, all_nets(nl), vectors);
            Rng stim(seed * 31);
            std::int64_t time = 0;
            for (int t = 0; t < 64; ++t) {
                for (auto k = stim.next_below(3); k-- > 0;)
                    sim->set_input("stim", stim.next_u64() & mask);
                for (auto k = stim.next_below(3); k-- > 0;) sim->tick();
                fast.sample(time);
                ref.sample(time);
                time += 1 + stim.next_below(100);
            }
            ASSERT_EQ(fast_os.str(), ref_os.str())
                << "seed " << seed << ", " << engine_kind_name(kind) << " engine";
        }
    }
}

// -------------------------------------------------- golden activity (§4.3)

/// The Table-2 reference scenario (XC3S200 power fixture): an 8-bit counter
/// run for 256 cycles at 50 MHz. Bit i of a binary counter toggles exactly
/// 2^(8-i) times over a full period — pinned as exact integers for BOTH
/// engines so §4.3 power numbers can never drift without a visible diff.
template <typename Engine>
void check_counter_golden() {
    netlist::Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const netlist::Bus q = b.counter(8, NetId{}, "q");
    nl.add_output_port("q", q);

    Engine sim(nl);
    sim.run(256);
    for (int bit = 0; bit < 8; ++bit)
        EXPECT_EQ(sim.toggle_counts()[q[static_cast<std::size_t>(bit)].value()],
                  256 >> bit)
            << "counter bit " << bit;

    // Rates at the Table-2 clock: bit 0 toggles every cycle -> 50 MHz.
    const ActivityMap activity = activity_from_simulation(sim, 50e6);
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[0]), 50e6);
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[7]), 50e6 / 128.0);
}

TEST(GoldenActivity, Table2CounterCycleEngine) { check_counter_golden<Simulator>(); }

TEST(GoldenActivity, Table2CounterEventEngine) {
    check_counter_golden<EventSimulator>();
}

TEST(GoldenActivity, Table2CounterEnginesAgreeNetForNet) {
    netlist::Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    nl.add_output_port("q", b.counter(8, NetId{}, "q"));
    Simulator ref(nl);
    EventSimulator fast(nl);
    ref.run(256);
    fast.run(256);
    EXPECT_EQ(ref.toggle_counts(), fast.toggle_counts());
}

}  // namespace
}  // namespace refpga::sim
