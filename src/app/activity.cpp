#include "refpga/app/activity.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::app {

sim::ActivityMap system_activity(const netlist::Netlist& nl, double clock_hz,
                                 const ActivityOptions& opts) {
    REFPGA_EXPECTS(clock_hz > 0.0 && opts.cycles > 0);
    const auto engine = sim::make_engine(opts.engine, nl);

    std::stringstream vcd;  // written, then parsed in place: no copy
    std::optional<sim::VcdWriter> writer;
    if (opts.via_vcd) {
        std::vector<netlist::NetId> all_nets;
        all_nets.reserve(nl.net_count());
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            all_nets.push_back(netlist::NetId{i});
        writer.emplace(vcd, *engine, std::move(all_nets));
        // The reset state, before any input is driven: the dump then sees
        // every toggle the engine counts, over cycles × period exactly.
        writer->sample(0);
    }
    const double period_ps = 1e12 / clock_hz;

    if (nl.find_port("tick_16mhz") != nullptr) engine->set_input("tick_16mhz", 1);
    if (nl.find_port("adc_valid") != nullptr) engine->set_input("adc_valid", 1);

    Rng rng(2024);
    for (int t = 1; t <= opts.cycles; ++t) {
        if (nl.find_port("adc_meas") != nullptr)
            engine->set_input("adc_meas", rng.next_below(4096));
        if (nl.find_port("adc_ref") != nullptr)
            engine->set_input("adc_ref", rng.next_below(4096));
        engine->tick();
        if (writer) writer->sample(static_cast<std::int64_t>(t * period_ps));
    }

    if (!writer) return sim::activity_from_simulation(*engine, clock_hz);
    return sim::activity_from_vcd(nl, sim::parse_vcd(vcd));
}

}  // namespace refpga::app
