// Value Change Dump (IEEE 1364 §18) writing and parsing.
//
// The paper's §4.3 flow is: post-PAR simulation -> VCD file -> XPower, which
// derives per-net switching rates. We reproduce the same round trip: the
// simulator writes a real VCD, the parser recovers per-signal toggle counts
// that feed the power estimator.
//
// Both directions stream in constant memory: the writer holds only the last
// emitted value per watched signal and appends to the ostream as samples
// arrive; the parser reads the stream in fixed-size chunks and keeps one
// last-value record and one toggle tally per declared bit — neither ever
// buffers the dump, so arbitrarily long simulations can round-trip through a
// pipe.
//
// The VCD is the paper-fidelity export of an activity run, not the way
// activity reaches the power model: app::system_activity reads the engine's
// toggle counters by default and gives the bit-identical ActivityMap.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::sim {

/// A multi-bit variable for VcdWriter: emitted as one `$var wire N` with
/// `b...` value changes instead of N scalars. Bits are LSB first.
struct VcdVectorVar {
    std::string name;
    std::vector<netlist::NetId> bits;
};

class VcdWriter {
public:
    /// Watches `nets` of the engine's netlist as scalar variables, plus
    /// optional multi-bit `vectors`. Works identically over either engine
    /// (output depends only on net values at sample times, so the dual-engine
    /// parity contract makes the bytes engine-independent). Header is
    /// emitted immediately; timescale is 1 ps.
    VcdWriter(std::ostream& os, const SimEngine& sim, std::vector<netlist::NetId> nets,
              std::vector<VcdVectorVar> vectors = {});

    /// Emits value changes for watched variables at absolute time `time_ps`.
    /// Times must be strictly increasing. After the first sample, only nets
    /// whose toggle count moved by an odd number since the previous sample
    /// are visited: each toggle flips the value, so the others still hold
    /// the value last dumped.
    void sample(std::int64_t time_ps);

private:
    [[nodiscard]] static std::string code_for(std::size_t index);

    /// A variable's identifier code followed by '\n', copied as one block.
    struct CodeLine {
        std::array<char, 7> text;
        std::uint8_t size;  ///< code length + 1
    };

    std::ostream& os_;
    const SimEngine& sim_;
    std::size_t scalars_;                 ///< the first watched_ entries
    std::vector<VcdVectorVar> vectors_;
    std::vector<netlist::NetId> watched_;  ///< scalars, then vector bits
    std::vector<std::size_t> vec_first_;   ///< a vector's first watched_ index
    std::vector<CodeLine> codes_;          ///< scalars, then vectors
    std::vector<std::int8_t> last_;        ///< per watched bit; -1 = not dumped
    /// Per watched bit, packed 64 to a word: its toggle-count parity at the
    /// last sample.
    std::vector<std::uint64_t> parity_;
    std::vector<std::uint8_t> vec_dirty_;  ///< a bit changed this sample
    std::vector<char> changes_;            ///< one sample's value-change lines
    std::int64_t last_time_ = -1;
};

/// Per-signal toggle statistics recovered from a VCD file.
struct VcdActivity {
    std::int64_t duration_ps = 0;
    std::map<std::string, std::int64_t> toggles;  ///< signal name -> transitions

    /// The dump's span in seconds, computed like activity_from_simulation's
    /// cycles / clock_hz: one division, so equal spans give equal doubles.
    [[nodiscard]] double duration_s() const {
        return static_cast<double>(duration_ps) / 1e12;
    }

    /// Transitions per second for one signal (0 if unknown).
    [[nodiscard]] double toggle_rate_hz(const std::string& signal) const;
};

/// Malformed VCD input. The §4.3 flow feeds externally produced dumps into
/// the power estimator, so the parser rejects broken files loudly instead of
/// silently producing zero activity (which would read as "no dynamic power").
class VcdParseError : public std::runtime_error {
public:
    explicit VcdParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses a VCD stream produced by VcdWriter. Scalar changes accumulate
/// toggles under the declared name. Vector (`b...`) changes on variables
/// declared with width > 1 accumulate per-bit toggles under `name[i]`
/// (i = 0 is the LSB, the rightmost binary digit; short values are
/// left-extended per IEEE 1364). Vector changes on width-1 variables are
/// skipped after validating the identifier, matching pre-vector behaviour.
/// Throws VcdParseError on truncated declarations or directives, value
/// changes for undeclared identifiers, vector values wider than the declared
/// width, malformed or non-increasing timestamps, value changes before the
/// first timestamp, and files with declarations but no value-change section
/// at all.
[[nodiscard]] VcdActivity parse_vcd(std::istream& is);

}  // namespace refpga::sim
