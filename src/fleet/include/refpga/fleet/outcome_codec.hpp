// Bit-exact wire/journal codec for ScenarioOutcome.
//
// The campaign service streams scenario outcomes from worker processes to
// the coordinator and journals them into checkpoint files as JSON lines.
// Reports derive summary percentiles from the raw metric values, so the
// codec must round-trip doubles exactly — every floating-point field is
// encoded as a C99 hexfloat string (json::hexfloat, e.g.
// "0x1.91eb851eb851fp-1"), which reads back to the identical bits.
// Everything a campaign report reads off an outcome is carried; enum fields
// travel as their numeric values (the decoder validates range).
//
// Format: one single-line JSON object per outcome, its 36 members in a fixed
// order. One field list drives both directions: the encoder writes it, and
// the decoder parses the line with json::parse and requires exactly those
// keys in exactly that order. Encoder and decoder are versioned together
// (kOutcomeCodecVersion, recorded in checkpoint headers), and a line that
// deviates from the expected shape — including every proper prefix of a
// valid line, which is how checkpoint load recognizes a torn tail — throws
// CodecError instead of guessing.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "refpga/fleet/campaign.hpp"

namespace refpga::fleet {

/// Bumped whenever encode_outcome_line's format changes; checkpoint files
/// record it so a resume never decodes lines from an incompatible writer.
inline constexpr int kOutcomeCodecVersion = 1;

class CodecError : public std::runtime_error {
public:
    explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// One-line JSON encoding (no trailing newline). Doubles are hexfloats, so
/// decode_outcome_line(encode_outcome_line(o)) reproduces every report-
/// visible field of `o` bit-for-bit.
[[nodiscard]] std::string encode_outcome_line(const ScenarioOutcome& o);

/// Strict inverse of encode_outcome_line; throws CodecError on any
/// malformed, truncated or out-of-range input.
[[nodiscard]] ScenarioOutcome decode_outcome_line(std::string_view line);

}  // namespace refpga::fleet
