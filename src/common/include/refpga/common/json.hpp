// The one place that knows how values travel as text.
//
// Reports, metric exports, job specs, outcome lines and checkpoints all
// escape strings, print doubles and read numbers back through these
// functions, so a byte-stability guarantee made by one of them holds for
// all of them:
//
//   - escape() / fmt(): JSON string escaping and the %.9g report format;
//   - hexfloat() / parse_hexfloat(): doubles as C99 hexfloats (printf %a),
//     which read back to the identical bits;
//   - parse_u64(): strict decimal uint64 (no sign, no wrap on overflow);
//   - parse(): a strict recursive-descent DOM parser over the full JSON
//     grammar. Duplicate keys, raw control bytes in strings and trailing
//     bytes are rejected; \u escapes beyond U+00FF are unsupported (nothing
//     here produces them). Numbers follow strtod's decimal syntax, a small
//     superset of JSON's (a leading '+', ".5" and "5." are read too). A
//     number keeps its literal, so as_u64()/as_i64() are exact past 2^53.
//
// Every failure throws json::Error; callers rethrow it as their own error
// type with the field it concerns.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace refpga::json {

class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Body of a JSON string literal: '"', '\\', newline and tab as two-byte
/// escapes, other bytes below 0x20 as \u00xx, everything else verbatim.
[[nodiscard]] std::string escape(std::string_view text);

/// %.9g: the one float-to-text path of every report and metric export.
[[nodiscard]] std::string fmt(double v);

/// printf %a, e.g. "0x1.91eb851eb851fp-1"; parse_hexfloat reads it back
/// exactly.
[[nodiscard]] std::string hexfloat(double v);

/// strtod over the whole of `text` (hexfloat or decimal); throws when
/// `text` is empty or anything is left unread.
[[nodiscard]] double parse_hexfloat(std::string_view text);

/// Decimal digits only, at most 2^64 - 1; throws otherwise.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text);

struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /// String: the decoded text. Number: the literal as written.
    std::string text;
    std::vector<Value> array;
    /// Members in document order (duplicate keys rejected at parse time).
    std::vector<std::pair<std::string, Value>> object;

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const Value* find(std::string_view key) const;

    // Checked accessors: throw Error when the kind does not match.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    /// Exact integer value of the literal ("1e3" and "12.0" included);
    /// throws when it is fractional or out of range.
    [[nodiscard]] std::uint64_t as_u64() const;
    [[nodiscard]] std::int64_t as_i64() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<Value>& as_array() const;

    [[nodiscard]] bool is(Kind k) const { return kind == k; }
};

/// Parses one complete document; trailing non-whitespace throws.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace refpga::json
