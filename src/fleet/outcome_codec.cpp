#include "refpga/fleet/outcome_codec.hpp"

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "refpga/common/json.hpp"

namespace refpga::fleet {

namespace {

/// Inclusive bounds a decoded integer field must respect.
struct Range {
    long long lo;
    long long hi;
};

/// The 36 fields of an outcome line, in line order. Encoder and decoder are
/// both this one list, so they cannot drift apart.
template <class O, class V>
void visit_fields(O& o, V& v) {
    auto& s = o.scenario;
    v("name", s.name);
    v("variant", s.variant, Range{0, 2});
    v("part", s.part,
      Range{0, static_cast<int>(fabric::PartName::XC3S5000)});
    v("port", s.port, Range{0, 3});
    v("fill_start", s.fill.start_level);
    v("fill_end", s.fill.end_level);
    v("noise_rms_v", s.noise_rms_v);
    v("upset_rate", s.fault.upset_rate_per_column_s);
    v("load_corruption_prob", s.fault.load_corruption_prob);
    v("flash_error_prob", s.fault.flash_error_prob);
    v("glitch_prob_per_cycle", s.fault.glitch_prob_per_cycle);
    v("cycles", s.cycles, Range{0, 1'000'000'000});
    v("seed", s.seed);
    v("ok", o.ok);
    v("error", o.error);
    v("level_error_mean", o.level_error_mean);
    v("level_error_max", o.level_error_max);
    v("cycle_busy_ms", o.cycle_busy_ms);
    v("reconfig_ms_per_cycle", o.reconfig_ms_per_cycle);
    v("static_mw", o.static_mw);
    v("dynamic_mw", o.dynamic_mw);
    v("reconfig_energy_mj", o.reconfig_energy_mj);
    v("upsets_injected", o.upsets_injected);
    v("upsets_detected", o.upsets_detected);
    v("columns_repaired", o.columns_repaired);
    v("load_retries", o.load_retries);
    v("load_failures", o.load_failures);
    v("rejected_cycles", o.rejected_cycles);
    v("fallback_cycles", o.fallback_cycles);
    v("availability", o.availability);
    v("mttd_ms", o.mttd_ms);
    v("mttr_ms", o.mttr_ms);
    v("scrub_ms_per_cycle", o.scrub_ms_per_cycle);
    v("resident_slices", o.resident_slices);
    v("fitted_part", o.fitted_part);
    v("device_fits", o.device_fits);
}

/// Strings are escaped, doubles are quoted hexfloats, bools are literals and
/// integers (enums as their numeric value) are plain decimals.
class Encoder {
public:
    void operator()(const char* key, const std::string& value) {
        open(key);
        out_ += '"';
        out_ += json::escape(value);
        out_ += '"';
    }
    void operator()(const char* key, double value) {
        open(key);
        out_ += '"';
        out_ += json::hexfloat(value);
        out_ += '"';
    }
    void operator()(const char* key, bool value) {
        open(key);
        out_ += value ? "true" : "false";
    }
    template <class T>
        requires std::is_integral_v<T>
    void operator()(const char* key, T value) {
        open(key);
        out_ += std::to_string(value);
    }
    template <class T>
    void operator()(const char* key, T value, Range /*checked on decode*/) {
        open(key);
        out_ += std::to_string(static_cast<long long>(value));
    }

    std::string finish() && {
        out_ += '}';
        return std::move(out_);
    }

private:
    void open(const char* key) {
        out_ += out_.empty() ? "{\"" : ",\"";
        out_ += key;
        out_ += "\":";
    }

    std::string out_;
};

/// Consumes the parsed members in order: each visited key must be the next
/// member, with the kind the encoder writes.
class Decoder {
public:
    explicit Decoder(const json::Value& doc) : members_(doc.object) {
        if (!doc.is(json::Value::Kind::Object))
            throw json::Error("line is not an object");
    }

    void operator()(const char* key, std::string& value) {
        value = next(key).as_string();
    }
    void operator()(const char* key, double& value) {
        value = json::parse_hexfloat(next(key).as_string());
    }
    void operator()(const char* key, bool& value) { value = next(key).as_bool(); }
    void operator()(const char* key, std::uint64_t& value) {
        value = next(key).as_u64();
    }
    void operator()(const char* key, long& value) { value = next(key).as_i64(); }
    template <class T>
    void operator()(const char* key, T& value, Range range) {
        const std::int64_t v = next(key).as_i64();
        if (v < range.lo || v > range.hi)
            throw json::Error(std::string(key) + " out of range: " +
                              std::to_string(v));
        value = static_cast<T>(v);
    }

    void finish() const {
        if (at_ != members_.size())
            throw json::Error("unexpected key '" + members_[at_].first + "'");
    }

private:
    const json::Value& next(const char* key) {
        if (at_ == members_.size())
            throw json::Error(std::string("missing key '") + key + "'");
        const auto& [name, value] = members_[at_++];
        if (name != key)
            throw json::Error("expected key '" + std::string(key) + "', got '" +
                              name + "'");
        return value;
    }

    const std::vector<std::pair<std::string, json::Value>>& members_;
    std::size_t at_ = 0;
};

}  // namespace

std::string encode_outcome_line(const ScenarioOutcome& o) {
    Encoder encoder;
    visit_fields(o, encoder);
    return std::move(encoder).finish();
}

ScenarioOutcome decode_outcome_line(std::string_view line) {
    ScenarioOutcome o;
    try {
        const json::Value doc = json::parse(line);
        Decoder decoder(doc);
        visit_fields(o, decoder);
        decoder.finish();
    } catch (const json::Error& e) {
        throw CodecError(std::string("outcome line: ") + e.what());
    }
    return o;
}

}  // namespace refpga::fleet
