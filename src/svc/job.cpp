#include "refpga/svc/job.hpp"

#include <climits>

#include "refpga/common/json.hpp"

namespace refpga::svc {

app::SystemVariant parse_variant(const std::string& name) {
    for (const auto v : {app::SystemVariant::Software, app::SystemVariant::MonolithicHw,
                         app::SystemVariant::ReconfiguredHw})
        if (name == app::variant_name(v)) return v;
    throw JobError("unknown variant '" + name + "'");
}

fabric::PartName parse_part(const std::string& id) {
    for (const auto p :
         {fabric::PartName::XC3S50, fabric::PartName::XC3S200, fabric::PartName::XC3S400,
          fabric::PartName::XC3S1000, fabric::PartName::XC3S1500,
          fabric::PartName::XC3S2000, fabric::PartName::XC3S4000,
          fabric::PartName::XC3S5000})
        if (id == fabric::part(p).id) return p;
    throw JobError("unknown part '" + id + "'");
}

fleet::PortKind parse_port(const std::string& name) {
    for (const auto k : {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated,
                         fleet::PortKind::Icap, fleet::PortKind::SelectMap})
        if (name == fleet::port_kind_name(k)) return k;
    throw JobError("unknown config port '" + name + "'");
}

namespace {

// Doubles are written as hexfloat strings ("0x1.999999999999ap-4") so the
// canonical document survives any locale or printf quirk bit-exactly; plain
// JSON numbers and decimal strings are read too.
double double_value(const json::Value& v, const std::string& key) {
    if (v.is(json::Value::Kind::Number)) return v.as_number();
    if (!v.is(json::Value::Kind::String))
        throw JobError(key + ": expected number or hexfloat string");
    try {
        return json::parse_hexfloat(v.text);
    } catch (const json::Error& e) {
        throw JobError(key + ": " + e.what());
    }
}

std::vector<double> double_list(const json::Value& v, const std::string& key) {
    std::vector<double> out;
    for (const json::Value& e : v.as_array()) out.push_back(double_value(e, key));
    if (out.empty()) throw JobError(key + ": empty list");
    return out;
}

int int_value(const json::Value& v) {
    const std::int64_t i = v.as_i64();
    if (i < INT_MIN || i > INT_MAX)
        throw json::Error("number " + v.text + " is out of int range");
    return static_cast<int>(i);
}

// Seeds are written as decimal strings (2^53 < seed values exist); plain
// JSON numbers are read exactly too.
std::uint64_t u64_value(const json::Value& v) {
    return v.is(json::Value::Kind::String) ? json::parse_u64(v.text) : v.as_u64();
}

void append_string_list(std::string& out, const char* key,
                        const std::vector<std::string>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += values[i];
        out += '"';
    }
    out += ']';
}

void append_double_list(std::string& out, const char* key,
                        const std::vector<double>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += json::hexfloat(values[i]);
        out += '"';
    }
    out += ']';
}

/// Applies one top-level member. Kind mismatches and bad numbers surface as
/// json::Error, which from_json reports under the member's key.
void apply_member(JobSpec& spec, const std::string& key, const json::Value& value) {
    if (key == "variants") {
        spec.variants.clear();
        for (const json::Value& e : value.as_array())
            spec.variants.push_back(parse_variant(e.as_string()));
        if (spec.variants.empty()) throw JobError("variants: empty list");
    } else if (key == "parts") {
        spec.parts.clear();
        for (const json::Value& e : value.as_array())
            spec.parts.push_back(parse_part(e.as_string()));
        if (spec.parts.empty()) throw JobError("parts: empty list");
    } else if (key == "ports") {
        spec.ports.clear();
        for (const json::Value& e : value.as_array())
            spec.ports.push_back(parse_port(e.as_string()));
        if (spec.ports.empty()) throw JobError("ports: empty list");
    } else if (key == "noise_levels") {
        spec.noise_levels = double_list(value, "noise_levels");
    } else if (key == "upset_rates") {
        spec.upset_rates = double_list(value, "upset_rates");
        for (const double rate : spec.upset_rates)
            if (rate < 0.0) throw JobError("upset_rates: negative rate");
    } else if (key == "fault") {
        if (!value.is(json::Value::Kind::Object))
            throw JobError("fault: expected object");
        for (const auto& [fkey, fvalue] : value.object) {
            if (fkey == "load_corruption_prob")
                spec.fault_defaults.load_corruption_prob =
                    double_value(fvalue, "fault.load_corruption_prob");
            else if (fkey == "flash_error_prob")
                spec.fault_defaults.flash_error_prob =
                    double_value(fvalue, "fault.flash_error_prob");
            else if (fkey == "glitch_prob_per_cycle")
                spec.fault_defaults.glitch_prob_per_cycle =
                    double_value(fvalue, "fault.glitch_prob_per_cycle");
            else
                throw JobError("fault: unknown key '" + fkey + "'");
        }
    } else if (key == "fills") {
        spec.fills.clear();
        for (const json::Value& e : value.as_array()) {
            if (!e.is(json::Value::Kind::Object))
                throw JobError("fills: expected objects");
            fleet::FillProfile fill;
            for (const auto& [fkey, fvalue] : e.object) {
                if (fkey == "start")
                    fill.start_level = double_value(fvalue, "fills.start");
                else if (fkey == "end")
                    fill.end_level = double_value(fvalue, "fills.end");
                else
                    throw JobError("fills: unknown key '" + fkey + "'");
            }
            spec.fills.push_back(fill);
        }
        if (spec.fills.empty()) throw JobError("fills: empty list");
    } else if (key == "cycles") {
        spec.cycles = int_value(value);
        if (spec.cycles <= 0) throw JobError("cycles: must be positive");
    } else if (key == "campaign_seed") {
        spec.campaign_seed = u64_value(value);
    } else if (key == "stream_block_ticks") {
        spec.stream_block_ticks = int_value(value);
        if (spec.stream_block_ticks <= 0)
            throw JobError("stream_block_ticks: must be positive");
    } else {
        throw JobError("job spec: unknown key '" + key + "'");
    }
}

}  // namespace

JobSpec JobSpec::from_json(const std::string& text) {
    json::Value doc;
    try {
        doc = json::parse(text);
    } catch (const json::Error& e) {
        throw JobError(std::string("job spec: ") + e.what());
    }
    if (!doc.is(json::Value::Kind::Object))
        throw JobError("job spec: document is not an object");

    JobSpec spec;
    for (const auto& [key, value] : doc.object) {
        try {
            apply_member(spec, key, value);
        } catch (const json::Error& e) {
            throw JobError(key + ": " + e.what());
        }
    }
    return spec;
}

std::string JobSpec::canonical_json() const {
    std::string out = "{";

    std::vector<std::string> names;
    for (const auto v : variants) names.emplace_back(app::variant_name(v));
    append_string_list(out, "variants", names);

    names.clear();
    for (const auto p : parts) names.emplace_back(fabric::part(p).id);
    out += ',';
    append_string_list(out, "parts", names);

    names.clear();
    for (const auto k : ports) names.emplace_back(fleet::port_kind_name(k));
    out += ',';
    append_string_list(out, "ports", names);

    out += ',';
    append_double_list(out, "noise_levels", noise_levels);
    out += ',';
    append_double_list(out, "upset_rates", upset_rates);

    out += ",\"fault\":{\"load_corruption_prob\":\"" +
           json::hexfloat(fault_defaults.load_corruption_prob) +
           "\",\"flash_error_prob\":\"" + json::hexfloat(fault_defaults.flash_error_prob) +
           "\",\"glitch_prob_per_cycle\":\"" +
           json::hexfloat(fault_defaults.glitch_prob_per_cycle) + "\"}";

    out += ",\"fills\":[";
    for (std::size_t i = 0; i < fills.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"start\":\"" + json::hexfloat(fills[i].start_level) + "\",\"end\":\"" +
               json::hexfloat(fills[i].end_level) + "\"}";
    }
    out += ']';

    out += ",\"cycles\":" + std::to_string(cycles);
    out += ",\"campaign_seed\":\"" + std::to_string(campaign_seed) + "\"";
    out += ",\"stream_block_ticks\":" + std::to_string(stream_block_ticks);
    out += '}';
    return out;
}

std::uint64_t JobSpec::fingerprint() const {
    const std::string doc = canonical_json();
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    for (const char c : doc) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;  // FNV prime
    }
    return hash;
}

std::size_t JobSpec::grid_size() const {
    return variants.size() * parts.size() * ports.size() * noise_levels.size() *
           upset_rates.size() * fills.size();
}

std::vector<fleet::Scenario> JobSpec::expand() const {
    fleet::SweepBuilder builder;
    builder.variants(variants)
        .parts(parts)
        .ports(ports)
        .noise_levels(noise_levels)
        .upset_rates(upset_rates)
        .fault_defaults(fault_defaults)
        .fills(fills)
        .cycles(cycles)
        .campaign_seed(campaign_seed);
    return builder.build();
}

}  // namespace refpga::svc
