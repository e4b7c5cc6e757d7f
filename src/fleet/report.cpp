#include "refpga/fleet/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "refpga/common/contracts.hpp"
#include "refpga/common/json.hpp"
#include "refpga/common/table.hpp"
#include "report_render.hpp"

namespace refpga::fleet {

MetricSummary MetricSummary::of(std::vector<double> values) {
    MetricSummary s;
    s.count = values.size();
    if (values.empty()) return s;
    std::sort(values.begin(), values.end());
    s.min = values.front();
    s.max = values.back();
    double sum = 0.0;
    for (const double v : values) sum += v;
    s.mean = sum / static_cast<double>(values.size());
    const auto nearest_rank = [&](double q) {
        const auto n = static_cast<double>(values.size());
        auto idx = static_cast<std::size_t>(std::ceil(q * n));
        if (idx > 0) --idx;
        if (idx >= values.size()) idx = values.size() - 1;
        return values[idx];
    };
    s.p50 = nearest_rank(0.50);
    s.p95 = nearest_rank(0.95);
    return s;
}

std::vector<std::string> report_metric_keys() {
    return {"level_error_mean", "level_error_max",     "cycle_busy_ms",
            "reconfig_ms_per_cycle", "reconfig_energy_mj", "static_mw",
            "dynamic_mw",        "total_mw",           "availability",
            "scrub_ms_per_cycle", "mttd_ms",           "mttr_ms",
            "upsets_injected",   "upsets_detected",    "columns_repaired",
            "load_retries",      "fallback_cycles",    "rejected_cycles"};
}

double outcome_metric(const ScenarioOutcome& o, std::string_view key) {
    if (key == "level_error_mean") return o.level_error_mean;
    if (key == "level_error_max") return o.level_error_max;
    if (key == "cycle_busy_ms") return o.cycle_busy_ms;
    if (key == "reconfig_ms_per_cycle") return o.reconfig_ms_per_cycle;
    if (key == "reconfig_energy_mj") return o.reconfig_energy_mj;
    if (key == "static_mw") return o.static_mw;
    if (key == "dynamic_mw") return o.dynamic_mw;
    if (key == "total_mw") return o.total_mw();
    if (key == "availability") return o.availability;
    if (key == "scrub_ms_per_cycle") return o.scrub_ms_per_cycle;
    if (key == "mttd_ms") return o.mttd_ms;
    if (key == "mttr_ms") return o.mttr_ms;
    if (key == "upsets_injected") return static_cast<double>(o.upsets_injected);
    if (key == "upsets_detected") return static_cast<double>(o.upsets_detected);
    if (key == "columns_repaired") return static_cast<double>(o.columns_repaired);
    if (key == "load_retries") return static_cast<double>(o.load_retries);
    if (key == "fallback_cycles") return static_cast<double>(o.fallback_cycles);
    if (key == "rejected_cycles") return static_cast<double>(o.rejected_cycles);
    REFPGA_EXPECTS(false && "unknown report metric key");
    return 0.0;
}

namespace render {

std::string axis_value(const ScenarioOutcome& o, std::string_view axis) {
    const Scenario& s = o.scenario;
    if (axis == "variant") return app::variant_name(s.variant);
    if (axis == "part") return std::string(fabric::part(s.part).id);
    if (axis == "port") return port_kind_name(s.port);
    if (axis == "noise") return json::fmt(s.noise_rms_v);
    if (axis == "upset_rate") return json::fmt(s.fault.upset_rate_per_column_s);
    REFPGA_EXPECTS(false && "unknown sweep axis");
    return {};
}

std::vector<std::string> scenario_table_header() {
    return {"scenario", "status", "level err", "busy (ms)", "reconfig (ms/cyc)",
            "static (mW)", "dynamic (mW)", "avail", "fit part"};
}

std::vector<std::string> scenario_row_cells(const ScenarioOutcome& o) {
    if (!o.ok)
        return {o.scenario.name, "FAILED", "-", "-", "-", "-", "-", "-", "-"};
    return {o.scenario.name, o.device_fits ? "ok" : "ok (no fit)",
            json::fmt(o.level_error_mean), Table::num(o.cycle_busy_ms, 3),
            Table::num(o.reconfig_ms_per_cycle, 3), Table::num(o.static_mw, 1),
            Table::num(o.dynamic_mw, 2), Table::num(o.availability, 3),
            o.fitted_part.empty() ? "none" : o.fitted_part};
}

void append_scenario_json(std::ostringstream& os, const ScenarioOutcome& o) {
    const Scenario& s = o.scenario;
    os << "{\"name\":\"" << json::escape(s.name) << "\",\"variant\":\""
       << app::variant_name(s.variant) << "\",\"part\":\""
       << fabric::part(s.part).id << "\",\"port\":\"" << port_kind_name(s.port)
       << "\",\"noise_rms_v\":" << json::fmt(s.noise_rms_v)
       << ",\"upset_rate_per_column_s\":"
       << json::fmt(s.fault.upset_rate_per_column_s) << ",\"fill\":["
       << json::fmt(s.fill.start_level) << "," << json::fmt(s.fill.end_level)
       << "],\"cycles\":" << s.cycles << ",\"seed\":" << s.seed
       << ",\"ok\":" << (o.ok ? "true" : "false");
    if (!o.ok) {
        os << ",\"error\":\"" << json::escape(o.error) << "\"}";
        return;
    }
    os << ",\"metrics\":{";
    bool first = true;
    for (const std::string& key : report_metric_keys()) {
        if (!first) os << ",";
        first = false;
        os << "\"" << key << "\":" << json::fmt(outcome_metric(o, key));
    }
    os << "},\"resident_slices\":" << o.resident_slices << ",\"fitted_part\":\""
       << json::escape(o.fitted_part)
       << "\",\"device_fits\":" << (o.device_fits ? "true" : "false") << "}";
}

void append_summary_json(std::ostringstream& os, const MetricSummary& s) {
    os << "{\"min\":" << json::fmt(s.min) << ",\"mean\":" << json::fmt(s.mean)
       << ",\"max\":" << json::fmt(s.max) << ",\"p50\":" << json::fmt(s.p50)
       << ",\"p95\":" << json::fmt(s.p95) << ",\"count\":" << s.count << "}";
}

void append_text_head(std::ostringstream& os, std::size_t count,
                      std::size_t failures, const PartialFacts& partial) {
    os << "campaign: " << count << " scenarios, " << count - failures << " ok, "
       << failures << " failed\n";
    if (partial.partial()) {
        os << "partial: " << count << "/" << partial.expected_count
           << " scenarios committed; missing:";
        for (const IntervalSet::Interval& iv : partial.missing)
            os << " [" << iv.first << ", " << iv.last << ")";
        os << "\n";
    }
    os << "\n";
}

void append_text_failure(std::ostringstream& os, const ScenarioOutcome& o) {
    os << "  " << o.scenario.name << ": " << o.error << "\n";
}

void append_text_tail(std::ostringstream& os, const SummaryFn& summary,
                      const std::vector<GroupFacts>& groups,
                      const GroupSummaryFn& group_summary) {
    Table summary_table({"metric", "min", "mean", "p50", "p95", "max"});
    for (const std::string& key : report_metric_keys()) {
        const MetricSummary s = summary(key);
        summary_table.add_row({key, json::fmt(s.min), json::fmt(s.mean),
                               json::fmt(s.p50), json::fmt(s.p95),
                               json::fmt(s.max)});
    }
    os << "summary over successful scenarios:\n" << summary_table.render() << "\n";

    Table by_axis({"axis", "value", "scenarios", "failed", "mean level err",
                   "mean total (mW)"});
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const MetricSummary err = group_summary(g, "level_error_mean");
        const MetricSummary mw = group_summary(g, "total_mw");
        by_axis.add_row({groups[g].axis, groups[g].value,
                         std::to_string(groups[g].scenario_count),
                         std::to_string(groups[g].failures), json::fmt(err.mean),
                         json::fmt(mw.mean)});
    }
    os << "grouped by sweep axis:\n" << by_axis.render();
}

void append_json_head(std::ostringstream& os, std::size_t count,
                      std::size_t failures, const PartialFacts& partial) {
    os << "{\"campaign\":{\"scenario_count\":" << count
       << ",\"ok_count\":" << count - failures
       << ",\"failure_count\":" << failures;
    if (partial.partial()) {
        os << ",\"partial\":{\"expected_count\":" << partial.expected_count
           << ",\"missing_ranges\":[";
        bool first = true;
        for (const IntervalSet::Interval& iv : partial.missing) {
            if (!first) os << ",";
            first = false;
            os << "[" << iv.first << "," << iv.last << "]";
        }
        os << "]}";
    }
    os << "},\"scenarios\":[";
}

void append_json_tail(std::ostringstream& os, const SummaryFn& summary,
                      const std::vector<GroupFacts>& groups,
                      const GroupSummaryFn& group_summary,
                      const std::string& metrics_json) {
    os << "],\"summary\":{";
    bool first = true;
    for (const std::string& key : report_metric_keys()) {
        if (!first) os << ",";
        first = false;
        os << "\"" << key << "\":";
        append_summary_json(os, summary(key));
    }
    os << "},\"groups\":[";
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const GroupFacts& group = groups[g];
        if (g) os << ",";
        os << "{\"axis\":\"" << group.axis << "\",\"value\":\""
           << json::escape(group.value) << "\",\"scenarios\":" << group.scenario_count
           << ",\"failures\":" << group.failures << ",\"metrics\":{";
        bool first_metric = true;
        for (const std::string& key : report_metric_keys()) {
            if (!first_metric) os << ",";
            first_metric = false;
            os << "\"" << key << "\":";
            append_summary_json(os, group_summary(g, key));
        }
        os << "}}";
    }
    os << "]";
    // The obs block is verbatim-embedded JSON from obs::Recorder; it carries
    // wall-clock facts, so it only appears when explicitly attached.
    if (!metrics_json.empty()) os << ",\"observability\":" << metrics_json;
    os << "}";
}

}  // namespace render

CampaignReport CampaignReport::from(const CampaignResult& result) {
    CampaignReport report;
    report.outcomes_ = result.outcomes;
    report.failures_ = result.failure_count();
    for (const std::string_view axis : render::kAxes) {
        for (std::size_t i = 0; i < report.outcomes_.size(); ++i) {
            const std::string value = render::axis_value(report.outcomes_[i], axis);
            auto it = std::find_if(report.groups_.begin(), report.groups_.end(),
                                   [&](const Group& g) {
                                       return g.axis == axis && g.value == value;
                                   });
            if (it == report.groups_.end()) {
                report.groups_.push_back({std::string(axis), value, {}, 0});
                it = report.groups_.end() - 1;
            }
            it->indices.push_back(i);
            if (!report.outcomes_[i].ok) ++it->failures;
        }
    }
    return report;
}

MetricSummary CampaignReport::summary(std::string_view key) const {
    std::vector<double> values;
    values.reserve(outcomes_.size());
    for (const ScenarioOutcome& o : outcomes_)
        if (o.ok) values.push_back(outcome_metric(o, key));
    return MetricSummary::of(std::move(values));
}

MetricSummary CampaignReport::group_summary(const Group& group,
                                            std::string_view key) const {
    std::vector<double> values;
    values.reserve(group.indices.size());
    for (const std::size_t i : group.indices)
        if (outcomes_[i].ok) values.push_back(outcome_metric(outcomes_[i], key));
    return MetricSummary::of(std::move(values));
}

namespace {

std::vector<render::GroupFacts> group_facts(
    const std::vector<CampaignReport::Group>& groups) {
    std::vector<render::GroupFacts> facts;
    facts.reserve(groups.size());
    for (const CampaignReport::Group& g : groups)
        facts.push_back({g.axis, g.value, g.indices.size(), g.failures});
    return facts;
}

}  // namespace

std::string CampaignReport::render_text() const {
    std::ostringstream os;
    render::append_text_head(os, outcomes_.size(), failures_);

    Table scenarios(render::scenario_table_header());
    for (const ScenarioOutcome& o : outcomes_)
        scenarios.add_row(render::scenario_row_cells(o));
    os << scenarios.render() << "\n";

    if (failures_ > 0) {
        os << "failures:\n";
        for (const ScenarioOutcome& o : outcomes_)
            if (!o.ok) render::append_text_failure(os, o);
        os << "\n";
    }

    render::append_text_tail(
        os, [this](std::string_view key) { return summary(key); },
        group_facts(groups_),
        [this](std::size_t g, std::string_view key) {
            return group_summary(groups_[g], key);
        });
    return os.str();
}

std::string CampaignReport::render_json() const {
    std::ostringstream os;
    render::append_json_head(os, outcomes_.size(), failures_);
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (i) os << ",";
        render::append_scenario_json(os, outcomes_[i]);
    }
    render::append_json_tail(
        os, [this](std::string_view key) { return summary(key); },
        group_facts(groups_),
        [this](std::size_t g, std::string_view key) {
            return group_summary(groups_[g], key);
        },
        metrics_json_);
    return os.str();
}

}  // namespace refpga::fleet
