// Shared rendering primitives for campaign reports (private to refpga::fleet).
//
// CampaignReport::render_text/render_json and the streaming
// fleet::ReportAccumulator compose their output from the exact same pieces
// declared here, so the service-side merged report is byte-identical to the
// single-process one by construction: the per-scenario fragments, the float
// formatting path, the axis grouping rules and the summary/group tails all
// have one implementation.
#pragma once

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/common/interval_set.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"

namespace refpga::fleet::render {

/// Sweep axes reports group by, in grouping/rendering order.
inline constexpr std::string_view kAxes[] = {"variant", "part", "port", "noise",
                                             "upset_rate"};

/// Grouping value of one outcome on one axis ("variant", "part", "port",
/// "noise" or "upset_rate").
[[nodiscard]] std::string axis_value(const ScenarioOutcome& o,
                                     std::string_view axis);

// --- per-scenario fragments -------------------------------------------------

[[nodiscard]] std::vector<std::string> scenario_table_header();
[[nodiscard]] std::vector<std::string> scenario_row_cells(const ScenarioOutcome& o);
/// The scenario's JSON object (no surrounding comma).
void append_scenario_json(std::ostringstream& os, const ScenarioOutcome& o);

// --- report head and tails --------------------------------------------------

/// Group facts the tails need; summaries are pulled through the callbacks so
/// the streaming path can serve them from accumulated state.
struct GroupFacts {
    std::string axis;
    std::string value;
    std::size_t scenario_count = 0;
    std::size_t failures = 0;
};

using SummaryFn = std::function<MetricSummary(std::string_view key)>;
using GroupSummaryFn =
    std::function<MetricSummary(std::size_t group, std::string_view key)>;

void append_summary_json(std::ostringstream& os, const MetricSummary& s);

/// Partial-report annotation: the sweep size the run was supposed to cover
/// and the index ranges it never committed. A default-constructed value
/// (expected_count == 0) means "complete" and both heads render exactly
/// their pre-partial bytes — which is what keeps complete merged reports
/// byte-identical to CampaignReport's.
struct PartialFacts {
    std::size_t expected_count = 0;
    std::vector<IntervalSet::Interval> missing;

    [[nodiscard]] bool partial() const { return expected_count > 0; }
};

/// "campaign: N scenarios, M ok, F failed" + blank line; a partial report
/// adds an explicit "partial: N/G scenarios committed; missing: ..." line.
void append_text_head(std::ostringstream& os, std::size_t count,
                      std::size_t failures,
                      const PartialFacts& partial = {});
/// "failures:" block (only call when there is at least one failure). Lines
/// are appended per failed outcome via append_text_failure; close with a
/// blank line by the caller’s next section.
void append_text_failure(std::ostringstream& os, const ScenarioOutcome& o);
/// Summary table + grouped-by-axis table (everything after the failures
/// block in render_text).
void append_text_tail(std::ostringstream& os, const SummaryFn& summary,
                      const std::vector<GroupFacts>& groups,
                      const GroupSummaryFn& group_summary);

/// '{"campaign":{...},"scenarios":[' — scenario objects follow, comma-managed
/// by the caller. A partial report adds a "partial" member with the expected
/// count and the missing [first, last) ranges to the campaign object.
void append_json_head(std::ostringstream& os, std::size_t count,
                      std::size_t failures,
                      const PartialFacts& partial = {});
/// '],"summary":{...},"groups":[...]' plus the optional verbatim
/// "observability" member and the closing brace.
void append_json_tail(std::ostringstream& os, const SummaryFn& summary,
                      const std::vector<GroupFacts>& groups,
                      const GroupSummaryFn& group_summary,
                      const std::string& metrics_json);

}  // namespace refpga::fleet::render
