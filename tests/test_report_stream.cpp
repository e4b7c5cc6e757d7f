// Merge semantics of the streaming report path: a ReportAccumulator fed
// outcome batches in any partition and any arrival order must render the
// byte-identical report to the single-process CampaignReport, and must do
// so holding only O(batch) decoded rows in memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "refpga/common/contracts.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/report_stream.hpp"
#include "refpga/fleet/scenario.hpp"

namespace refpga::fleet {
namespace {

using app::SystemVariant;
using fabric::PartName;

std::string temp_spool(const char* tag) {
    return testing::TempDir() + "refpga_spool_" + tag + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

// Small but multi-axis sweep: two variants, two parts, two ports.
std::vector<Scenario> plain_sweep() {
    return SweepBuilder{}
        .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
        .parts({PartName::XC3S200, PartName::XC3S400})
        .ports({PortKind::Jcap, PortKind::JcapAccelerated})
        .cycles(2)
        .campaign_seed(404)
        .build();
}

// Fault-heavy sweep so the report carries the fault metric columns.
std::vector<Scenario> fault_sweep() {
    fault::FaultSpec defaults;
    defaults.load_corruption_prob = 0.10;
    defaults.glitch_prob_per_cycle = 0.10;
    return SweepBuilder{}
        .variants({SystemVariant::ReconfiguredHw})
        .ports({PortKind::Jcap, PortKind::Icap})
        .upset_rates({0.0, 0.2, 1.0})
        .fault_defaults(defaults)
        .cycles(4)
        .campaign_seed(405)
        .build();
}

CampaignResult run_reference(const std::vector<Scenario>& sweep) {
    return CampaignRunner(CampaignOptions(2)).run(sweep);
}

/// Splits [0, n) into random contiguous batches and returns them in a
/// random arrival order.
std::vector<std::pair<std::size_t, std::size_t>> random_partition(
    std::size_t n, std::mt19937& rng) {
    std::vector<std::pair<std::size_t, std::size_t>> parts;
    std::size_t cursor = 0;
    while (cursor < n) {
        std::uniform_int_distribution<std::size_t> len(1, std::min<std::size_t>(
                                                              4, n - cursor));
        const std::size_t count = len(rng);
        parts.emplace_back(cursor, count);
        cursor += count;
    }
    std::shuffle(parts.begin(), parts.end(), rng);
    return parts;
}

void expect_identical_renderings(const CampaignResult& result,
                                 const char* tag,
                                 const std::string& metrics_json = "") {
    CampaignReport reference = CampaignReport::from(result);
    if (!metrics_json.empty()) reference.attach_metrics_json(metrics_json);
    const std::string want_text = reference.render_text();
    const std::string want_json = reference.render_json();

    std::mt19937 rng(20080808);
    for (int round = 0; round < 5; ++round) {
        ReportAccumulator acc(result.outcomes.size(), temp_spool(tag));
        if (!metrics_json.empty()) acc.attach_metrics_json(metrics_json);
        for (const auto& [first, count] :
             random_partition(result.outcomes.size(), rng)) {
            const std::vector<ScenarioOutcome> batch(
                result.outcomes.begin() + static_cast<std::ptrdiff_t>(first),
                result.outcomes.begin() +
                    static_cast<std::ptrdiff_t>(first + count));
            acc.add(first, batch);
        }
        ASSERT_TRUE(acc.complete());
        EXPECT_EQ(acc.render_text(), want_text) << "round " << round;
        EXPECT_EQ(acc.render_json(), want_json) << "round " << round;
        EXPECT_LE(acc.max_retained_rows(), 4u);
    }
}

TEST(ReportStream, RandomPartitionsRenderIdenticalText) {
    expect_identical_renderings(run_reference(plain_sweep()), "plain");
}

TEST(ReportStream, FaultMetricsSurviveStreamingMerge) {
    expect_identical_renderings(run_reference(fault_sweep()), "fault");
}

TEST(ReportStream, AttachedObservabilityJsonIsPreserved) {
    expect_identical_renderings(run_reference(plain_sweep()), "obs",
                                "{\"metrics\":{\"demo\":1}}");
}

TEST(ReportStream, EncodedLinesCommitLikeDecodedOutcomes) {
    const CampaignResult result = run_reference(plain_sweep());
    const std::string want = CampaignReport::from(result).render_text();

    ReportAccumulator acc(result.outcomes.size(), temp_spool("encoded"));
    std::vector<std::string> lines;
    for (const ScenarioOutcome& o : result.outcomes)
        lines.push_back(encode_outcome_line(o));
    // Commit back half first to exercise out-of-order segment merge.
    const std::size_t half = lines.size() / 2;
    acc.add_encoded(half, {lines.begin() + static_cast<std::ptrdiff_t>(half),
                           lines.end()});
    acc.add_encoded(0, {lines.begin(),
                        lines.begin() + static_cast<std::ptrdiff_t>(half)});
    ASSERT_TRUE(acc.complete());
    EXPECT_EQ(acc.render_text(), want);
}

TEST(ReportStream, CodecRoundTripsEveryFieldBitExactly) {
    const CampaignResult result = run_reference(fault_sweep());
    for (const ScenarioOutcome& o : result.outcomes) {
        const ScenarioOutcome back = decode_outcome_line(encode_outcome_line(o));
        EXPECT_EQ(back.scenario.name, o.scenario.name);
        EXPECT_EQ(back.scenario.seed, o.scenario.seed);
        EXPECT_EQ(back.ok, o.ok);
        // Bit-level equality, not approximate: reports derive percentiles
        // from these values, so any rounding would break byte-identity.
        const auto bits = [](double v) {
            std::uint64_t u = 0;
            std::memcpy(&u, &v, sizeof u);
            return u;
        };
        EXPECT_EQ(bits(back.level_error_mean), bits(o.level_error_mean));
        EXPECT_EQ(bits(back.level_error_max), bits(o.level_error_max));
        EXPECT_EQ(bits(back.dynamic_mw), bits(o.dynamic_mw));
        EXPECT_EQ(bits(back.availability), bits(o.availability));
        EXPECT_EQ(bits(back.mttr_ms), bits(o.mttr_ms));
        EXPECT_EQ(back.upsets_injected, o.upsets_injected);
        EXPECT_EQ(back.fallback_cycles, o.fallback_cycles);
        EXPECT_EQ(back.fitted_part, o.fitted_part);
        EXPECT_EQ(back.device_fits, o.device_fits);
    }
}

TEST(ReportStream, CodecRejectsMalformedLines) {
    const CampaignResult result = run_reference(plain_sweep());
    const std::string line = encode_outcome_line(result.outcomes[0]);
    EXPECT_THROW((void)decode_outcome_line(""), CodecError);
    EXPECT_THROW((void)decode_outcome_line(line.substr(0, line.size() / 2)),
                 CodecError);
    EXPECT_THROW((void)decode_outcome_line(line + "x"), CodecError);
    std::string wrong_key = line;
    wrong_key.replace(wrong_key.find("\"name\""), 6, "\"nom\" ");
    EXPECT_THROW((void)decode_outcome_line(wrong_key), CodecError);
}

// Every field differs from its default, the error string needs a quote, a
// backslash and a control-byte escape, and the seed needs more than the 53
// bits a double holds. Checkpoints journal these bytes, so a journal written
// by an older build resumes only while the encoding stays exactly this.
ScenarioOutcome pinned_outcome() {
    ScenarioOutcome o;
    Scenario& s = o.scenario;
    s.name = "variant=monolithic-hw part=xc3s1000 port=icap";
    s.variant = SystemVariant::MonolithicHw;
    s.part = PartName::XC3S1000;
    s.port = PortKind::Icap;
    s.fill = {0.25, 0.8};
    s.noise_rms_v = 2.5e-3;
    s.fault = {0.2, 0.05, 0.01, 1.0 / 3.0};
    s.cycles = 12;
    s.seed = 0xdeadbeefcafef00dULL;
    o.ok = true;
    o.error = "bad \"fill\" at C:\\tank\x01\n";
    o.level_error_mean = 1e-3;
    o.level_error_max = 0.1;
    o.cycle_busy_ms = 12.75;
    o.reconfig_ms_per_cycle = 3.1;
    o.static_mw = 41.5;
    o.dynamic_mw = 7.0 / 3.0;
    o.reconfig_energy_mj = 0.3;
    o.resident_slices = 1234;
    o.fitted_part = "xc3s400";
    o.device_fits = true;
    o.upsets_injected = 9;
    o.upsets_detected = 8;
    o.columns_repaired = 7;
    o.load_retries = 6;
    o.load_failures = 5;
    o.rejected_cycles = 4;
    o.fallback_cycles = 3;
    o.availability = 0.96875;
    o.mttd_ms = 1.5;
    o.mttr_ms = 2.25;
    o.scrub_ms_per_cycle = 0.125;
    return o;
}

const std::string kPinnedLine =
    R"PIN({"name":"variant=monolithic-hw part=xc3s1000 port=icap",)PIN"
    R"PIN("variant":1,"part":3,"port":2,"fill_start":"0x1p-2",)PIN"
    R"PIN("fill_end":"0x1.999999999999ap-1",)PIN"
    R"PIN("noise_rms_v":"0x1.47ae147ae147bp-9",)PIN"
    R"PIN("upset_rate":"0x1.999999999999ap-3",)PIN"
    R"PIN("load_corruption_prob":"0x1.999999999999ap-5",)PIN"
    R"PIN("flash_error_prob":"0x1.47ae147ae147bp-7",)PIN"
    R"PIN("glitch_prob_per_cycle":"0x1.5555555555555p-2","cycles":12,)PIN"
    R"PIN("seed":16045690984503111693,"ok":true,)PIN"
    R"PIN("error":"bad \"fill\" at C:\\tank\u0001\n",)PIN"
    R"PIN("level_error_mean":"0x1.0624dd2f1a9fcp-10",)PIN"
    R"PIN("level_error_max":"0x1.999999999999ap-4",)PIN"
    R"PIN("cycle_busy_ms":"0x1.98p+3",)PIN"
    R"PIN("reconfig_ms_per_cycle":"0x1.8cccccccccccdp+1",)PIN"
    R"PIN("static_mw":"0x1.4cp+5","dynamic_mw":"0x1.2aaaaaaaaaaabp+1",)PIN"
    R"PIN("reconfig_energy_mj":"0x1.3333333333333p-2","upsets_injected":9,)PIN"
    R"PIN("upsets_detected":8,"columns_repaired":7,"load_retries":6,)PIN"
    R"PIN("load_failures":5,"rejected_cycles":4,"fallback_cycles":3,)PIN"
    R"PIN("availability":"0x1.fp-1","mttd_ms":"0x1.8p+0",)PIN"
    R"PIN("mttr_ms":"0x1.2p+1","scrub_ms_per_cycle":"0x1p-3",)PIN"
    R"PIN("resident_slices":1234,"fitted_part":"xc3s400","device_fits":true})PIN";

TEST(ReportStream, CodecLineBytesArePinned) {
    EXPECT_EQ(encode_outcome_line(pinned_outcome()), kPinnedLine);
    EXPECT_EQ(encode_outcome_line(decode_outcome_line(kPinnedLine)), kPinnedLine);
}

// Checkpoint load treats a line that fails to decode at EOF as a torn tail,
// so every proper prefix of a line must throw CodecError, as must a line
// whose members are reordered, extended, missing or followed by bytes.
TEST(ReportStream, CodecRejectsTornPrefixesAndReshapedLines) {
    const std::string& line = kPinnedLine;
    for (std::size_t n = 0; n < line.size(); ++n)
        EXPECT_THROW((void)decode_outcome_line(line.substr(0, n)), CodecError)
            << "prefix of " << n << " bytes";

    // `,"key":value` of a non-string member, with its position.
    const auto member = [&](const std::string& key) {
        const std::size_t at = line.find(",\"" + key + "\":");
        const std::size_t end = line.find(',', at + 1);
        return std::make_pair(at, line.substr(at, end - at));
    };
    const auto [variant_at, variant] = member("variant");
    const auto [part_at, part] = member("part");
    ASSERT_EQ(part_at, variant_at + variant.size());
    const auto [seed_at, seed] = member("seed");

    const std::string reordered = line.substr(0, variant_at) + part + variant +
                                  line.substr(part_at + part.size());
    const std::string extra = line.substr(0, line.size() - 1) + ",\"extra\":1}";
    const std::string missing =
        line.substr(0, seed_at) + line.substr(seed_at + seed.size());
    const std::string duplicated =
        line.substr(0, line.size() - 1) + seed + "}";
    for (const std::string& bad :
         {reordered, extra, missing, duplicated, line + "x", line + "}",
          line + "{}"})
        EXPECT_THROW((void)decode_outcome_line(bad), CodecError) << bad;
}

TEST(ReportStream, DuplicateCommitIsRejected) {
    const CampaignResult result = run_reference(plain_sweep());
    ReportAccumulator acc(result.outcomes.size(), temp_spool("dup"));
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 2});
    EXPECT_THROW(acc.add(1, {result.outcomes.begin() + 1,
                             result.outcomes.begin() + 3}),
                 ContractViolation);
}

TEST(ReportStream, MarkPartialRendersExpectedCountAndMissingRanges) {
    const CampaignResult result = run_reference(plain_sweep());
    ASSERT_GE(result.outcomes.size(), 8u);

    // Commit [0, 3) and [5, 7) of an 8-scenario expectation, then declare
    // the run partial: both renderings must carry the expected count and the
    // exact gaps, so a degraded report can never pass for a complete one.
    ReportAccumulator acc(8, temp_spool("partial"));
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 3});
    acc.add(5, {result.outcomes.begin() + 5, result.outcomes.begin() + 7});
    ASSERT_FALSE(acc.complete());
    EXPECT_FALSE(acc.is_partial());
    acc.mark_partial();
    ASSERT_TRUE(acc.is_partial());

    const std::string text = acc.render_text();
    EXPECT_NE(text.find("campaign: 5 scenarios"), std::string::npos);
    EXPECT_NE(
        text.find("partial: 5/8 scenarios committed; missing: [3, 5) [7, 8)\n"),
        std::string::npos);
    const std::string json = acc.render_json();
    EXPECT_NE(
        json.find("\"partial\":{\"expected_count\":8,"
                  "\"missing_ranges\":[[3,5],[7,8]]}"),
        std::string::npos);
}

TEST(ReportStream, UnmarkedIncompleteAccumulatorOmitsPartialAnnotations) {
    const CampaignResult result = run_reference(plain_sweep());
    ReportAccumulator acc(8, temp_spool("nopartial"));
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 3});
    EXPECT_EQ(acc.render_text().find("partial:"), std::string::npos);
    EXPECT_EQ(acc.render_json().find("\"partial\""), std::string::npos);
}

// The memory bound must hold for sweeps far larger than anything a test can
// afford to execute, so this one synthesizes outcomes instead of running
// them: 5000 scenarios committed in 64-row batches never retain more than
// 64 decoded rows.
TEST(ReportStream, RetainedRowsStayBoundedOnLargeSweeps) {
    constexpr std::size_t kScenarios = 5000;
    constexpr std::size_t kBatch = 64;

    ReportAccumulator acc(kScenarios, temp_spool("large"));
    std::size_t index = 0;
    while (index < kScenarios) {
        const std::size_t count = std::min(kBatch, kScenarios - index);
        std::vector<ScenarioOutcome> batch(count);
        for (std::size_t i = 0; i < count; ++i) {
            ScenarioOutcome& o = batch[i];
            o.scenario.name = "synthetic-" + std::to_string(index + i);
            o.scenario.seed = index + i;
            o.ok = true;
            o.level_error_mean = 1e-3 * static_cast<double>(index + i);
            o.availability = 1.0;
            o.fitted_part = "xc3s400";
            o.device_fits = true;
        }
        acc.add(index, batch);
        index += count;
    }
    ASSERT_TRUE(acc.complete());
    EXPECT_EQ(acc.committed(), kScenarios);
    EXPECT_EQ(acc.max_retained_rows(), kBatch);
    // Rendering streams the spool: it must succeed and cover every row.
    const std::string text = acc.render_text();
    EXPECT_NE(text.find("synthetic-0 "), std::string::npos);
    EXPECT_NE(text.find("synthetic-4999"), std::string::npos);
}

}  // namespace
}  // namespace refpga::fleet
