// The bench harness (bench/bench_common.hpp): the repetition rule, the
// summary statistics, the JSON writer and the gate-driven exit status that
// every gated bench shares.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/common/json.hpp"

namespace {

using namespace refpga;
using benchkit::Timing;

void expect_timing(const Timing& t, double median, double min, double q1, double q3) {
    EXPECT_EQ(t.median, median);
    EXPECT_EQ(t.min, min);
    EXPECT_EQ(t.q1, q1);
    EXPECT_EQ(t.q3, q3);
}

TEST(BenchHarness, SummarizeSingleSample) {
    expect_timing(benchkit::summarize({4.0}), 4.0, 4.0, 4.0, 4.0);
}

TEST(BenchHarness, SummarizeOddCount) {
    // sorted: 1 2 3 4 5 6 7 8 9 -> median [4], quartiles [2] and [6]
    expect_timing(benchkit::summarize({9, 1, 8, 2, 7, 3, 6, 4, 5}), 5, 1, 3, 7);
    // sorted: 10 20 30 -> median [1], quartiles [0] and [2]
    expect_timing(benchkit::summarize({30, 10, 20}), 20, 10, 10, 30);
}

TEST(BenchHarness, SummarizeEvenCountTakesUpperMedian) {
    // sorted: 1 2 -> median [1]
    expect_timing(benchkit::summarize({2, 1}), 2, 1, 1, 2);
    // sorted: 1 2 3 4 5 6 -> median [3], quartiles [1] and [4]
    expect_timing(benchkit::summarize({6, 5, 4, 3, 2, 1}), 4, 1, 2, 5);
}

TEST(BenchHarness, SummarizeRejectsNoSamples) {
    EXPECT_THROW((void)benchkit::summarize({}), std::invalid_argument);
}

TEST(BenchHarness, InterleaveVisitsEveryVariantPerRoundAndSkipsTheWarmUp) {
    std::vector<std::size_t> order;
    const std::vector<Timing> t = benchkit::interleave(3, 4, [&](std::size_t v) {
        order.push_back(v);
        // The warm-up round returns a huge time: it must not reach the stats.
        const bool warm_up = order.size() <= 3;
        return warm_up ? 1e9 : static_cast<double>(10 * v + order.size());
    });
    ASSERT_EQ(order.size(), 15u);  // 1 warm-up + 4 timed rounds, 3 variants each
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i % 3);
    ASSERT_EQ(t.size(), 3u);
    // Variant 0 saw calls 4, 7, 10, 13; variant 2 saw 26, 29, 32, 35.
    expect_timing(t[0], 10, 4, 4, 13);
    expect_timing(t[2], 32, 26, 26, 35);
}

TEST(BenchHarness, InterleaveRejectsZeroRounds) {
    EXPECT_THROW((void)benchkit::interleave(2, 0, [](std::size_t) { return 1.0; }),
                 std::invalid_argument);
}

TEST(BenchHarness, WriterRendersNestedDocument) {
    benchkit::JsonWriter w;
    w.begin_object(true);
    w.key("name").string("a \"quoted\"\ttab");
    w.key("list").begin_array(true);
    w.begin_object().key("x").number(0.1).key("n").integer(-3).end_object();
    w.begin_array().boolean(true).boolean(false).end_array();
    w.end_array();
    w.key("empty").begin_object(true).end_object();
    w.key("third").number(1.0 / 3.0);
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"name\": \"a \\\"quoted\\\"\\ttab\",\n"
              "  \"list\": [\n"
              "    {\"x\": 0.1, \"n\": -3},\n"
              "    [true, false]\n"
              "  ],\n"
              "  \"empty\": {},\n"
              "  \"third\": 0.333333333\n"
              "}");
    const json::Value doc = json::parse(w.str());
    EXPECT_EQ(doc.find("name")->as_string(), "a \"quoted\"\ttab");
    EXPECT_EQ(doc.find("list")->as_array()[0].find("n")->as_i64(), -3);
}

TEST(BenchHarness, WriterThrowsOnNonFiniteNumber) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        benchkit::JsonWriter w;
        w.begin_object().key("speedup");
        EXPECT_THROW(w.number(bad), std::domain_error);
    }
}

benchkit::Args smoke_args() {
    static char name[] = "bench";
    static char smoke[] = "--smoke";
    static char* argv[] = {name, smoke, nullptr};
    return benchkit::Args(2, argv);
}

TEST(BenchHarness, ArgsReadsSmokeJsonAndNamedFlags) {
    const benchkit::Args args = smoke_args();
    EXPECT_TRUE(args.smoke);
    EXPECT_FALSE(args.json);
    EXPECT_TRUE(args.has("--smoke"));
    EXPECT_FALSE(args.has("--chaos"));
}

TEST(BenchHarness, FailedEvaluatedGateFailsTheRun) {
    benchkit::Report report("demo", smoke_args(), 3);
    report.check("identity", true);
    report.gate("speedup", 2.0, benchkit::Op::AtLeast, 1.5);
    EXPECT_EQ(report.exit_status(), 0);
    report.gate("overhead", 3.0, benchkit::Op::AtMost, 2.0);
    EXPECT_EQ(report.exit_status(), 1);

    benchkit::Report broken("demo", smoke_args(), 3);
    broken.check("identity", false);
    EXPECT_EQ(broken.exit_status(), 1);
}

TEST(BenchHarness, SkippedGateDoesNotFailTheRun) {
    benchkit::Report report("demo", smoke_args(), 3);
    report.gate("speedup", 1.0, benchkit::Op::AtLeast, 1.5, /*evaluated=*/false);
    EXPECT_EQ(report.exit_status(), 0);
    const json::Value gate = json::parse(report.json()).find("gates")->as_array()[0];
    EXPECT_FALSE(gate.find("evaluated")->as_bool());
    EXPECT_FALSE(gate.find("pass")->as_bool());
}

TEST(BenchHarness, ReportDocumentCarriesTheSchema) {
    benchkit::Report report("demo", smoke_args(), 3);
    report.fact("scenarios", std::size_t{24});
    benchkit::ReportTable& table =
        report.table("runs", {{"threads", "threads"}, {"wall_ms", "wall (ms)", 1},
                              {"speedup", "speedup", 2, "x"}});
    table.row({1, Timing{10.0, 9.0, 9.5, 11.0}, 1.0});
    table.row({4, Timing{4.0, 3.0, 3.5, 5.0}, 2.5});
    EXPECT_THROW(table.row({1}), std::invalid_argument);
    report.gate("speedup", 2.5, benchkit::Op::AtLeast, 1.5);

    EXPECT_NE(table.render().find("| 4       | 4.0       | 2.50x   |"), std::string::npos)
        << table.render();
    const json::Value doc = json::parse(report.json());
    std::vector<std::string> keys;
    for (const auto& [key, value] : doc.object) keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"bench", "smoke", "rounds", "facts",
                                              "tables", "gates"}));
    EXPECT_EQ(doc.find("bench")->as_string(), "demo");
    EXPECT_TRUE(doc.find("smoke")->as_bool());
    EXPECT_EQ(doc.find("rounds")->as_u64(), 3u);
    EXPECT_EQ(doc.find("facts")->find("scenarios")->as_u64(), 24u);
    const json::Value& row = doc.find("tables")->find("runs")->as_array()[1];
    EXPECT_EQ(row.find("threads")->as_u64(), 4u);
    EXPECT_EQ(row.find("wall_ms")->find("median")->as_number(), 4.0);
    EXPECT_EQ(row.find("wall_ms")->find("q3")->as_number(), 5.0);
    EXPECT_EQ(row.find("speedup")->as_number(), 2.5);
    const json::Value& gate = doc.find("gates")->as_array()[0];
    EXPECT_EQ(gate.find("name")->as_string(), "speedup");
    EXPECT_EQ(gate.find("op")->as_string(), ">=");
    EXPECT_EQ(gate.find("bound")->as_number(), 1.5);
    EXPECT_TRUE(gate.find("evaluated")->as_bool());
    EXPECT_TRUE(gate.find("pass")->as_bool());
}

TEST(BenchHarness, NonFiniteGateValueFailsLoudly) {
    benchkit::Report report("demo", smoke_args(), 3);
    report.gate("speedup", std::nan(""), benchkit::Op::AtLeast, 1.5);
    EXPECT_EQ(report.exit_status(), 1);
    EXPECT_THROW((void)report.json(), std::domain_error);
}

}  // namespace
