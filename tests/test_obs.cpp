// refpga::obs — metric registry, trace ring, scoped timers/spans, and the
// end-to-end wiring through MeasurementSystem and CampaignRunner, including
// the --metrics-json round trip (the obs JSON must parse and the campaign
// report must embed it verbatim).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "refpga/app/system.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/common/json.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/scenario.hpp"
#include "refpga/obs/obs.hpp"

namespace refpga::obs {
namespace {

// The exported documents must pass the same strict parser the campaign
// service reads its job specs with.
bool json_ok(const std::string& text) {
    try {
        (void)json::parse(text);
        return true;
    } catch (const json::Error&) {
        return false;
    }
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistry, CounterAddAndLookup) {
    MetricRegistry reg;
    const MetricId c = reg.counter("x.count_total");
    reg.add(c);
    reg.add(c, 2.5);
    EXPECT_DOUBLE_EQ(reg.value("x.count_total"), 3.5);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.find("x.count_total").valid());
    EXPECT_FALSE(reg.find("missing").valid());
    EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);
}

TEST(MetricRegistry, RegistrationIsIdempotentByName) {
    MetricRegistry reg;
    const MetricId a = reg.counter("same");
    const MetricId b = reg.counter("same");
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, KindClashThrows) {
    MetricRegistry reg;
    (void)reg.counter("metric");
    EXPECT_THROW((void)reg.gauge("metric"), ContractViolation);
    EXPECT_THROW((void)reg.histogram("metric", {1.0}), ContractViolation);
}

TEST(MetricRegistry, FullRegistryThrows) {
    MetricRegistry reg;
    for (std::size_t i = 0; i < MetricRegistry::kMaxMetrics; ++i)
        (void)reg.counter(std::string(1, 'm').append(std::to_string(i)));
    EXPECT_THROW((void)reg.counter("one-too-many"), ContractViolation);
}

TEST(MetricRegistry, GaugeSetOverwrites) {
    MetricRegistry reg;
    const MetricId g = reg.gauge("level");
    reg.set(g, 0.25);
    reg.set(g, 0.75);
    EXPECT_DOUBLE_EQ(reg.value("level"), 0.75);
}

TEST(MetricRegistry, HistogramBucketsSumAndOverflow) {
    MetricRegistry reg;
    const MetricId h = reg.histogram("lat", {1.0, 10.0, 100.0});
    reg.observe(h, 0.5);    // bucket 0
    reg.observe(h, 1.0);    // bucket 0 (le = inclusive)
    reg.observe(h, 7.0);    // bucket 1
    reg.observe(h, 1000.0); // overflow
    const MetricRegistry::Snapshot s = reg.snapshot(h);
    EXPECT_EQ(s.kind, MetricKind::Histogram);
    EXPECT_EQ(s.count, 4);
    EXPECT_DOUBLE_EQ(s.value, 1008.5);
    ASSERT_EQ(s.buckets.size(), 4u);
    EXPECT_EQ(s.buckets[0], 2);
    EXPECT_EQ(s.buckets[1], 1);
    EXPECT_EQ(s.buckets[2], 0);
    EXPECT_EQ(s.buckets[3], 1);
}

TEST(MetricRegistry, HistogramBoundsMustStrictlyIncrease) {
    MetricRegistry reg;
    EXPECT_THROW((void)reg.histogram("bad", {1.0, 1.0}), ContractViolation);
    EXPECT_THROW((void)reg.histogram("bad2", {2.0, 1.0}), ContractViolation);
}

TEST(MetricRegistry, DisabledRecordingIsANoOp) {
    MetricRegistry reg(/*enabled=*/false);
    const MetricId c = reg.counter("c");  // registration still works
    const MetricId h = reg.histogram("h", {1.0});
    reg.add(c);
    reg.observe(h, 0.5);
    EXPECT_DOUBLE_EQ(reg.value("c"), 0.0);
    EXPECT_EQ(reg.snapshot(h).count, 0);

    reg.set_enabled(true);
    reg.add(c);
    EXPECT_DOUBLE_EQ(reg.value("c"), 1.0);
}

TEST(MetricRegistry, InvalidIdIsIgnored) {
    MetricRegistry reg;
    reg.add(MetricId{});  // must not throw or crash
    reg.observe(MetricId{}, 1.0);
}

TEST(MetricRegistry, RendersAreWellFormed) {
    MetricRegistry reg;
    reg.add(reg.counter("a.count_total"), 3);
    reg.set(reg.gauge("b.gauge"), 1.5);
    reg.observe(reg.histogram("c.seconds", {0.1, 1.0}), 0.05);

    const std::string text = reg.render_text();
    EXPECT_NE(text.find("counter a.count_total 3"), std::string::npos);
    EXPECT_NE(text.find("gauge b.gauge 1.5"), std::string::npos);
    EXPECT_NE(text.find("histogram c.seconds count=1"), std::string::npos);

    const std::string json = reg.render_json();
    EXPECT_TRUE(json_ok(json)) << json;
    EXPECT_NE(json.find("\"name\":\"a.count_total\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":[1,0,0]"), std::string::npos);

    const std::string prom = reg.render_prometheus();
    EXPECT_NE(prom.find("# TYPE a_count_total counter"), std::string::npos);
    EXPECT_NE(prom.find("a_count_total 3"), std::string::npos);
    EXPECT_NE(prom.find("c_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(prom.find("c_seconds_count 1"), std::string::npos);
}

TEST(MetricRegistry, ConcurrentAddsAreExact) {
    MetricRegistry reg;
    const MetricId c = reg.counter("contended");
    constexpr int kThreads = 8;
    constexpr int kAdds = 10'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&reg, c] {
            for (int i = 0; i < kAdds; ++i) reg.add(c);
        });
    for (std::thread& w : workers) w.join();
    EXPECT_DOUBLE_EQ(reg.value("contended"), kThreads * kAdds);
}

TEST(MetricRegistry, ConcurrentRegistrationYieldsOneSlot) {
    MetricRegistry reg;
    constexpr int kThreads = 8;
    std::vector<std::uint32_t> ids(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&reg, &ids, t] {
            const MetricId id = reg.counter("shared.name");
            reg.add(id);
            ids[static_cast<std::size_t>(t)] = id.index;
        });
    for (std::thread& w : workers) w.join();
    for (const std::uint32_t id : ids) EXPECT_EQ(id, ids[0]);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("shared.name"), kThreads);
}

// ---------------------------------------------------------------------------
// ScopedTimer / TraceRing / ScopedSpan
// ---------------------------------------------------------------------------

TEST(ScopedTimer, ObservesExactlyOnce) {
    MetricRegistry reg;
    const MetricId h = reg.histogram("t.seconds", {1.0});
    {
        ScopedTimer timer(&reg, h);
        const double elapsed = timer.stop();
        EXPECT_GE(elapsed, 0.0);
        EXPECT_DOUBLE_EQ(timer.stop(), 0.0);  // idempotent
    }
    EXPECT_EQ(reg.snapshot(h).count, 1);
}

TEST(ScopedTimer, InertWhenDisabledOrNull) {
    MetricRegistry reg(/*enabled=*/false);
    const MetricId h = reg.histogram("t.seconds", {1.0});
    { ScopedTimer timer(&reg, h); }
    { ScopedTimer timer(nullptr, h); }
    { ScopedTimer timer; }
    reg.set_enabled(true);
    EXPECT_EQ(reg.snapshot(h).count, 0);
}

TEST(TraceRing, BoundedWithDropCount) {
    TraceRing ring(4);
    const std::uint32_t name = ring.intern("ev");
    EXPECT_EQ(ring.intern("ev"), name);  // idempotent interning
    for (std::uint64_t i = 0; i < 7; ++i) ring.push(name, i * 10, 1);
    EXPECT_EQ(ring.pushed(), 7u);
    EXPECT_EQ(ring.dropped(), 3u);
    const std::vector<TraceEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 3 + i);  // oldest retained first
        EXPECT_EQ(ring.name(events[i].name), "ev");
    }
}

TEST(TraceRing, RenderJsonIsWellFormed) {
    TraceRing ring(8);
    ring.push(ring.intern("a\"quoted\""), 0, 5);
    EXPECT_TRUE(json_ok(ring.render_json())) << ring.render_json();
}

TEST(ScopedSpan, RecordsTraceAndHistogram) {
    Recorder rec;
    const std::uint32_t name = rec.trace().intern("phase");
    const MetricId h = rec.metrics().histogram("phase.seconds", {1.0});
    {
        ScopedSpan span(&rec, name, h);
    }
    EXPECT_EQ(rec.trace().pushed(), 1u);
    EXPECT_EQ(rec.metrics().snapshot(h).count, 1);
    const TraceEvent ev = rec.trace().snapshot().at(0);
    EXPECT_EQ(rec.trace().name(ev.name), "phase");
}

TEST(ScopedSpan, InertWhenRecorderDisabled) {
    Recorder rec(/*enabled=*/false);
    const std::uint32_t name = rec.trace().intern("phase");
    { ScopedSpan span(&rec, name); }
    { ScopedSpan span(nullptr, name); }
    EXPECT_EQ(rec.trace().pushed(), 0u);
}

TEST(Recorder, RenderJsonIsWellFormed) {
    Recorder rec;
    rec.metrics().add(rec.metrics().counter("k"), 2);
    { ScopedSpan span(&rec, rec.trace().intern("s")); }
    const std::string json = rec.render_json();
    EXPECT_TRUE(json_ok(json)) << json;
    EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
    EXPECT_NE(json.find("\"trace\":{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: MeasurementSystem wiring
// ---------------------------------------------------------------------------

TEST(SystemObs, RunCycleRecordsTheTaxonomy) {
    Recorder rec;
    app::SystemOptions options;
    options.recorder = &rec;
    app::MeasurementSystem system(options, 11);
    system.set_true_level(0.5);
    for (int c = 0; c < 3; ++c) (void)system.run_cycle();

    const MetricRegistry& m = rec.metrics();
    EXPECT_DOUBLE_EQ(m.value("cycle.count_total"), 3.0);
    // ReconfiguredHw loads amp_phase -> capacity -> filter each cycle; the
    // slot never holds the next module already, so nothing is skipped.
    EXPECT_DOUBLE_EQ(m.value("reconfig.loads_total"), 9.0);
    EXPECT_DOUBLE_EQ(m.value("reconfig.loads_skipped_total"), 0.0);
    EXPECT_GT(m.value("reconfig.bits_written_total"), 0.0);
    EXPECT_GT(m.value("frontend.ticks_total"), 0.0);
    EXPECT_GT(m.value("frontend.pcm_pairs_total"), 0.0);
    EXPECT_GT(m.value("cycle.model_sampling_seconds_total"), 0.0);
    EXPECT_GT(m.value("cycle.model_reconfig_seconds_total"), 0.0);
    // Wall-clock histograms: one cycle span and one sample span per cycle,
    // one module-swap span per load.
    EXPECT_EQ(m.snapshot(m.find("cycle.wall_seconds")).count, 3);
    EXPECT_EQ(m.snapshot(m.find("cycle.sample_wall_seconds")).count, 3);
    EXPECT_EQ(m.snapshot(m.find("cycle.module_swap_wall_seconds")).count, 9);
    EXPECT_GE(rec.trace().pushed(), 3u * 4u);
}

TEST(SystemObs, DisabledRecorderLeavesMetricsEmptyAndResultsIdentical) {
    Recorder disabled(/*enabled=*/false);
    app::SystemOptions with;
    with.recorder = &disabled;
    app::SystemOptions without;

    app::MeasurementSystem a(with, 11);
    app::MeasurementSystem b(without, 11);
    a.set_true_level(0.5);
    b.set_true_level(0.5);
    for (int c = 0; c < 2; ++c) {
        const app::CycleReport ra = a.run_cycle();
        const app::CycleReport rb = b.run_cycle();
        EXPECT_DOUBLE_EQ(ra.level, rb.level);
        EXPECT_DOUBLE_EQ(ra.capacitance_pf, rb.capacitance_pf);
    }
    EXPECT_DOUBLE_EQ(disabled.metrics().value("cycle.count_total"), 0.0);
    EXPECT_EQ(disabled.trace().pushed(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: campaign wiring and the --metrics-json round trip
// ---------------------------------------------------------------------------

std::vector<fleet::Scenario> small_sweep(int cycles) {
    return fleet::SweepBuilder{}
        .variants({app::SystemVariant::ReconfiguredHw})
        .parts({fabric::PartName::XC3S400})
        .ports({fleet::PortKind::Jcap})
        .noise_levels({1e-3, 5e-3})
        .cycles(cycles)
        .campaign_seed(77)
        .build();
}

TEST(CampaignObs, RecordsPerScenarioMetricsAcrossThreads) {
    const std::vector<fleet::Scenario> sweep = small_sweep(2);
    Recorder rec;
    fleet::CampaignOptions options(2);
    options.recorder = &rec;
    const fleet::CampaignResult result = fleet::CampaignRunner(options).run(sweep);
    EXPECT_EQ(result.failure_count(), 0u);

    const MetricRegistry& m = rec.metrics();
    EXPECT_DOUBLE_EQ(m.value("campaign.scenarios_total"),
                     static_cast<double>(sweep.size()));
    EXPECT_DOUBLE_EQ(m.value("campaign.scenario_failures_total"), 0.0);
    EXPECT_EQ(m.snapshot(m.find("campaign.scenario_wall_seconds")).count,
              static_cast<std::int64_t>(sweep.size()));
    // The recorder propagated into each scenario's system.
    EXPECT_DOUBLE_EQ(m.value("cycle.count_total"),
                     static_cast<double>(sweep.size()) * 2.0);
}

TEST(CampaignObs, FailureCounterTracksFailedScenarios) {
    std::vector<fleet::Scenario> sweep = small_sweep(2);
    sweep[0].cycles = 0;  // rejected by run_one's contract check
    Recorder rec;
    fleet::CampaignOptions options(1);
    options.recorder = &rec;
    const fleet::CampaignResult result = fleet::CampaignRunner(options).run(sweep);
    EXPECT_EQ(result.failure_count(), 1u);
    EXPECT_DOUBLE_EQ(rec.metrics().value("campaign.scenario_failures_total"), 1.0);
    EXPECT_DOUBLE_EQ(rec.metrics().value("campaign.scenarios_total"), 2.0);
}

TEST(CampaignObs, OutcomesIdenticalWithAndWithoutRecorder) {
    const std::vector<fleet::Scenario> sweep = small_sweep(2);
    Recorder rec;
    fleet::CampaignOptions with(2);
    with.recorder = &rec;
    const fleet::CampaignResult ra = fleet::CampaignRunner(with).run(sweep);
    const fleet::CampaignResult rb =
        fleet::CampaignRunner(fleet::CampaignOptions(1)).run(sweep);
    // The base report is a pure function of the outcomes, so byte-comparing
    // the renderings compares every reported fact at once.
    EXPECT_EQ(fleet::CampaignReport::from(ra).render_json(),
              fleet::CampaignReport::from(rb).render_json());
}

TEST(CampaignObs, MetricsJsonRoundTripsThroughTheReport) {
    const std::vector<fleet::Scenario> sweep = small_sweep(2);
    Recorder rec;
    fleet::CampaignOptions options(2);
    options.recorder = &rec;
    const fleet::CampaignResult result = fleet::CampaignRunner(options).run(sweep);

    const std::string obs_json = rec.render_json();
    ASSERT_TRUE(json_ok(obs_json)) << obs_json;
    EXPECT_NE(obs_json.find("\"name\":\"campaign.scenarios_total\""),
              std::string::npos);
    EXPECT_NE(obs_json.find("\"name\":\"cycle.count_total\""), std::string::npos);

    fleet::CampaignReport report = fleet::CampaignReport::from(result);
    const std::string plain = report.render_json();
    EXPECT_TRUE(json_ok(plain)) << plain;
    EXPECT_EQ(plain.find("\"observability\""), std::string::npos);

    report.attach_metrics_json(obs_json);
    const std::string embedded = report.render_json();
    EXPECT_TRUE(json_ok(embedded)) << embedded;
    // The obs document is embedded verbatim under "observability".
    EXPECT_NE(embedded.find("\"observability\":" + obs_json), std::string::npos);

    report.attach_metrics_json("");
    EXPECT_EQ(report.render_json(), plain);
}

}  // namespace
}  // namespace refpga::obs
