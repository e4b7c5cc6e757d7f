// Shared plumbing for the reproduction benches: builds the system netlist,
// runs the physical flow (pack/place/route), extracts switching activity via
// the paper's VCD round trip, and prints consistent headers.
//
// It is also the one harness of the gated benches (fleet_campaign,
// frontend_stream, obs_overhead, par_reallocate, sim_activity, svc_scale):
//
//   - Args: --smoke, --json and named flags such as --chaos;
//   - wall_ms() / thread_cpu_ms(): the only clock reads under bench/;
//   - interleave(): one untimed warm-up round, then a fixed number of rounds
//     that each run every variant once in the same order; each variant gets
//     its median, min and quartiles;
//   - Report: a table column and a gate are declared once; one row renders
//     both the stdout table and the JSON array, and the gates decide the
//     exit status. Report::finish() writes BENCH_<bench>.json:
//
//       {"bench", "smoke", "rounds", "facts": {key: value},
//        "tables": {name: [row]},
//        "gates": [{"name", "value", "op", "bound", "evaluated", "pass"}]}
//
//     where a timed cell is {"median", "min", "q1", "q3"} in milliseconds.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/json.hpp"
#include "refpga/common/table.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/engine.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::benchkit {

inline void print_header(const std::string& id, const std::string& title) {
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// The bench command line. --smoke selects the scaled-down scenario CI runs:
/// it validates the bench end to end (and its invariants) without paying
/// full measurement time. --json echoes the BENCH document to stdout.
/// Other flags are looked up by name; google-benchmark binaries parse their
/// own flags afterwards.
struct Args {
    std::vector<std::string_view> flags;
    bool smoke;
    bool json;

    Args(int argc, char** argv)
        : flags(argv + std::min(argc, 1), argv + argc),
          smoke(has("--smoke")),
          json(has("--json")) {}

    [[nodiscard]] bool has(std::string_view flag) const {
        return std::find(flags.begin(), flags.end(), flag) != flags.end();
    }
};

/// Wall time in milliseconds on a steady clock; only differences mean
/// anything.
inline double wall_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Processor time of the calling thread in milliseconds. For a
/// single-threaded stage, unlike wall time, it does not count the time a
/// shared host spends running someone else.
inline double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// One variant's timed samples, in milliseconds. With the samples sorted,
/// the median is sorted[n/2] (the upper one for even n) and the quartiles
/// are the mirrored ranks sorted[(n-1)/4] and sorted[n-1-(n-1)/4].
struct Timing {
    double median = 0.0;
    double min = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

inline Timing summarize(std::vector<double> samples) {
    if (samples.empty()) throw std::invalid_argument("summarize: no samples");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const std::size_t k = (n - 1) / 4;
    return {samples[n / 2], samples.front(), samples[k], samples[n - 1 - k]};
}

/// The repetition rule of every gated bench. One untimed warm-up round,
/// then `rounds` rounds; each round runs variants 0 .. variants-1 once, in
/// that order, so host drift hits every variant alike. run(v) performs
/// variant v and returns the milliseconds it measured: the variant decides
/// what is timed (set-up stays outside) and by which clock.
template <typename Run>
std::vector<Timing> interleave(std::size_t variants, int rounds, Run&& run) {
    if (rounds < 1) throw std::invalid_argument("interleave: rounds must be >= 1");
    std::vector<std::vector<double>> samples(variants);
    for (int round = -1; round < rounds; ++round)
        for (std::size_t v = 0; v < variants; ++v) {
            const double ms = run(v);
            if (round >= 0) samples[v].push_back(ms);
        }
    std::vector<Timing> timings;
    timings.reserve(variants);
    for (std::vector<double>& s : samples) timings.push_back(summarize(std::move(s)));
    return timings;
}

/// Streaming JSON writer over json::escape and json::fmt. Members of a
/// container opened with block = true go one per line, indented two spaces
/// per level; an inline container (and everything inside it) stays on one
/// line. A non-finite number throws std::domain_error: JSON cannot carry
/// it, and a broken ratio must fail the run, not reach the file as "nan".
class JsonWriter {
public:
    JsonWriter& begin_object(bool block = false) { return open('{', block); }
    JsonWriter& end_object() { return close('}'); }
    JsonWriter& begin_array(bool block = false) { return open('[', block); }
    JsonWriter& end_array() { return close(']'); }

    JsonWriter& key(std::string_view name) {
        element();
        out_ += '"' + json::escape(name) + "\": ";
        key_ = name;
        after_key_ = true;
        return *this;
    }
    JsonWriter& string(std::string_view text) {
        return scalar('"' + json::escape(text) + '"');
    }
    JsonWriter& boolean(bool b) { return scalar(b ? "true" : "false"); }
    JsonWriter& integer(std::int64_t n) { return scalar(std::to_string(n)); }
    JsonWriter& number(double v) {
        if (!std::isfinite(v))
            throw std::domain_error("JSON has no encoding for the non-finite value of \"" +
                                    key_ + "\"");
        return scalar(json::fmt(v));
    }

    [[nodiscard]] const std::string& str() const { return out_; }

private:
    struct Level {
        bool block;
        bool empty = true;
    };

    /// Separator and line break before a key, or before a value in an array.
    void element() {
        if (after_key_) {
            after_key_ = false;
            return;
        }
        if (levels_.empty()) return;
        Level& level = levels_.back();
        if (!level.empty) out_ += level.block ? "," : ", ";
        if (level.block) out_ += '\n' + std::string(2 * levels_.size(), ' ');
        level.empty = false;
    }
    JsonWriter& scalar(const std::string& text) {
        element();
        out_ += text;
        return *this;
    }
    JsonWriter& open(char bracket, bool block) {
        element();
        out_ += bracket;
        levels_.push_back({block && (levels_.empty() || levels_.back().block)});
        return *this;
    }
    JsonWriter& close(char bracket) {
        const Level level = levels_.back();
        levels_.pop_back();
        if (level.block && !level.empty)
            out_ += '\n' + std::string(2 * levels_.size(), ' ');
        out_ += bracket;
        return *this;
    }

    std::string out_;
    std::vector<Level> levels_;
    std::string key_;
    bool after_key_ = false;
};

/// A report value: text, a count, a number or a timed value.
struct Cell {
    std::variant<std::string, std::int64_t, double, Timing> value;

    Cell(std::string text) : value(std::move(text)) {}
    Cell(const char* text) : value(std::string(text)) {}
    template <std::integral T>
    Cell(T n) : value(static_cast<std::int64_t>(n)) {}
    Cell(double v) : value(v) {}
    Cell(Timing t) : value(t) {}

    void write(JsonWriter& w) const {
        if (const auto* s = std::get_if<std::string>(&value)) w.string(*s);
        else if (const auto* n = std::get_if<std::int64_t>(&value)) w.integer(*n);
        else if (const auto* v = std::get_if<double>(&value)) w.number(*v);
        else {
            const Timing& t = std::get<Timing>(value);
            w.begin_object();
            w.key("median").number(t.median);
            w.key("min").number(t.min);
            w.key("q1").number(t.q1);
            w.key("q3").number(t.q3);
            w.end_object();
        }
    }
};

/// One table column: its JSON key, its stdout header, and how a number (or
/// a timed value's median) is shown on stdout.
struct Column {
    std::string key;
    std::string header;
    int decimals = 0;
    std::string suffix{};  ///< appended on stdout, e.g. "x"
};

class ReportTable {
public:
    ReportTable(std::string name, std::vector<Column> columns)
        : name_(std::move(name)), columns_(std::move(columns)) {}

    void row(std::vector<Cell> cells) {
        if (cells.size() != columns_.size())
            throw std::invalid_argument("table " + name_ + ": row has " +
                                        std::to_string(cells.size()) + " cells for " +
                                        std::to_string(columns_.size()) + " columns");
        rows_.push_back(std::move(cells));
    }

    /// The stdout rendering.
    [[nodiscard]] std::string render() const {
        std::vector<std::string> header;
        for (const Column& c : columns_) header.push_back(c.header);
        Table table(header);
        for (const std::vector<Cell>& cells : rows_) {
            std::vector<std::string> text;
            for (std::size_t i = 0; i < cells.size(); ++i)
                text.push_back(show(cells[i], columns_[i]));
            table.add_row(std::move(text));
        }
        return table.render();
    }

    void write(JsonWriter& w) const {
        w.key(name_).begin_array(true);
        for (const std::vector<Cell>& cells : rows_) {
            w.begin_object();
            for (std::size_t i = 0; i < cells.size(); ++i) {
                w.key(columns_[i].key);
                cells[i].write(w);
            }
            w.end_object();
        }
        w.end_array();
    }

private:
    static std::string show(const Cell& cell, const Column& column) {
        if (const auto* s = std::get_if<std::string>(&cell.value)) return *s;
        if (const auto* n = std::get_if<std::int64_t>(&cell.value))
            return std::to_string(*n) + column.suffix;
        const double v = std::holds_alternative<double>(cell.value)
                             ? std::get<double>(cell.value)
                             : std::get<Timing>(cell.value).median;
        return Table::num(v, column.decimals) + column.suffix;
    }

    std::string name_;
    std::vector<Column> columns_;
    std::vector<std::vector<Cell>> rows_;
};

enum class Op { AtLeast, AtMost, Equal };

/// One bench run's results: facts, tables and gates, rendered to stdout and
/// to BENCH_<bench>.json from the same values.
class Report {
public:
    Report(std::string bench, const Args& args, int rounds)
        : bench_(std::move(bench)), smoke_(args.smoke), echo_(args.json), rounds_(rounds) {}

    void fact(std::string key, Cell value) {
        facts_.emplace_back(std::move(key), std::move(value));
    }

    /// Declares a table; the reference stays valid for the report's life.
    ReportTable& table(std::string name, std::vector<Column> columns) {
        return tables_.emplace_back(std::move(name), std::move(columns));
    }

    /// A timing gate: `value op bound` must hold when `evaluated` is true
    /// (some gates apply only in full mode or on multi-core hosts).
    void gate(std::string name, double value, Op op, double bound, bool evaluated = true) {
        const bool pass = op == Op::AtLeast  ? value >= bound
                          : op == Op::AtMost ? value <= bound
                                             : value == bound;
        gates_.push_back({std::move(name), value, op, bound, evaluated, pass});
    }
    /// An identity or parity gate, evaluated in every mode: value 1 == 1.
    void check(std::string name, bool holds) {
        gate(std::move(name), holds ? 1.0 : 0.0, Op::Equal, 1.0);
    }

    /// 1 when an evaluated gate failed, else 0; skipped gates never fail.
    [[nodiscard]] int exit_status() const {
        for (const Gate& g : gates_)
            if (g.evaluated && !g.pass) return 1;
        return 0;
    }

    [[nodiscard]] std::string json() const {
        JsonWriter w;
        w.begin_object(true);
        w.key("bench").string(bench_);
        w.key("smoke").boolean(smoke_);
        w.key("rounds").integer(rounds_);
        w.key("facts").begin_object(true);
        for (const auto& [key, value] : facts_) {
            w.key(key);
            value.write(w);
        }
        w.end_object();
        w.key("tables").begin_object(true);
        for (const ReportTable& t : tables_) t.write(w);
        w.end_object();
        w.key("gates").begin_array(true);
        for (const Gate& g : gates_) {
            w.begin_object();
            w.key("name").string(g.name);
            w.key("value").number(g.value);
            w.key("op").string(op_text(g.op));
            w.key("bound").number(g.bound);
            w.key("evaluated").boolean(g.evaluated);
            w.key("pass").boolean(g.pass);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return w.str() + "\n";
    }

    /// Prints one line per gate, writes BENCH_<bench>.json (echoed to
    /// stdout with --json) and returns the process exit status.
    [[nodiscard]] int finish() const {
        for (const Gate& g : gates_) {
            std::cout << "gate " << g.name << ": "
                      << (!g.evaluated ? "skipped" : g.pass ? "pass" : "FAIL");
            if (g.op != Op::Equal)  // a check has no quantity worth printing
                std::cout << " (" << Table::num(g.value, 3) << ' ' << op_text(g.op) << ' '
                          << Table::num(g.bound, 3) << ")";
            std::cout << "\n";
        }
        const std::string doc = json();
        const std::string path = "BENCH_" + bench_ + ".json";
        std::ofstream out(path);
        out << doc;
        if (!out) {
            std::cerr << "cannot write " << path << "\n";
            return 1;
        }
        if (echo_) std::cout << doc;
        return exit_status();
    }

private:
    struct Gate {
        std::string name;
        double value;
        Op op;
        double bound;
        bool evaluated;
        bool pass;
    };

    static const char* op_text(Op op) {
        return op == Op::AtLeast ? ">=" : op == Op::AtMost ? "<=" : "==";
    }

    std::string bench_;
    bool smoke_;
    bool echo_;
    int rounds_;
    std::vector<std::pair<std::string, Cell>> facts_;
    std::deque<ReportTable> tables_;
    std::vector<Gate> gates_;
};

/// Physical implementation of a netlist on a device: pack + regioned
/// placement + annealing + routing.
struct Implementation {
    par::PackedDesign packed;
    fabric::Device device;
    par::Placement placement;
    par::RoutedDesign routed;

    Implementation(const netlist::Netlist& nl, fabric::PartName part,
                   double effort = 0.15, double activity_beta = 0.0,
                   const sim::ActivityMap* activity = nullptr)
        : packed(par::pack(nl)),
          device(part),
          placement(device, nl, packed),
          routed(placement, par::ChannelCapacity{}) {
        placement.place_initial();
        par::PlacerOptions options;
        options.effort = effort;
        options.activity_beta = activity_beta;
        (void)par::anneal(placement, options, activity);
        routed.route_all(par::RouteMode::Performance);
    }
};

/// Stimulates the system netlist for `cycles` and recovers per-net activity
/// through the full VCD round trip (post-PAR simulation -> VCD -> parse),
/// mirroring the paper's XPower flow. Thin wrapper over app::system_activity
/// on the library's default engine, so benches, campaigns and examples share
/// one stimulus definition; the result is the same ActivityMap the counter
/// path gives.
inline sim::ActivityMap system_activity_via_vcd(const netlist::Netlist& nl,
                                                double clock_hz, int cycles = 256) {
    app::ActivityOptions opts;
    opts.cycles = cycles;
    opts.via_vcd = true;
    return app::system_activity(nl, clock_hz, opts);
}

}  // namespace refpga::benchkit
