#include "refpga/obs/obs.hpp"

#include <cmath>
#include <sstream>

#include "refpga/common/contracts.hpp"
#include "refpga/common/json.hpp"

namespace refpga::obs {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
// map '.' (and anything else) to '_'.
std::string prometheus_name(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out.front() >= '0' && out.front() <= '9')
        out.insert(out.begin(), '_');
    return out;
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
    switch (kind) {
        case MetricKind::Counter: return "counter";
        case MetricKind::Gauge: return "gauge";
        case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

MetricId MetricRegistry::intern(std::string_view name, MetricKind kind,
                                std::vector<double> bounds) {
    REFPGA_EXPECTS(!name.empty());
    REFPGA_EXPECTS(bounds.size() <= kMaxBuckets);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
        REFPGA_EXPECTS(bounds[i] < bounds[i + 1] &&
                       "histogram bounds must be strictly increasing");
    for (const double b : bounds) REFPGA_EXPECTS(std::isfinite(b));

    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (slots_[i].name == name) {
            REFPGA_EXPECTS(slots_[i].kind == kind &&
                           "metric re-registered with a different kind");
            return MetricId{i};
        }
    }
    if (n == kMaxMetrics)
        throw ContractViolation("obs: metric registry is full");
    Slot& slot = slots_[n];
    slot.name.assign(name.begin(), name.end());
    slot.kind = kind;
    slot.bounds = std::move(bounds);
    // Release-publish: a hot-path add() that acquires `size_` > n sees the
    // fully constructed slot without taking the mutex.
    size_.store(n + 1, std::memory_order_release);
    return MetricId{n};
}

MetricId MetricRegistry::counter(std::string_view name) {
    return intern(name, MetricKind::Counter, {});
}

MetricId MetricRegistry::gauge(std::string_view name) {
    return intern(name, MetricKind::Gauge, {});
}

MetricId MetricRegistry::histogram(std::string_view name,
                                   std::vector<double> upper_bounds) {
    return intern(name, MetricKind::Histogram, std::move(upper_bounds));
}

void MetricRegistry::add(MetricId id, double delta) {
    if (!enabled() || !id.valid()) return;
    REFPGA_EXPECTS(id.index < size_.load(std::memory_order_acquire));
    slots_[id.index].value.add(delta);
}

void MetricRegistry::set(MetricId id, double value) {
    if (!enabled() || !id.valid()) return;
    REFPGA_EXPECTS(id.index < size_.load(std::memory_order_acquire));
    slots_[id.index].value.store(value);
}

void MetricRegistry::observe(MetricId id, double value) {
    if (!enabled() || !id.valid()) return;
    REFPGA_EXPECTS(id.index < size_.load(std::memory_order_acquire));
    Slot& slot = slots_[id.index];
    slot.value.add(value);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    std::size_t bucket = slot.bounds.size();  // overflow by default
    for (std::size_t i = 0; i < slot.bounds.size(); ++i) {
        if (value <= slot.bounds[i]) {
            bucket = i;
            break;
        }
    }
    slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::size_t MetricRegistry::size() const {
    return size_.load(std::memory_order_acquire);
}

MetricId MetricRegistry::find(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i)
        if (slots_[i].name == name) return MetricId{i};
    return MetricId{};
}

MetricRegistry::Snapshot MetricRegistry::snapshot(MetricId id) const {
    REFPGA_EXPECTS(id.valid() &&
                   id.index < size_.load(std::memory_order_acquire));
    const std::lock_guard<std::mutex> lock(mutex_);
    const Slot& slot = slots_[id.index];
    Snapshot snap;
    snap.name = slot.name;
    snap.kind = slot.kind;
    snap.value = slot.value.load();
    snap.count = slot.count.load(std::memory_order_relaxed);
    snap.bounds = slot.bounds;
    if (slot.kind == MetricKind::Histogram) {
        snap.buckets.resize(slot.bounds.size() + 1);
        for (std::size_t i = 0; i < snap.buckets.size(); ++i)
            snap.buckets[i] = slot.buckets[i].load(std::memory_order_relaxed);
    }
    return snap;
}

double MetricRegistry::value(std::string_view name) const {
    const MetricId id = find(name);
    if (!id.valid()) return 0.0;
    return slots_[id.index].value.load();
}

std::vector<MetricRegistry::Snapshot> MetricRegistry::snapshot_all() const {
    const std::uint32_t n = size_.load(std::memory_order_acquire);
    std::vector<Snapshot> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(snapshot(MetricId{i}));
    return out;
}

std::string MetricRegistry::render_text() const {
    std::ostringstream os;
    for (const Snapshot& s : snapshot_all()) {
        os << metric_kind_name(s.kind) << ' ' << s.name << ' ';
        if (s.kind == MetricKind::Histogram) {
            os << "count=" << s.count << " sum=" << json::fmt(s.value);
        } else {
            os << json::fmt(s.value);
        }
        os << '\n';
    }
    return os.str();
}

std::string MetricRegistry::render_json() const {
    std::ostringstream os;
    os << '[';
    bool first = true;
    for (const Snapshot& s : snapshot_all()) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << json::escape(s.name) << "\",\"kind\":\""
           << metric_kind_name(s.kind) << "\"";
        if (s.kind == MetricKind::Histogram) {
            os << ",\"sum\":" << json::fmt(s.value) << ",\"count\":" << s.count
               << ",\"bounds\":[";
            for (std::size_t i = 0; i < s.bounds.size(); ++i)
                os << (i != 0 ? "," : "") << json::fmt(s.bounds[i]);
            os << "],\"buckets\":[";
            for (std::size_t i = 0; i < s.buckets.size(); ++i)
                os << (i != 0 ? "," : "") << s.buckets[i];
            os << ']';
        } else {
            os << ",\"value\":" << json::fmt(s.value);
        }
        os << '}';
    }
    os << ']';
    return os.str();
}

std::string MetricRegistry::render_prometheus() const {
    std::ostringstream os;
    for (const Snapshot& s : snapshot_all()) {
        const std::string name = prometheus_name(s.name);
        os << "# TYPE " << name << ' ' << metric_kind_name(s.kind) << '\n';
        if (s.kind == MetricKind::Histogram) {
            std::int64_t cumulative = 0;
            for (std::size_t i = 0; i < s.bounds.size(); ++i) {
                cumulative += s.buckets[i];
                os << name << "_bucket{le=\"" << json::fmt(s.bounds[i]) << "\"} "
                   << cumulative << '\n';
            }
            cumulative += s.buckets.empty() ? 0 : s.buckets.back();
            os << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
            os << name << "_sum " << json::fmt(s.value) << '\n';
            os << name << "_count " << s.count << '\n';
        } else {
            os << name << ' ' << json::fmt(s.value) << '\n';
        }
    }
    return os.str();
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
    ring_.reserve(capacity_);
}

std::uint32_t TraceRing::intern(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name) return i;
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::string TraceRing::name(std::uint32_t id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return id < names_.size() ? names_[id] : std::string("?");
}

std::uint64_t TraceRing::now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

std::uint32_t TraceRing::thread_ordinal_locked() {
    const std::thread::id self = std::this_thread::get_id();
    for (const auto& [tid, ordinal] : thread_ids_)
        if (tid == self) return ordinal;
    const auto ordinal = static_cast<std::uint32_t>(thread_ids_.size());
    thread_ids_.emplace_back(self, ordinal);
    return ordinal;
}

void TraceRing::push(std::uint32_t name_id, std::uint64_t start_ns,
                     std::uint64_t duration_ns) {
    const std::lock_guard<std::mutex> lock(mutex_);
    TraceEvent ev;
    ev.name = name_id;
    ev.thread = thread_ordinal_locked();
    ev.seq = next_seq_++;
    ev.start_ns = start_ns;
    ev.duration_ns = duration_ns;
    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[ev.seq % capacity_] = ev;
    }
}

std::uint64_t TraceRing::pushed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_seq_;
}

std::uint64_t TraceRing::dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (next_seq_ <= capacity_) {
        out = ring_;
    } else {
        // The ring wrapped: slot seq % capacity holds the event; oldest
        // retained seq is next_seq_ - capacity_.
        for (std::uint64_t seq = next_seq_ - capacity_; seq < next_seq_; ++seq)
            out.push_back(ring_[seq % capacity_]);
    }
    return out;
}

std::string TraceRing::render_text() const {
    std::ostringstream os;
    os << "trace: pushed=" << pushed() << " dropped=" << dropped()
       << " capacity=" << capacity_ << '\n';
    for (const TraceEvent& ev : snapshot())
        os << "  [" << ev.seq << "] " << name(ev.name) << " t" << ev.thread
           << " start_ns=" << ev.start_ns << " dur_ns=" << ev.duration_ns
           << '\n';
    return os.str();
}

std::string TraceRing::render_json() const {
    std::ostringstream os;
    os << "{\"capacity\":" << capacity_ << ",\"pushed\":" << pushed()
       << ",\"dropped\":" << dropped() << ",\"events\":[";
    bool first = true;
    for (const TraceEvent& ev : snapshot()) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << json::escape(name(ev.name))
           << "\",\"thread\":" << ev.thread << ",\"seq\":" << ev.seq
           << ",\"start_ns\":" << ev.start_ns
           << ",\"duration_ns\":" << ev.duration_ns << '}';
    }
    os << "]}";
    return os.str();
}

std::string Recorder::render_text() const {
    return metrics_.render_text() + trace_.render_text();
}

std::string Recorder::render_json() const {
    return "{\"metrics\":" + metrics_.render_json() +
           ",\"trace\":" + trace_.render_json() + "}";
}

double ScopedTimer::stop() {
    if (metrics_ == nullptr) return 0.0;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    metrics_->observe(hist_, elapsed.count());
    metrics_ = nullptr;
    return elapsed.count();
}

ScopedSpan::ScopedSpan(Recorder* recorder, std::uint32_t span_name,
                       MetricId hist_seconds)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
      name_(span_name),
      hist_(hist_seconds) {
    if (recorder_ != nullptr) start_ns_ = recorder_->trace().now_ns();
}

void ScopedSpan::finish() {
    if (recorder_ == nullptr) return;
    const std::uint64_t end_ns = recorder_->trace().now_ns();
    const std::uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
    recorder_->trace().push(name_, start_ns_, dur);
    if (hist_.valid()) recorder_->metrics().observe(hist_, 1e-9 * static_cast<double>(dur));
    recorder_ = nullptr;
}

}  // namespace refpga::obs
