#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int Tracer::open(std::string name, int job) {
    Span s;
    s.name = std::move(name);
    s.job = job;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void Tracer::close(int id) {
    spans_.at(id).end_ns = now_ns();
    open_.erase(std::remove(open_.begin(), open_.end(), id), open_.end());
}

void Tracer::import_ring(const refpga::obs::TraceRing& ring,
                         std::int64_t ring_offset_ns, int parent, int job) {
    std::vector<refpga::obs::TraceEvent> events = ring.snapshot();
    // Outer spans first: by thread, start, then longest first.
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
        if (a.thread != b.thread) return a.thread < b.thread;
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        return a.duration_ns > b.duration_ns;
    });
    std::vector<int> stack;
    std::uint32_t thread = 0;
    for (const auto& e : events) {
        if (stack.empty() || e.thread != thread) stack.clear();
        thread = e.thread;
        Span s;
        s.name = ring.name(e.name);
        s.start_ns = static_cast<std::int64_t>(e.start_ns) + ring_offset_ns;
        s.end_ns = s.start_ns + static_cast<std::int64_t>(e.duration_ns);
        s.job = job;
        s.thread = static_cast<int>(e.thread) + 1;
        while (!stack.empty() && spans_[stack.back()].end_ns <= s.start_ns)
            stack.pop_back();
        s.parent = stack.empty() ? parent : stack.back();
        spans_.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans_.size()) - 1);
    }
}

std::map<std::string, double> Tracer::self_seconds_by_name(int job) const {
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& c : spans_)
        if (c.parent >= 0 && c.end_ns >= 0 && spans_[c.parent].thread == c.thread)
            covered[c.parent] += c.end_ns - c.start_ns;
    std::map<std::string, std::pair<double, int>> acc;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.job != job || s.thread != 0 || s.end_ns < 0) continue;
        auto& [sum, calls] = acc[s.name];
        sum += static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9;
        ++calls;
    }
    std::map<std::string, double> out;
    for (const auto& [name, v] : acc) out[name] = v.first / v.second;
    return out;
}

std::string Tracer::chrome_json() const {
    std::ostringstream os;
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_ns < 0) continue;
        if (!first) os << ",\n";
        first = false;
        // Span names are library and benchmark identifiers: no characters
        // that need JSON escaping.
        os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << s.thread << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
           << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"job\":" << s.job << "}}";
    }
    os << "]}\n";
    return os.str();
}

}  // namespace perfbench
