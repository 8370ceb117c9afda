// In-memory span recorder of the benchmark's traced runs.
//
// The benchmark puts one span around each call it makes into a library
// layer (and, for the daemon workload, around each client-side phase of a
// request). Spans stay in memory and are written once at the end as Chrome
// trace-event JSON in the shape tools/trace_summary.py validates. One
// recorder belongs to one thread; the traced runs are single-threaded.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

class LayerTrace {
public:
    struct Event {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int tid = 0;  ///< trace lane (e.g. one per in-flight request)
    };

    /// RAII span: records [construction, destruction) under `name`.
    class Scope {
    public:
        Scope(LayerTrace& trace, std::string name)
            : trace_(trace), name_(std::move(name)), start_(Clock::now()) {}
        ~Scope() { trace_.add(std::move(name_), start_, Clock::now()); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        LayerTrace& trace_;
        std::string name_;
        Clock::time_point start_;
    };

    explicit LayerTrace(Clock::time_point origin = Clock::now()) : origin_(origin) {}

    Scope span(std::string name) { return Scope(*this, std::move(name)); }
    void add(std::string name, Clock::time_point start, Clock::time_point end, int tid = 0);

    /// Summed duration (ms) of every span named `name`, optionally only
    /// those starting at or after `since`.
    double total_ms(const std::string& name, Clock::time_point since = {}) const;

    const std::vector<Event>& events() const { return events_; }

    /// {"traceEvents": [...], "metrics": {"counters": {...}}}: complete
    /// ("X") events in microseconds from the recorder's origin.
    std::string chrome_json(const std::map<std::string, std::uint64_t>& counters = {}) const;

private:
    Clock::time_point origin_;
    std::vector<Event> events_;
};

}  // namespace e2ebench
