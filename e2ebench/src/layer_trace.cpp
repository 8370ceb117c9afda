#include "layer_trace.hpp"

#include "common/json.hpp"

namespace e2ebench {

void LayerTrace::add(std::string name, Clock::time_point start, Clock::time_point end, int tid) {
    events_.push_back(Event{std::move(name), start, end, tid});
}

double LayerTrace::total_ms(const std::string& name, Clock::time_point since) const {
    double total = 0;
    for (const Event& event : events_) {
        if (event.name == name && event.start >= since) total += ms_between(event.start, event.end);
    }
    return total;
}

std::string LayerTrace::chrome_json(const std::map<std::string, std::uint64_t>& counters) const {
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    std::string out = "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& event = events_[i];
        if (i > 0) out += ",";
        out += "\n  {\"name\": " + focs::json::quote(event.name) +
               ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(event.tid) +
               ", \"ts\": " + focs::json::number(us(event.start)) +
               ", \"dur\": " + focs::json::number(us(event.end) - us(event.start)) + "}";
    }
    out += "\n], \"metrics\": {\"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        if (!first) out += ", ";
        first = false;
        out += focs::json::quote(name) + ": " + std::to_string(value);
    }
    out += "}}}\n";
    return out;
}

}  // namespace e2ebench
