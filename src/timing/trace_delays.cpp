#include "timing/trace_delays.hpp"

#include <utility>

#include "common/error.hpp"

namespace focs::timing {

UnitTraceDelays compute_unit_trace_delays(const DelayCalculator& calculator,
                                          const std::vector<sim::CycleRecord>& records) {
    UnitTraceDelays out;
    out.unit_static_period_ps = calculator.unit_static_period_ps();
    out.unit_required_period_ps.reserve(records.size());
    // One cycle-major pass through the per-record oracle itself: each record
    // is read once, while its stages are still in cache, and the guard
    // throws from evaluate_unit on the first cycle that trips it.
    for (const sim::CycleRecord& record : records) {
        out.unit_required_period_ps.push_back(calculator.evaluate_unit(record).required_period_ps);
    }
    return out;
}

ScaledTraceDelays scale_trace_delays(std::shared_ptr<const UnitTraceDelays> unit,
                                     const DelayCalculator& calculator) {
    check(unit != nullptr, "cannot scale a null unit trace-delay artifact");
    ScaledTraceDelays scaled;
    scaled.unit = std::move(unit);
    scaled.delay_scale = calculator.voltage_scale();
    scaled.static_period_ps = calculator.static_period_ps();
    return scaled;
}

}  // namespace focs::timing
