// Required-period ground truth of a recorded trace — voltage-invariant.
//
// The DCA engine's safety checker and the genie oracle both consume the
// per-cycle minimum safe clock period. Live evaluation derives it inside
// every run (DelayCalculator::evaluate per cycle per cell). For replay the
// requirement factors: the delay model's voltage dependence is a single
// multiplicative delay_scale(v) (see DelayCalculator::evaluate_unit), so
// the *unit* (unscaled) requirement is a pure function of (trace, design
// variant, seed) alone. It is therefore computed exactly once per trace,
// one DelayCalculator::evaluate_unit call per record, and every operating
// point on the voltage axis is served by a ScaledTraceDelays *view*: the
// shared unit array plus one scalar. A V-point sweep grid pays ~one
// delay-model pass instead of V, and keeps one resident double array per
// trace instead of V copies. Per-record DelayCalculator::evaluate stays the
// oracle the scaled views are tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cycle_record.hpp"
#include "timing/delay_model.hpp"

namespace focs::timing {

/// Voltage-free per-cycle requirements of one trace: one entry per cycle in
/// the calibration tables' 0.70 V unit domain. Computed once per (trace,
/// design variant, seed); immutable afterwards and shared read-only — via
/// shared_ptr — by every ScaledTraceDelays view on the voltage axis.
struct UnitTraceDelays {
    /// Static period before voltage scaling
    /// (DelayCalculator::unit_static_period_ps of the same variant).
    double unit_static_period_ps = 0;
    /// unit_required_period_ps[c] * delay_scale(v) is bit-identical to
    /// DelayCalculator::evaluate(records[c]).required_period_ps at voltage
    /// v: positive-constant multiplication is monotone under IEEE rounding,
    /// so the max over stages commutes with the scale.
    std::vector<double> unit_required_period_ps;

    std::uint64_t cycles() const {
        return static_cast<std::uint64_t>(unit_required_period_ps.size());
    }

    /// Resident size for cache byte budgeting: one double per trace cycle.
    std::uint64_t estimated_bytes() const {
        return sizeof *this +
               static_cast<std::uint64_t>(unit_required_period_ps.capacity()) * sizeof(double);
    }
};

/// One operating point's view of a shared UnitTraceDelays: the unit array
/// plus the point's delay scale. Copyable (a shared_ptr and two doubles);
/// safe to hand to replay workers by value.
struct ScaledTraceDelays {
    std::shared_ptr<const UnitTraceDelays> unit;
    /// Cell-library delay_scale(v) of the operating point.
    double delay_scale = 1.0;
    /// STA period at the operating point, bit-identical to
    /// DelayCalculator::static_period_ps() of the same design.
    double static_period_ps = 0;

    /// Minimum safe clock period of trace cycle c at this operating point;
    /// bit-identical to DelayCalculator::evaluate(records[c]) there.
    double required_period_ps(std::uint64_t c) const {
        return unit->unit_required_period_ps[c] * delay_scale;
    }

    std::uint64_t cycles() const { return unit != nullptr ? unit->cycles() : 0; }
};

/// One pass over the trace: entry c is
/// calculator.evaluate_unit(records[c]).required_period_ps, and the pass
/// throws where evaluate_unit does. Voltage-free — `calculator` contributes
/// only its variant's bands and the design seed. Call once per (trace,
/// variant).
UnitTraceDelays compute_unit_trace_delays(const DelayCalculator& calculator,
                                          const std::vector<sim::CycleRecord>& records);

/// Derives one operating point's view from a shared unit array; the scale
/// and static period are taken from `calculator` so they are bit-identical
/// to the live engine's values at that point.
ScaledTraceDelays scale_trace_delays(std::shared_ptr<const UnitTraceDelays> unit,
                                     const DelayCalculator& calculator);

}  // namespace focs::timing
