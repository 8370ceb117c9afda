// "Gate-level simulation" observer: the producer side of the offline
// characterization flow (CharacterizationFlow::run_offline).
//
// Attaches to the cycle-accurate pipeline and records, per cycle, the
// endpoint event stream (data arrivals vs. per-endpoint clock edges) that
// the paper obtains from SDF-annotated ModelSim runs, plus the aligned
// occupancy trace, into an EventLog / OccupancyTrace for offline analysis,
// serialization and golden tests; it also records the ground-truth
// per-cycle reference delays. The pipeline runs at a deliberately relaxed
// simulation clock (paper: "at a low clock frequency") so every arrival is
// observable. The batched engine (batch_engine.hpp) fuses this producer
// with the analyzer's slack recovery and materializes nothing.
#pragma once

#include <array>
#include <vector>

#include "dta/event_log.hpp"
#include "sim/cycle_record.hpp"
#include "timing/delay_model.hpp"
#include "timing/netlist.hpp"

namespace focs::dta {

class GateLevelSimulation : public sim::PipelineObserver {
public:
    /// `netlist` and `calculator` must outlive the observer.
    /// `sim_period_factor` sets the relaxed gate-sim clock as a multiple of
    /// the design's static period.
    GateLevelSimulation(const timing::SyntheticNetlist& netlist,
                        const timing::DelayCalculator& calculator,
                        double sim_period_factor = 1.25);

    void on_cycle(const sim::CycleRecord& record) override;

    const EventLog& event_log() const { return event_log_; }
    const OccupancyTrace& trace() const { return trace_; }
    double sim_period_ps() const { return sim_period_ps_; }

    /// Ground-truth per-cycle stage delays (used by tests to verify that
    /// the analyzer recovers them exactly from the event log).
    const std::vector<std::array<double, sim::kStageCount>>& reference_delays() const {
        return reference_delays_;
    }

private:
    /// Stage-major SoA endpoint view (contiguous skew/setup/hash-key loads;
    /// the per-endpoint jitter-hash constants are precomputed here instead
    /// of being rederived per endpoint per cycle).
    const timing::EndpointSoA& soa_;
    const timing::DelayCalculator& calculator_;
    double sim_period_ps_;
    EventLog event_log_;
    OccupancyTrace trace_;
    std::vector<std::array<double, sim::kStageCount>> reference_delays_;
};

}  // namespace focs::dta
