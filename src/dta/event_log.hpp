// Endpoint event log — the equivalent of the paper's TSSI event log
// produced by SDF gate-level simulation.
//
// For every clock cycle and sequential endpoint the log records the
// endpoint's dynamic delay requirement (the last data-input event already
// normalized by the endpoint's setup margin and clock skew) and the arrival
// of the next active clock edge at that same endpoint (which differs per
// endpoint because of clock skew). The dynamic timing analyzer recovers
// per-endpoint slack from exactly these two timestamps, as described in
// paper Sec. II-B.2; producers pre-normalize the arrival so the recovered
// requirement is an exact floating-point image of the timing model output
// (the invariant behind DelayTable's scaled voltage views).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dta/delay_table.hpp"
#include "sim/cycle_record.hpp"

namespace focs::dta {

struct EndpointEvent {
    std::uint64_t cycle = 0;
    std::int32_t endpoint_id = 0;
    double data_arrival_ps = 0;  ///< setup/skew-normalized last data-pin event
    double clock_edge_ps = 0;    ///< next capture edge at this endpoint
};

/// Per-cycle pipeline occupancy attribution (the "PC trace + disassembly"
/// side input of the paper's flow, already aligned to stages).
struct TraceEntry {
    std::uint64_t cycle = 0;
    std::array<OccKey, sim::kStageCount> keys{};
};

/// One cycle of a characterization batch after the endpoint kernel reduced
/// the per-endpoint events to per-stage maxima: the occupancy attribution
/// plus the worst recovered data-arrival requirement of every stage. Blocks
/// of these are folded straight into the DynamicTimingAnalysis accumulators
/// (consume_batch) without materializing any EndpointEvent.
struct FoldedCycle {
    std::uint64_t cycle = 0;
    std::array<OccKey, sim::kStageCount> keys{};
    std::array<double, sim::kStageCount> stage_ps{};
};

/// In-memory event log with text (de)serialization.
class EventLog {
public:
    void add(EndpointEvent event) { events_.push_back(event); }
    /// Bulk-appends one producer's events, shifting cycles by `cycle_offset`
    /// (concatenating per-program timelines into one global timeline).
    void append_shifted(const EventLog& other, std::uint64_t cycle_offset);
    const std::vector<EndpointEvent>& events() const { return events_; }
    std::size_t size() const { return events_.size(); }

    std::string serialize() const;
    static EventLog deserialize(const std::string& text);

private:
    std::vector<EndpointEvent> events_;
};

/// Occupancy trace with text (de)serialization.
class OccupancyTrace {
public:
    void add(TraceEntry entry) { entries_.push_back(entry); }
    /// Bulk-appends another trace with its cycles shifted by `cycle_offset`.
    void append_shifted(const OccupancyTrace& other, std::uint64_t cycle_offset);
    const std::vector<TraceEntry>& entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }

    std::string serialize() const;
    static OccupancyTrace deserialize(const std::string& text);

private:
    std::vector<TraceEntry> entries_;
};

}  // namespace focs::dta
