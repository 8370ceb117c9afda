// Traced re-execution of a replay sweep, one span per layer call.
//
// TracedSweep rebuilds what SweepEngine::run computes at 1 job by calling
// each layer's public function itself, in the engine's order: per
// (voltage, kernel, policy) column it fetches the delay table (assembling
// the characterization suite, characterizing at the nominal point and
// scaling the table on first use), the trace (assembling and recording the
// kernel on first use) and the unit delays, then derives the scaled view,
// constructs the replay engine and replays the column's generators fused.
// The SweepResult it returns serializes (canonical to_json) byte-identical
// to SweepEngine::run on the same spec; the benchmark checks that on every
// traced iteration.
//
// Span names are the per-layer metric names without the unit suffix:
// asm.assemble, dta.characterize, dta.scale_table, sim.record_trace,
// timing.unit_delays, timing.scale_view, core.replay_setup,
// core.replay_fused, all nested in one bench.traced_sweep span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "dta/delay_table.hpp"
#include "layer_trace.hpp"
#include "runtime/sweep_engine.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/trace_delays.hpp"

namespace e2ebench {

/// Work counts of one traced sweep (time is in the spans).
struct LayerCounts {
    std::uint64_t characterize_cycles = 0;
    std::uint64_t trace_cycles = 0;
    std::uint64_t trace_bytes = 0;
    std::uint64_t unit_delays_bytes = 0;
    /// Sum over replay calls of trace cycles x generator variants.
    std::uint64_t replay_variant_cycles = 0;
};

/// Time (ms) of run_fused restricted to one generator family at a time,
/// summed over every column of the sweep.
struct FamilySplit {
    double ideal_ms = 0;
    double taps_ms = 0;
    double pll_ms = 0;
};

class TracedSweep {
public:
    explicit TracedSweep(LayerTrace& trace) : trace_(trace) {}

    /// Runs `spec` at 1 job on fresh artifacts, recording one span per
    /// layer call into the trace. Rethrows the first failure (the benchmark
    /// only runs grids on which no cell fails).
    focs::runtime::SweepResult run(const focs::runtime::SweepSpec& spec);

    /// Re-replays every column of the last run() once per generator family
    /// (spans core.replay_ideal / _taps / _pll). Their sum against the
    /// fused time splits the shared request fill from the per-variant walks.
    FamilySplit split_families();

    const LayerCounts& counts() const { return counts_; }

private:
    struct Column {
        std::string kernel;
        focs::core::PolicySpec policy;
        focs::timing::DesignConfig design;
        std::vector<const focs::runtime::GeneratorSpec*> generators;
    };

    const focs::dta::DelayTable& table_for(const focs::timing::DesignConfig& design);
    const focs::sim::PipelineTrace& trace_for(const std::string& kernel);
    const std::shared_ptr<const focs::timing::UnitTraceDelays>& unit_for(
        const std::string& kernel, const focs::timing::DesignConfig& design);
    /// Scale view, engine setup and the column's (fused) replay.
    std::vector<focs::core::DcaRunResult> replay(const Column& column);

    LayerTrace& trace_;
    LayerCounts counts_;
    focs::runtime::SweepSpec spec_;
    focs::dta::AnalyzerConfig analyzer_config_;
    std::vector<Column> columns_;
    std::vector<focs::assembler::Program> characterization_programs_;
    std::shared_ptr<const focs::dta::DelayTable> nominal_;
    std::map<double, focs::dta::DelayTable> tables_;
    std::map<std::string, focs::sim::PipelineTrace> traces_;
    std::map<std::string, std::shared_ptr<const focs::timing::UnitTraceDelays>> units_;
};

}  // namespace e2ebench
