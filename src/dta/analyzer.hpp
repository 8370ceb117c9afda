// Dynamic timing analysis (the paper's Perl DTA tool + Matlab extraction).
//
// Consumes the endpoint event log and the aligned occupancy trace, and for
// every cycle: recovers per-endpoint dynamic slack (relating each data
// arrival to the *skewed* clock edge of the same endpoint and its setup
// time), groups endpoints into pipeline stages via the pipeline
// specification, takes per-stage maxima, attributes them to the occupying
// instructions, and finally extracts per-(instruction, stage) worst-case
// delays that populate the delay LUT.
//
// Two ingestion paths share the same extraction arithmetic:
//  - analyze(log, trace): offline analysis of a materialized event log
//    (events in any order), retaining per-cycle delays for figure queries.
//    The oracle (CharacterizationFlow::run_offline).
//  - consume_batch(...): blocks of cycles whose events the batched engine
//    already reduced to per-stage maxima, folded in cycle order into the
//    per-(key, stage) accumulators and fixed-resolution figure histograms;
//    nothing per cycle is kept, so memory is independent of the number of
//    cycles. Produces the same table, statistics and histograms as
//    analyze() over the same cycle stream.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "dta/delay_table.hpp"
#include "dta/event_log.hpp"
#include "timing/netlist.hpp"

namespace focs::dta {

/// Endpoint-side inputs the analyzer needs (stage grouping, setup, skew).
/// This is the "pipeline specification" of paper Fig. 2.
struct PipelineSpec {
    struct EndpointInfo {
        sim::Stage stage = sim::Stage::kAdr;
        double setup_ps = 0;
        double skew_ps = 0;
    };
    std::vector<EndpointInfo> endpoints;  ///< indexed by endpoint id

    static PipelineSpec from_netlist(const timing::SyntheticNetlist& netlist);
};

struct AnalyzerConfig {
    double static_period_ps = 0;  ///< STA fallback / report ceiling
    double lut_guard_ps = 25.0;   ///< guard added on observed maxima
    int min_occurrences = 10;     ///< below: fall back to the static limit
    /// Raw samples retained per (key, stage) for histogram rendering; keeps
    /// sample memory bounded for arbitrarily long runs. Beyond the cap a
    /// deterministic reservoir keeps the retained set representative of the
    /// whole run. 0 = unlimited.
    int sample_cap = 8192;
};

/// Fixed resolution of the batched figure accumulators. Figure queries
/// (genie_histogram, stage_histogram) serve any bin count that divides this
/// (covers the 32/40/50-bin figures of the benches).
inline constexpr int kFigureBins = 1600;

/// Aggregated delay statistics of one (instruction key, stage) pair.
struct KeyStageStats {
    std::uint64_t occurrences = 0;
    double max_ps = 0;
    RunningStats stats;
};

class DynamicTimingAnalysis {
public:
    DynamicTimingAnalysis(PipelineSpec spec, AnalyzerConfig config);

    /// Runs the offline analysis. Events may arrive in any order; the trace
    /// must contain every cycle referenced by an event. Cannot be combined
    /// with batched ingestion on the same instance.
    void analyze(const EventLog& log, const OccupancyTrace& trace);

    /// Batched ingestion: folds a block of cycles whose endpoint events
    /// were already reduced to per-stage maxima by the batch endpoint
    /// kernel (BatchCharacterizationEngine). Cycles must arrive in order
    /// across calls; chain multiple programs by continuing to call it.
    void consume_batch(std::span<const FoldedCycle> batch);

    // ---- Per-cycle results (paper Figs. 5/6) -------------------------------
    /// Recovered per-cycle per-stage maximum dynamic delays. Offline
    /// analysis only: empty after batched ingestion (nothing is retained).
    const std::vector<std::array<double, sim::kStageCount>>& cycle_stage_delays() const {
        return cycle_delays_;
    }
    /// Histogram of per-cycle maxima over all stages (Fig. 5). After
    /// batched ingestion `bins` must divide kFigureBins.
    Histogram genie_histogram(int bins = 50) const;
    /// Histogram of one stage's per-cycle maximum delays (the "dynamic
    /// slack distributions ... at pipeline stage granularity" of Sec. II-B).
    /// After batched ingestion `bins` must divide kFigureBins.
    Histogram stage_histogram(sim::Stage stage, int bins = 50) const;
    /// Mean of the per-cycle maxima: the genie-aided average clock period.
    double genie_mean_period_ps() const;
    /// How often each stage owned the per-cycle maximum (Fig. 6).
    std::array<std::uint64_t, sim::kStageCount> limiting_stage_counts() const {
        return limiting_counts_;
    }
    std::uint64_t cycles() const { return cycles_; }

    // ---- Per-instruction results (Table II, Fig. 7) ------------------------
    const KeyStageStats& stats(OccKey key, sim::Stage stage) const;
    /// Delay histogram of one (instruction, stage) pair (Fig. 7 uses l.mul).
    Histogram key_stage_histogram(OccKey key, sim::Stage stage, int bins = 40) const;

    /// Builds the delay LUT: observed max + guard for sufficiently
    /// characterized entries, static fallback otherwise.
    DelayTable build_delay_table() const;

private:
    /// Shared extraction step of both paths: limiting-stage attribution and
    /// per-(key, stage) statistics for one cycle. Returns the cycle's worst
    /// stage delay (the genie period of that cycle).
    double accumulate_cycle(const std::array<OccKey, sim::kStageCount>& keys,
                            const std::array<double, sim::kStageCount>& delays);

    PipelineSpec spec_;
    AnalyzerConfig config_;
    std::uint64_t cycles_ = 0;
    bool batched_ = false;
    std::vector<std::array<double, sim::kStageCount>> cycle_delays_;
    std::array<std::uint64_t, sim::kStageCount> limiting_counts_{};
    std::array<std::array<KeyStageStats, sim::kStageCount>, kKeyCount> key_stats_{};
    // Raw samples per (key, stage) for histogram rendering; reservoir-
    // bounded by config_.sample_cap to keep memory independent of the run
    // length while remaining representative of the whole run.
    std::array<std::array<std::vector<float>, sim::kStageCount>, kKeyCount> key_samples_;
    // Batched figure accumulators (fixed binning, constant memory):
    // [0] = genie (per-cycle maxima), [1 + stage] = per-stage delays.
    std::vector<Histogram> figure_hists_;
    RunningStats genie_stats_;
};

}  // namespace focs::dta
