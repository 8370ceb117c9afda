// Batched characterization engine: the one fast path of
// CharacterizationFlow::run.
//
// The offline flow (GateLevelSimulation + DynamicTimingAnalysis::analyze)
// materializes one EndpointEvent per endpoint per cycle. This engine never
// does; it works on *batches*:
//
//   pipeline (producer thread)
//        │  distills each CycleRecord into a batch entry
//        │  (cycle id, occupancy keys, per-stage required delays)
//        ▼
//   bounded ring of batch slots
//        │  worker threads run the endpoint kernel over contiguous
//        │  *endpoint shards* of the netlist's SoA view, writing
//        ▼  per-shard partial per-stage maxima
//   in-order merger
//        │  max-merges the shard partials in deterministic shard order and
//        ▼  folds the block into the DynamicTimingAnalysis accumulators
//   DynamicTimingAnalysis::consume_batch
//
// The endpoint kernel performs exactly the arithmetic of the event-emitting
// producer fused with the analyzer's slack recovery (one fused splitmix64
// per endpoint, SoA constant loads, no EndpointEvent), so the resulting
// delay tables, figure histograms and per-(instruction, stage) statistics
// equal the offline analysis of the same cycles for every worker count and
// batch size. With threads <= 1 the engine runs the same batch kernel
// inline on the producer thread (no ring, no locks).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/cancel.hpp"
#include "dta/analyzer.hpp"
#include "sim/cycle_record.hpp"
#include "timing/delay_model.hpp"
#include "timing/netlist.hpp"

namespace focs::dta {

struct BatchOptions {
    /// Endpoint-kernel worker threads. <= 1 runs the batch kernel inline on
    /// the producing thread (serial batched mode, no threads spawned);
    /// N > 1 spawns N kernel workers plus one in-order merger thread.
    int threads = 1;
    /// Cycles per batch slot. Any value >= 1 produces identical results;
    /// the default amortizes slot hand-off without hurting locality.
    int batch_cycles = 1024;
    /// Optional cooperative cancellation, polled once per batch slot (never
    /// per cycle): a fired token throws CancelledError out of on_cycle at
    /// the next slot boundary. nullptr = never cancelled.
    const CancellationToken* cancel = nullptr;
};

class BatchCharacterizationEngine final : public sim::PipelineObserver {
public:
    /// `netlist`, `calculator` and `analysis` must outlive the engine. The
    /// engine may observe several machine runs back to back (the
    /// characterization suite); call finish() once after the last run.
    BatchCharacterizationEngine(const timing::SyntheticNetlist& netlist,
                                const timing::DelayCalculator& calculator,
                                DynamicTimingAnalysis& analysis, BatchOptions options = {},
                                double sim_period_factor = 1.25);
    ~BatchCharacterizationEngine() override;

    BatchCharacterizationEngine(const BatchCharacterizationEngine&) = delete;
    BatchCharacterizationEngine& operator=(const BatchCharacterizationEngine&) = delete;

    void on_cycle(const sim::CycleRecord& record) override;

    /// Flushes the partial batch, drains the ring, joins all threads and
    /// rethrows the first kernel/fold error (e.g. a violated endpoint).
    /// Must be called before reading results from the analysis; the engine
    /// cannot observe further cycles afterwards.
    void finish();

    double sim_period_ps() const { return sim_period_ps_; }
    std::uint64_t cycles_observed() const { return cycles_observed_; }
    int threads() const { return options_.threads; }

private:
    struct Impl;

    /// One contiguous SoA endpoint run of one stage inside a shard.
    struct Segment {
        int stage = 0;
        std::size_t begin = 0;        ///< SoA slice [begin, end)
        std::size_t end = 0;
        std::size_t stage_first = 0;  ///< SoA index of the stage's first endpoint
        std::size_t stage_size = 0;
    };

    /// Runs the endpoint kernel for `shard` over `count` batch entries,
    /// writing the shard's per-cycle per-stage partial maxima (stages the
    /// shard does not cover stay 0, the fold identity).
    void run_shard(const std::vector<Segment>& shard, const std::uint64_t* cycles,
                   const std::array<double, sim::kStageCount>* stage_ps, std::size_t count,
                   double* partial) const;

    void flush_serial();

    const timing::EndpointSoA& soa_;
    const timing::DelayCalculator& calculator_;
    DynamicTimingAnalysis& analysis_;
    BatchOptions options_;
    double sim_period_ps_ = 0;
    std::vector<std::vector<Segment>> shards_;
    std::uint64_t cycles_observed_ = 0;
    bool finished_ = false;

    // Serial batched mode: one producer-owned slot, processed inline.
    std::vector<std::uint64_t> serial_cycles_;
    std::vector<std::array<OccKey, sim::kStageCount>> serial_keys_;
    std::vector<std::array<double, sim::kStageCount>> serial_stage_ps_;
    std::size_t serial_count_ = 0;
    std::vector<double> serial_partial_;
    std::vector<FoldedCycle> fold_scratch_;

    // Parallel mode state (ring, threads, synchronization).
    std::unique_ptr<Impl> impl_;
};

}  // namespace focs::dta
