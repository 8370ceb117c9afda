// Batched policy-replay engine over recorded pipeline traces.
//
// Scores clocking schemes against one canonical PipelineTrace without
// re-simulating the guest. The per-cycle requested period of every bundled
// PolicyKind is a pure function of the trace's stage-major occupancy-key
// rows and the delay table, so each kind gets one devirtualized block fill
// (make_fill) built on the kernel table of replay_kernels.hpp: plain
// indexed gathers over whole trace blocks, no virtual dispatch, no
// CycleRecord reconstruction. One block loop then scores every generator
// variant of a column from the same filled block: a stateful clock
// generator grants the whole block in one grant_block call (its state
// carried across blocks), and every variant, ideal or not, goes through
// the table's reduce_ideal over its granted block. No call in the block
// loop is made per cycle. The required-period ground truth is consumed as a
// ScaledTraceDelays view — the trace's voltage-free unit array plus the
// operating point's delay scale — so every voltage point of a sweep shares
// one resident array and the safety check is one multiply per cycle.
// The engine scores bundled PolicyKinds only; a custom ClockPolicy runs
// live on DcaEngine::run.
//
// Every result is byte-identical to a live DcaEngine::run of the same cell
// at any block size, whether the fills dispatch through the SIMD table
// (when compiled in and supported) or the portable scalar one;
// ReplayOptions::force_scalar pins the scalar table, the oracle the tests
// diff against.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cancel.hpp"
#include "core/dca_engine.hpp"
#include "core/policies.hpp"
#include "core/replay_kernels.hpp"
#include "dta/delay_table.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/trace_delays.hpp"

namespace focs::core {

/// How the replay engine resolves its instrumentation: once per run,
/// outside the block loop, so the cycle loops never check a flag and an
/// uninstrumented run touches no metrics or tracer state at all.
enum class ReplayObsMode {
    /// Follow the global observability switches (--metrics / --trace-out).
    kAuto,
    /// Never instrument — the behaviour a -DFOCS_OBS_COMPILE_OUT build
    /// always has. Lets one binary measure the compiled-out baseline
    /// (bench_sim_throughput's overhead series).
    kForceOff,
    /// Always instrument, regardless of the global switches (so the bench
    /// can measure the enabled path without flipping process-global state).
    kForceOn,
};

struct ReplayOptions {
    /// Cycles per request block. Any value >= 1 produces identical results;
    /// the default keeps the request buffer L1/L2-resident.
    int block_cycles = 4096;
    /// Instrumentation of the block loop (never affects results).
    ReplayObsMode obs = ReplayObsMode::kAuto;
    /// Dispatch through scalar_replay_kernels() even where a SIMD table is
    /// available: the oracle the scalar==SIMD tests diff against. Results
    /// are byte-identical either way.
    bool force_scalar = false;
    /// Optional cooperative cancellation, polled once per block (never per
    /// cycle — a dormant token costs one relaxed load per block_cycles): a
    /// fired token throws CancelledError at the next block boundary.
    const CancellationToken* cancel = nullptr;
};

class ReplayEvaluationEngine {
public:
    /// `trace` and `table` are borrowed read-only and must outlive the
    /// engine; `delays` (held by value — it shares the unit array) must
    /// view unit delays computed from `trace` with the design variant and
    /// voltage `table` was characterized for.
    ReplayEvaluationEngine(const sim::PipelineTrace& trace, timing::ScaledTraceDelays delays,
                           const dta::DelayTable& table, ReplayOptions options = {});

    /// Replays one bundled policy against one generator (nullptr = ideal):
    /// run_fused over a one-variant column. The spec's parameter (approx-lut
    /// scale, dual-cycle stretch) is threaded into the fill; a bare
    /// PolicyKind converts implicitly and gets the kind's default.
    DcaRunResult run(const PolicySpec& spec, clocking::ClockGenerator* generator = nullptr) const {
        return run_fused(spec, {generator}).front();
    }

    /// Scores one policy across all generator variants of a sweep column
    /// (nullptr = ideal) in a single pass over the trace. The requested-
    /// period array of a block depends only on the policy, never on the
    /// generator, so one block fill serves every variant; each variant then
    /// pays only its own block grant and integrate/safety reduction, in the
    /// live engine's per-cycle order, so its figures are those of its own
    /// live run.
    std::vector<DcaRunResult> run_fused(
        const PolicySpec& spec, const std::vector<clocking::ClockGenerator*>& generators) const;

    const sim::PipelineTrace& trace() const { return *trace_; }
    const timing::ScaledTraceDelays& delays() const { return delays_; }

    /// True when the fills dispatch through an ISA-specific kernel table
    /// (compiled in, supported by the CPU, not forced scalar).
    bool simd_active() const { return kernels_ != &scalar_replay_kernels(); }

private:
    /// Writes the requested period of cycles [begin, begin + count) into
    /// out[0..count).
    using BlockFill = std::function<void(std::size_t begin, std::size_t count, double* out)>;

    /// The devirtualized request fill of one bundled policy. `policy` is the
    /// live policy object make_policy builds for `spec`; it supplies the
    /// derived constants (ex-only floor, class periods, approx scale) so the
    /// fill computes the very doubles the live hook returns.
    BlockFill make_fill(const PolicySpec& spec, const ClockPolicy& policy) const;

    const sim::PipelineTrace* trace_;
    timing::ScaledTraceDelays delays_;
    const dta::DelayTable* table_;
    ReplayOptions options_;
    /// SIMD table when available and not forced scalar; the portable
    /// scalar table otherwise.
    const ReplayKernels* kernels_ = nullptr;
};

}  // namespace focs::core
