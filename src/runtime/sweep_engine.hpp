// Thread-pooled batch evaluation engine.
//
// Expands a SweepSpec into one job per (voltage, kernel, policy, generator)
// grid cell and executes the jobs on a pool of worker threads. Workers pull
// work from a shared atomic cursor (whoever is free takes the next item),
// instantiate all mutable simulator state privately (policy, clock
// generator — mutable, so nothing is shared except read-only artifacts),
// and obtain shared artifacts from an ArtifactCache, where assembled
// programs, the characterization DelayTable, recorded traces and their
// voltage-free unit delay arrays are computed exactly once behind
// shared_futures. Results land in a pre-sized vector slot per cell, so
// aggregation order is the spec's declaration order and a --jobs 8 run is
// byte-identical to --jobs 1.
//
// In replay mode with more than one worker and a cache without a byte
// budget, the work list is scheduled build-first: one build-ahead task per
// distinct kernel heads it, then the columns in expansion order. A task
// runs the prologue of its kernel's first cell (cancellation drain,
// eval.cell fault point, the delay-table, trace and unit-delay lookups;
// the first task elects the nominal characterization) and publishes the
// futures to that cell's column. So while one worker characterizes, the
// others record traces and unit delays instead of waiting behind the same
// kernel's builds. Every cell still makes its own lookups, so per-class
// miss/served counts, failure isolation and fault keys do not depend on
// the schedule. A budgeted cache (the daemon's) keeps the plain column
// order: the published futures would pin every kernel's trace at once,
// past the budget. When the grid needs fewer distinct delay tables than
// there are workers, the would-be-idle parallelism is handed to the
// batched characterization engine as intra-flow worker threads.
//
// Two execution modes produce byte-identical cells:
//  - kReplay (default): record-once / replay-many. Each (kernel, machine
//    config) is simulated exactly once into a cached PipelineTrace and its
//    voltage-free unit delay array is computed in one pass; every
//    policy x generator x voltage cell over that kernel is then scored by
//    the batched SoA ReplayEvaluationEngine against a ScaledTraceDelays
//    view (the shared unit array plus the point's delay scale). A P-policy
//    x G-generator x V-voltage column costs one guest simulation and one
//    delay-model pass instead of P*G (and P*G*V delay passes).
//  - kLive: the reference path; every cell steps the full delay-annotated
//    cycle-accurate pipeline (DcaEngine::run).
//
// Failures are isolated per cell: by default (FailureMode::kKeepGoing) a
// throwing cell records its status/error code and every other cell keeps
// running, with aggregates computed over the survivors; kFailFast aborts
// the sweep and rethrows the first failure wrapped with the failing cell's
// grid coordinates. A CancellationToken (deadline or caller-driven) drains
// the remaining queue as `cancelled` cells and returns partial results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/flows.hpp"
#include "runtime/artifact_cache.hpp"
#include "runtime/sweep_spec.hpp"

namespace focs::runtime {

/// How the engine evaluates grid cells. Both modes produce byte-identical
/// results; kReplay simulates each guest exactly once.
enum class EvalMode { kReplay, kLive };

/// Stable mode name ("replay"|"live"), inverse of parse_eval_mode.
std::string eval_mode_name(EvalMode mode);
EvalMode parse_eval_mode(const std::string& name);

/// What the engine does when a cell's evaluation throws.
enum class FailureMode {
    /// Default: record the failure on the cell (status, error code, what),
    /// keep every other cell running, and report partial results. Failed
    /// cells are excluded from the sweep's aggregate figures.
    kKeepGoing,
    /// Abort the sweep on the first failing cell: sibling workers stop at
    /// their next cell boundary and run() rethrows the failure, wrapped
    /// with the failing cell's grid coordinates.
    kFailFast,
};

/// Outcome of one grid cell.
enum class CellStatus {
    kOk,
    kFailed,     ///< evaluation or artifact build threw
    kCancelled,  ///< deadline expired / caller cancelled before completion
};

/// Stable status name ("ok"|"failed"|"cancelled"), inverse of
/// parse_cell_status.
std::string cell_status_name(CellStatus status);
CellStatus parse_cell_status(const std::string& name);

/// One evaluated grid cell, labelled by its axis coordinates.
struct SweepCell {
    std::string kernel;
    std::string policy;     ///< PolicySpec label (short name, or name:param)
    std::string generator;  ///< GeneratorSpec label
    double voltage_v = 0;
    /// Per-cell isolation: failures land here instead of tearing down the
    /// sweep. `result` is meaningful only when ok(); `error_code`/`error`
    /// only when not.
    CellStatus status = CellStatus::kOk;
    ErrorCode error_code = ErrorCode::kUnknown;
    std::string error;
    core::DcaRunResult result;
    /// Wall time of this cell's evaluation on its worker (artifact waits
    /// included). Run-dependent: serialized only under include_timing.
    double wall_ms = 0;
    /// Time the expanded job sat in the queue before a worker picked it
    /// up (dequeue time minus sweep start). Run-dependent.
    double queue_wait_ms = 0;

    bool ok() const { return status == CellStatus::kOk; }
};

/// Per-run execution knobs of SweepEngine::run (the engine itself stays
/// reusable across runs with different failure handling).
struct SweepRunOptions {
    FailureMode failure_mode = FailureMode::kKeepGoing;
    /// Optional cooperative cancellation (deadline- or caller-driven),
    /// polled at cell boundaries and threaded into artifact builds and the
    /// replay block loop. Cells not finished when the token fires are
    /// reported with CellStatus::kCancelled; run() still returns normally
    /// with the partial results.
    const CancellationToken* cancel = nullptr;
};

/// Run-dependent observability block stamped into the focs-sweep-v6 timing
/// header: per-artifact-class cache outcomes (deltas of the cache's
/// embedded registry over this sweep) and the per-cell wall-time
/// distribution. Misses are deterministic (exactly-once builds); the
/// hit/wait split depends on thread scheduling.
struct SweepMetrics {
    ArtifactClassCounters program;
    ArtifactClassCounters delay_table;
    ArtifactClassCounters trace;
    ArtifactClassCounters unit_delays;

    /// Nearest-rank percentiles over the cells' wall_ms (exact, computed
    /// from the per-cell samples, not from histogram buckets).
    double cell_wall_ms_p50 = 0;
    double cell_wall_ms_p95 = 0;
    double cell_wall_ms_max = 0;
};

struct SweepResult {
    std::vector<SweepCell> cells;  ///< in spec declaration order
    /// Per-status cell counts (ok + failed + cancelled == cells.size()).
    /// Aggregate figures below cover the ok cells only.
    std::uint64_t cells_ok = 0;
    std::uint64_t cells_failed = 0;
    std::uint64_t cells_cancelled = 0;
    int jobs = 0;                  ///< worker threads actually used
    std::string mode;              ///< eval_mode_name of the executing engine
    double wall_ms = 0;
    /// Gate-level characterization flows this sweep executed (NOT derived
    /// scaled views): exactly 1 on a cold cache regardless of the voltage-
    /// axis width, 0 when warm or pre-seeded. `nominal_passes` carries the
    /// same count under its cache-counter name; the v6 header stamps both.
    std::uint64_t characterizations = 0;
    std::uint64_t nominal_passes = 0;
    /// Per-voltage delay tables derived as DelayTable::scaled views of the
    /// shared nominal entry (cold cache: one per operating point).
    std::uint64_t scaled_views = 0;
    std::uint64_t cache_hits = 0;
    /// Guest simulations this sweep paid for its cells: traces recorded in
    /// replay mode (exactly one per (kernel, machine config) on a cold
    /// cache), one per cell in live mode. Characterization guest runs are
    /// tracked separately via `characterizations`.
    std::uint64_t guest_simulations = 0;
    /// Fused voltage-free delay-model passes this sweep executed: exactly
    /// one per (kernel, design variant) on a cold cache in replay mode,
    /// independent of the voltage-axis width. 0 in live mode.
    std::uint64_t unit_delay_passes = 0;
    /// Replay cells served a ScaledTraceDelays view from an already-present
    /// unit array (the per-voltage/per-cell reuse count of the shared
    /// ground truth).
    std::uint64_t unit_delay_reuses = 0;
    /// Resolved spec the cells were produced from, and a stable hash of it,
    /// stamped into JSON artifacts so cached results.json files stay
    /// traceable to their originating grid.
    std::string spec_text;
    std::string spec_hash;
    /// Cache outcome deltas and wall-time distribution for this run.
    SweepMetrics metrics;

    /// Mean over the ok cells (matches SuiteResult semantics when the sweep
    /// is a single-policy suite and everything succeeded).
    double mean_eff_freq_mhz = 0;
    double mean_speedup = 0;
    std::uint64_t total_violations = 0;

    bool complete() const { return cells_failed == 0 && cells_cancelled == 0; }
};

class SweepEngine {
public:
    /// `jobs` > 0 forces the pool size; 0 defers to the spec's `jobs` knob
    /// and then to std::thread::hardware_concurrency(). `cache` may be
    /// shared across sweeps (a serving scenario: repeated requests reuse
    /// programs, tables and traces); by default each engine owns a fresh
    /// one. `mode` selects replay (default) or live evaluation — the spec
    /// declares the grid only, so the same spec can be executed either way.
    explicit SweepEngine(int jobs = 0, std::shared_ptr<ArtifactCache> cache = nullptr,
                         EvalMode mode = EvalMode::kReplay);

    /// Executes the sweep. Deterministic: the returned cell order and every
    /// per-cell result are independent of the job count, of thread
    /// scheduling, and of the evaluation mode — including each failed
    /// cell's status and error code under FailureMode::kKeepGoing (only
    /// *which* cells a fired cancellation token reaches is run-dependent).
    SweepResult run(const SweepSpec& spec, const SweepRunOptions& options = {}) const;

    int jobs() const { return jobs_; }
    EvalMode mode() const { return mode_; }
    const std::shared_ptr<ArtifactCache>& cache() const { return cache_; }

    /// Analyzer config a spec's knobs resolve to (shared with the CLI so a
    /// pre-seeded --lut table lands under the same cache key).
    static dta::AnalyzerConfig analyzer_config_for(const SweepSpec& spec);

private:
    int jobs_;
    std::shared_ptr<ArtifactCache> cache_;
    EvalMode mode_;
};

/// FNV-1a 64-bit hash (offset basis 0xcbf29ce484222325, prime 0x100000001b3)
/// of `text`, formatted "fnv1a:%016llx" (16 lowercase hex digits). Sweep
/// results stamp stable_text_hash(spec.resolved().serialize()) — the hash
/// is over the *canonical* spec text, so any textual variant that resolves
/// to the same grid hashes identically (dependency-free, stable across
/// platforms).
std::string stable_text_hash(const std::string& text);

}  // namespace focs::runtime
