#include "runtime/sweep_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/replay_engine.hpp"
#include "obs/span_tracer.hpp"
#include "timing/delay_model.hpp"

namespace focs::runtime {

namespace {

/// One expanded grid cell awaiting execution.
struct SweepJob {
    std::string kernel;
    core::PolicySpec policy;
    const GeneratorSpec* generator = nullptr;
    timing::DesignConfig design;
};

/// The three shared artifacts one replay cell reads, as fetched from the
/// cache (the futures may still be pending).
struct CellArtifacts {
    std::shared_future<dta::DelayTable> table;
    std::shared_future<sim::PipelineTrace> trace;
    std::shared_future<std::shared_ptr<const timing::UnitTraceDelays>> unit;
};

/// One build-ahead task: the first cell of one kernel in expansion order.
/// The task runs that cell's prologue early and stores its artifact
/// futures; the cell's column waits on `ready` before it reads them.
struct BuildAhead {
    std::size_t cell = 0;
    /// Empty when the task settled the cell (drained or failed it).
    std::optional<CellArtifacts> artifacts;
    std::promise<void> published;
    std::future<void> ready = published.get_future();
};

/// Nearest-rank percentile of an already-sorted ascending sample vector.
double nearest_rank(const std::vector<double>& sorted, double percentile) {
    if (sorted.empty()) return 0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Grid coordinates of one cell, "kernel/policy/generator@<V>V" — the
/// fault-injection key of the eval.cell site and the identity stamped into
/// fail-fast errors and CLI failure summaries.
std::string cell_key(const SweepCell& cell) {
    char volts[32];
    std::snprintf(volts, sizeof volts, "%.6g", cell.voltage_v);
    return cell.kernel + "/" + cell.policy + "/" + cell.generator + "@" + volts + "V";
}

/// Classifies a thrown cell failure onto the cell: cancellation codes map
/// to CellStatus::kCancelled, everything else to kFailed (focs::Error
/// keeps its code; foreign exceptions read as plain evaluation failures).
void record_failure(SweepCell& cell, const std::exception& e) {
    ErrorCode code = ErrorCode::kEvaluation;
    if (const auto* error = dynamic_cast<const Error*>(&e);
        error != nullptr && error->code() != ErrorCode::kUnknown) {
        code = error->code();
    }
    cell.error = e.what();
    cell.error_code = code;
    cell.status = code == ErrorCode::kDeadline || code == ErrorCode::kCancelled
                      ? CellStatus::kCancelled
                      : CellStatus::kFailed;
}

}  // namespace

std::string eval_mode_name(EvalMode mode) {
    switch (mode) {
        case EvalMode::kReplay: return "replay";
        case EvalMode::kLive: return "live";
    }
    check(false, "unknown eval mode");
    return {};
}

EvalMode parse_eval_mode(const std::string& name) {
    if (name == "replay") return EvalMode::kReplay;
    if (name == "live") return EvalMode::kLive;
    throw Error("unknown evaluation mode '" + name + "' (replay|live)");
}

std::string cell_status_name(CellStatus status) {
    switch (status) {
        case CellStatus::kOk: return "ok";
        case CellStatus::kFailed: return "failed";
        case CellStatus::kCancelled: return "cancelled";
    }
    check(false, "unknown cell status");
    return {};
}

CellStatus parse_cell_status(const std::string& name) {
    if (name == "ok") return CellStatus::kOk;
    if (name == "failed") return CellStatus::kFailed;
    if (name == "cancelled") return CellStatus::kCancelled;
    throw Error("unknown cell status '" + name + "' (ok|failed|cancelled)");
}

std::string stable_text_hash(const std::string& text) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x00000100000001b3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "fnv1a:%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

SweepEngine::SweepEngine(int jobs, std::shared_ptr<ArtifactCache> cache, EvalMode mode)
    : jobs_(jobs), cache_(std::move(cache)), mode_(mode) {
    if (!cache_) cache_ = std::make_shared<ArtifactCache>();
}

dta::AnalyzerConfig SweepEngine::analyzer_config_for(const SweepSpec& spec) {
    dta::AnalyzerConfig config;
    if (spec.lut_guard_ps >= 0) config.lut_guard_ps = spec.lut_guard_ps;
    if (spec.min_occurrences >= 0) config.min_occurrences = spec.min_occurrences;
    return config;
}

SweepResult SweepEngine::run(const SweepSpec& raw_spec, const SweepRunOptions& options) const {
    const auto start = std::chrono::steady_clock::now();
    const SweepSpec spec = raw_spec.resolved();
    check(!spec.kernels.empty(), "sweep has no kernels");

    const dta::AnalyzerConfig analyzer_config = analyzer_config_for(spec);
    const std::uint64_t nominal_before = cache_->nominal_passes();
    const std::uint64_t views_before = cache_->scaled_views();
    const std::uint64_t hits_before = cache_->cache_hits();
    const std::uint64_t traces_before = cache_->traces_recorded();
    const std::uint64_t unit_passes_before = cache_->unit_delay_passes();
    const std::uint64_t unit_reuses_before = cache_->unit_delay_reuses();
    // Per-class cache outcomes: capture the embedded registry's totals now
    // and stamp the delta into the result's metrics block afterwards.
    const auto classes = {ArtifactClass::kProgram, ArtifactClass::kDelayTable,
                          ArtifactClass::kTrace, ArtifactClass::kUnitDelays};
    std::array<ArtifactClassCounters, 4> class_before;
    for (const ArtifactClass artifact_class : classes) {
        class_before[static_cast<std::size_t>(artifact_class)] =
            cache_->class_counters(artifact_class);
    }

    // Expand the grid in deterministic declaration order: voltage-major so
    // one operating point's cells are adjacent, then kernel, policy,
    // generator.
    std::vector<SweepJob> jobs_list;
    jobs_list.reserve(spec.cell_count());
    for (const double voltage : spec.voltages_v) {
        for (const auto& kernel : spec.kernels) {
            for (const auto policy : spec.policies) {
                for (const auto& generator : spec.generators) {
                    jobs_list.push_back(
                        SweepJob{kernel, policy, &generator, spec.design_for(voltage)});
                }
            }
        }
    }

    // Generator fusion: the expansion above is generator-innermost, so the
    // cells of one (voltage, kernel, policy) column sit at adjacent
    // indices. In replay mode the pool schedules whole columns and fuses
    // each column's variants into a single pass over the shared trace (one
    // request fill serving every generator — the request array depends only
    // on the policy); live mode evaluates per cell. Either way every cell's
    // result is byte-identical.
    const std::size_t group_size = spec.generators.size();
    const bool fuse_columns = mode_ == EvalMode::kReplay;
    const std::size_t unit_count =
        fuse_columns ? jobs_list.size() / group_size : jobs_list.size();

    // Jobs precedence: explicit engine argument (e.g. a --jobs flag) beats
    // the spec's `jobs =` line, which beats hardware concurrency. The pool
    // never exceeds the number of schedulable units (cells, or fused
    // columns).
    int worker_count = jobs_ > 0 ? jobs_ : spec.jobs;
    if (worker_count <= 0) worker_count = static_cast<int>(std::thread::hardware_concurrency());
    if (worker_count <= 0) worker_count = 1;
    worker_count = std::max(1, std::min<int>(worker_count, static_cast<int>(unit_count)));

    // Intra-flow pipeline parallelism for the characterization artifacts:
    // when the grid needs few distinct delay tables, most workers block on
    // the builders' shared_futures with nothing to steal — so hand the
    // idle parallelism to the batched characterization engine instead. One
    // operating point and 8 workers means the single characterization flow
    // runs its endpoint kernel on 8 threads; with as many distinct points
    // as workers, each flow stays serial and grid parallelism wins.
    std::set<std::string> operating_points;
    for (const SweepJob& job : jobs_list) {
        operating_points.insert(ArtifactCache::design_key(job.design, analyzer_config));
    }
    const int flow_threads = std::clamp(
        worker_count / std::max<int>(1, static_cast<int>(operating_points.size())), 1, 8);

    SweepResult result;
    result.cells.resize(jobs_list.size());
    result.jobs = worker_count;
    result.mode = eval_mode_name(mode_);
    result.spec_text = spec.serialize();
    result.spec_hash = stable_text_hash(result.spec_text);

    FOCS_OBS_SPAN(sweep_span, obs::global_tracer(), "sweep.run");
    sweep_span.arg("mode", result.mode)
        .arg("cells", static_cast<std::int64_t>(jobs_list.size()))
        .arg("jobs", static_cast<std::int64_t>(worker_count));

    std::atomic<std::size_t> cursor{0};
    // Set only in fail-fast mode: sibling workers observe it at their next
    // cell boundary and stop pulling jobs. Keep-going never sets it — a
    // failing cell must not starve its siblings (each failure stays on its
    // own cell).
    std::atomic<bool> abort_sweep{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    // Stores `cell`'s failure as the sweep's first error and aborts the
    // pool (fail-fast only). Returns true when the caller must stop
    // pulling work. Fail-fast names the failing cell: the whole point of
    // aborting early is telling the user where.
    const auto abort_on_failure = [&](const SweepCell& cell) {
        if (options.failure_mode != FailureMode::kFailFast) return false;
        {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) {
                first_error = std::make_exception_ptr(Error(
                    "sweep cell " + cell_key(cell) + " failed: " + cell.error, cell.error_code));
            }
        }
        abort_sweep.store(true, std::memory_order_relaxed);
        return true;
    };

    // Labels a cell ahead of evaluation (so failed and cancelled cells
    // still carry their grid coordinates) and stamps its queue wait: the
    // job was runnable at sweep start, this is how long it sat before a
    // worker reached it.
    const auto label_cell = [&](std::size_t index,
                                std::chrono::steady_clock::time_point dequeued) -> SweepCell& {
        const SweepJob& job = jobs_list[index];
        SweepCell& cell = result.cells[index];
        cell.kernel = job.kernel;
        cell.policy = job.policy.label();
        cell.generator = job.generator->label();
        cell.voltage_v = job.design.voltage_v;
        cell.queue_wait_ms = std::chrono::duration<double, std::milli>(dequeued - start).count();
        return cell;
    };

    // Cell-boundary cancellation check: once the token fires the remaining
    // queue drains as cancelled cells without paying for any further
    // evaluation. Returns true when the cell was drained.
    const auto drain_if_cancelled = [&](SweepCell& cell) {
        if (options.cancel == nullptr || !options.cancel->cancelled()) return false;
        cell.error_code = options.cancel->reason();
        cell.error = cell.error_code == ErrorCode::kDeadline
                         ? "deadline exceeded before evaluation"
                         : "cancelled before evaluation";
        cell.status = CellStatus::kCancelled;
        return true;
    };

    // Per-cell live evaluation. Returns false when the worker must stop
    // pulling work (fail-fast abort).
    const auto evaluate_one = [&](std::size_t index) {
        const SweepJob& job = jobs_list[index];
        const auto dequeued = std::chrono::steady_clock::now();
        SweepCell& cell = label_cell(index, dequeued);
        if (drain_if_cancelled(cell)) return true;
        try {
            FOCS_OBS_SPAN(cell_span, obs::global_tracer(), "sweep.cell");
            cell_span.arg("kernel", job.kernel)
                .arg("policy", cell.policy)
                .arg("generator", cell.generator)
                .arg("voltage_v", job.design.voltage_v)
                .arg("queue_wait_ms", cell.queue_wait_ms);
            // The token rides into the inject point so an injected
            // delay rule cannot stall a cell past its deadline.
            FOCS_FAULT_POINT_CANCEL("eval.cell", cell_key(cell), options.cancel);
            // Shared artifacts: built once, then served from the cache.
            auto table_future =
                cache_->delay_table(job.design, analyzer_config, flow_threads, options.cancel);
            auto program_future = cache_->program(job.kernel);
            const assembler::Program& program = program_future.get();
            const dta::DelayTable& table = table_future.get();

            // Private mutable state: engine, policy and generator are
            // constructed per job inside evaluate_cell / here.
            const double static_period_ps = timing::DelayCalculator(job.design).static_period_ps();
            const auto generator = job.generator->instantiate(static_period_ps);
            cell.result = core::evaluate_cell(
                job.design, table, program, job.policy,
                job.generator->kind == GeneratorSpec::Kind::kIdeal ? nullptr : generator.get());
            cell.wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - dequeued)
                               .count();
            cell_span.arg("wall_ms", cell.wall_ms);
        } catch (const std::exception& e) {
            record_failure(cell, e);
            cell.wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - dequeued)
                               .count();
            if (abort_on_failure(cell)) return false;
        }
        return true;
    };

    // Cell prologue of a replay cell, shared by build-ahead tasks and
    // columns: the eval.cell fault point (the token rides in so an injected
    // delay rule cannot stall a cell past its deadline), then one fetch per
    // artifact, in the order delay table, trace, unit delays. A fetch that
    // misses builds in place; one that finds a pending build returns its
    // future without waiting.
    const auto fetch_artifacts = [&](std::size_t index, [[maybe_unused]] const SweepCell& cell) {
        FOCS_FAULT_POINT_CANCEL("eval.cell", cell_key(cell), options.cancel);
        const SweepJob& job = jobs_list[index];
        return CellArtifacts{
            cache_->delay_table(job.design, analyzer_config, flow_threads, options.cancel),
            cache_->trace(job.kernel), cache_->unit_trace_delays(job.kernel, job.design)};
    };

    // Build-ahead schedule (replay only): one task per distinct kernel heads
    // the work list, so the workers elect the nominal characterization and
    // record every kernel's trace and unit delays side by side before any
    // column can wait on them. Each task runs the prologue of its kernel's
    // first cell (cancellation drain, fault point, the three fetches) and
    // publishes the futures; that cell's column waits on them, every other
    // cell fetches its own. The same cells make the same lookups as without
    // the schedule, so the per-class miss/served counts, failure isolation
    // and fault keys are unchanged. Columns keep expansion order.
    //
    // A slot pins its kernel's artifacts until that column runs, so the
    // schedule only runs where pinning cannot change what gets built: on a
    // cache without a byte budget (it keeps every artifact anyway) and with
    // more than one worker (one worker overlaps nothing). Under a budget,
    // K slots would hold K traces past it, and the LRU would evict
    // artifacts that sibling cells then rebuild.
    const bool build_first = fuse_columns && worker_count > 1 && cache_->byte_budget() == 0;
    constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    std::vector<BuildAhead> build_ahead;
    std::vector<std::size_t> slot_of_column(fuse_columns ? unit_count : 0, kNoSlot);
    if (build_first) {
        std::set<std::string> kernels_seen;
        for (std::size_t group = 0; group < slot_of_column.size(); ++group) {
            if (!kernels_seen.insert(jobs_list[group * group_size].kernel).second) continue;
            slot_of_column[group] = build_ahead.size();
            build_ahead.emplace_back().cell = group * group_size;
        }
    }

    // Runs one build-ahead task. The slot is published on every path, so
    // its column never waits on a task that gave up. Returns false on
    // fail-fast abort.
    const auto run_build_ahead = [&](BuildAhead& slot) {
        SweepCell& cell = label_cell(slot.cell, std::chrono::steady_clock::now());
        bool failed = false;
        if (!drain_if_cancelled(cell)) {
            try {
                slot.artifacts = fetch_artifacts(slot.cell, cell);
            } catch (const std::exception& e) {
                record_failure(cell, e);
                failed = true;
            }
        }
        slot.published.set_value();
        return !(failed && abort_on_failure(cell));
    };

    // Replay evaluation of one (voltage, kernel, policy) column. Record-
    // once / replay-many: the trace is one guest simulation per (kernel,
    // machine config) and the unit delay array one fused pass per (kernel,
    // variant) — voltage-free, so every operating point derives a
    // ScaledTraceDelays view (one scalar) from the same cache-hot array.
    // Every per-cell isolation point survives — each cell runs its own
    // cancellation drain, eval.cell fault point, AND artifact acquisition
    // (fetch + wait; a build-ahead cell fetched in its task), so a poisoned
    // cache entry fails only the cell that observed it and the next cell
    // re-elects a fresh builder, exactly as under per-cell scheduling. Only
    // the survivors join the single fused replay pass (one request fill
    // serving every generator variant). Returns false on fail-fast abort.
    const auto evaluate_column = [&](std::size_t group) {
        const std::size_t base = group * group_size;
        const std::size_t limit = std::min(jobs_list.size(), base + group_size);
        const auto dequeued = std::chrono::steady_clock::now();
        std::vector<std::size_t> live;
        live.reserve(limit - base);
        std::optional<CellArtifacts> artifacts;
        for (std::size_t index = base; index < limit; ++index) {
            SweepCell& cell = result.cells[index];
            std::optional<CellArtifacts> fetched;
            if (index == base && slot_of_column[group] != kNoSlot) {
                // Labelled, drained and fetched by its build-ahead task.
                BuildAhead& slot = build_ahead[slot_of_column[group]];
                slot.ready.wait();
                if (!slot.artifacts) continue;  // the task drained or failed the cell
                fetched = std::move(slot.artifacts);
            } else {
                label_cell(index, dequeued);
                if (drain_if_cancelled(cell)) continue;
            }
            try {
                if (!fetched) fetched = fetch_artifacts(index, cell);
                // Waiting per cell keeps a failed build on the cell that
                // observed it; on success the futures alias one artifact.
                fetched->table.get();
                fetched->trace.get();
                fetched->unit.get();
                artifacts = std::move(fetched);
                live.push_back(index);
            } catch (const std::exception& e) {
                record_failure(cell, e);
                if (abort_on_failure(cell)) return false;
            }
        }
        if (live.empty()) return true;
        try {
            const SweepJob& job = jobs_list[live.front()];
            FOCS_OBS_SPAN(column_span, obs::global_tracer(), "sweep.column");
            column_span.arg("kernel", job.kernel)
                .arg("policy", result.cells[live.front()].policy)
                .arg("voltage_v", job.design.voltage_v)
                .arg("variants", static_cast<std::int64_t>(live.size()));
            const sim::PipelineTrace& trace = artifacts->trace.get();
            const dta::DelayTable& table = artifacts->table.get();
            const timing::DelayCalculator calculator(job.design);
            const timing::ScaledTraceDelays delays =
                timing::scale_trace_delays(artifacts->unit.get(), calculator);

            // Per-variant generators (mutable; nullptr = ideal), in the
            // column's declaration order.
            std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
            std::vector<clocking::ClockGenerator*> variants;
            owned.reserve(live.size());
            variants.reserve(live.size());
            for (const std::size_t index : live) {
                const SweepJob& variant_job = jobs_list[index];
                owned.push_back(variant_job.generator->instantiate(delays.static_period_ps));
                variants.push_back(variant_job.generator->kind == GeneratorSpec::Kind::kIdeal
                                       ? nullptr
                                       : owned.back().get());
            }
            core::ReplayOptions replay_options;
            replay_options.cancel = options.cancel;
            const core::ReplayEvaluationEngine replay(trace, delays, table, replay_options);
            auto fused = replay.run_fused(job.policy, variants);

            // The fused pass is shared work: every participating cell gets
            // the column's wall time (run-dependent fields either way).
            const double wall = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - dequeued)
                                    .count();
            for (std::size_t k = 0; k < live.size(); ++k) {
                SweepCell& cell = result.cells[live[k]];
                cell.result = std::move(fused[k]);
                cell.wall_ms = wall;
            }
            column_span.arg("wall_ms", wall);
        } catch (const std::exception& e) {
            const double wall = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - dequeued)
                                    .count();
            for (const std::size_t index : live) {
                record_failure(result.cells[index], e);
                result.cells[index].wall_ms = wall;
            }
            if (abort_on_failure(result.cells[live.front()])) return false;
        }
        return true;
    };

    // Workers pull from one atomic cursor over the build-ahead tasks, then
    // the columns (or, live, the cells). A column is claimed only after
    // every task, so each slot it waits on is already owned by a worker.
    const std::size_t work_items = build_ahead.size() + unit_count;
    const auto worker = [&] {
        while (!abort_sweep.load(std::memory_order_relaxed)) {
            const std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
            if (index >= work_items) return;
            bool keep_going = true;
            if (index < build_ahead.size()) {
                keep_going = run_build_ahead(build_ahead[index]);
            } else if (fuse_columns) {
                keep_going = evaluate_column(index - build_ahead.size());
            } else {
                keep_going = evaluate_one(index);
            }
            if (!keep_going) return;
        }
    };

    if (worker_count <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(worker_count));
        for (int i = 0; i < worker_count; ++i) pool.emplace_back(worker);
        for (auto& thread : pool) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);

    // Aggregate over surviving cells only: a failed cell's zeroed result
    // must not drag the sweep's means toward 0.
    for (const auto& cell : result.cells) {
        switch (cell.status) {
            case CellStatus::kOk: ++result.cells_ok; break;
            case CellStatus::kFailed: ++result.cells_failed; break;
            case CellStatus::kCancelled: ++result.cells_cancelled; break;
        }
        if (!cell.ok()) continue;
        result.mean_eff_freq_mhz += cell.result.eff_freq_mhz;
        result.mean_speedup += cell.result.speedup_vs_static;
        result.total_violations += cell.result.timing_violations;
    }
    if (result.cells_ok > 0) {
        result.mean_eff_freq_mhz /= static_cast<double>(result.cells_ok);
        result.mean_speedup /= static_cast<double>(result.cells_ok);
    }
    result.nominal_passes = cache_->nominal_passes() - nominal_before;
    result.characterizations = result.nominal_passes;
    result.scaled_views = cache_->scaled_views() - views_before;
    result.cache_hits = cache_->cache_hits() - hits_before;
    result.guest_simulations = mode_ == EvalMode::kReplay
                                   ? cache_->traces_recorded() - traces_before
                                   : static_cast<std::uint64_t>(result.cells.size());
    result.unit_delay_passes = cache_->unit_delay_passes() - unit_passes_before;
    result.unit_delay_reuses = cache_->unit_delay_reuses() - unit_reuses_before;

    // Metrics block: per-class cache deltas over this sweep plus the exact
    // per-cell wall-time distribution.
    const auto class_delta = [&](ArtifactClass artifact_class) {
        const ArtifactClassCounters now = cache_->class_counters(artifact_class);
        const ArtifactClassCounters& before =
            class_before[static_cast<std::size_t>(artifact_class)];
        return ArtifactClassCounters{now.miss - before.miss, now.hit - before.hit,
                                     now.wait - before.wait};
    };
    result.metrics.program = class_delta(ArtifactClass::kProgram);
    result.metrics.delay_table = class_delta(ArtifactClass::kDelayTable);
    result.metrics.trace = class_delta(ArtifactClass::kTrace);
    result.metrics.unit_delays = class_delta(ArtifactClass::kUnitDelays);
    std::vector<double> walls;
    walls.reserve(result.cells.size());
    for (const auto& cell : result.cells) walls.push_back(cell.wall_ms);
    std::sort(walls.begin(), walls.end());
    result.metrics.cell_wall_ms_p50 = nearest_rank(walls, 50);
    result.metrics.cell_wall_ms_p95 = nearest_rank(walls, 95);
    result.metrics.cell_wall_ms_max = walls.empty() ? 0 : walls.back();
    result.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                               start)
                         .count();
    return result;
}

}  // namespace focs::runtime
