#include "core/replay_engine.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace focs::core {

using sim::Stage;

ReplayEvaluationEngine::ReplayEvaluationEngine(const sim::PipelineTrace& trace,
                                               timing::ScaledTraceDelays delays,
                                               const dta::DelayTable& table,
                                               ReplayOptions options)
    : trace_(&trace), delays_(std::move(delays)), table_(&table), options_(options) {
    check(options_.block_cycles >= 1, "replay block size must be >= 1");
    check(delays_.unit != nullptr, "replay engine needs a unit trace-delay artifact");
    check(delays_.cycles() == trace.cycles(),
          "trace delays were computed from a different trace (cycle count mismatch)");
    const ReplayKernels* simd = options_.force_scalar ? nullptr : simd_replay_kernels();
    kernels_ = simd != nullptr ? simd : &scalar_replay_kernels();
}

ReplayEvaluationEngine::BlockFill ReplayEvaluationEngine::make_fill(
    const PolicySpec& spec, const ClockPolicy& policy) const {
    const ReplayKernels& kernels = *kernels_;
    const auto& keys = trace_->stage_keys;
    const dta::DelayTable& table = *table_;
    // Paper eq. 2: the per-cycle max over every stage's fallback-resolved
    // LUT row, gathered by that stage's occupancy keys.
    std::array<GatherStage, sim::kStageCount> lut{};
    for (std::size_t s = 0; s < lut.size(); ++s) {
        lut[s] = {keys[s].data(), table.effective_row(static_cast<Stage>(s))};
    }

    switch (spec.kind) {
        case PolicyKind::kStatic:
            return [period = delays_.static_period_ps](std::size_t, std::size_t count,
                                                       double* out) {
                std::fill(out, out + count, period);
            };
        case PolicyKind::kGenie:
            // The oracle requests exactly each cycle's requirement.
            return [&kernels, unit = delays_.unit->unit_required_period_ps.data(),
                    scale = delays_.delay_scale](std::size_t begin, std::size_t count,
                                                 double* out) {
                kernels.scale(unit + begin, scale, count, out);
            };
        case PolicyKind::kInstructionLut:
            return [&kernels, lut](std::size_t begin, std::size_t count, double* out) {
                kernels.gather_max(lut.data(), sim::kStageCount, begin, count, out);
            };
        case PolicyKind::kApproxLut:
            // The LUT max, then one compression multiply per cycle — the
            // live cycle_period_ps(record) * scale in the same fl order.
            return [&kernels, lut,
                    factor = dynamic_cast<const ApproximateLutPolicy&>(policy).scale()](
                       std::size_t begin, std::size_t count, double* out) {
                kernels.gather_max(lut.data(), sim::kStageCount, begin, count, out);
                kernels.scale(out, factor, count, out);
            };
        case PolicyKind::kExOnly: {
            // The floor folded into the EX row: a one-stage gather over
            // max(entry, floor), the doubles the live policy returns.
            const double floor = dynamic_cast<const ExOnlyPolicy&>(policy).floor_ps();
            const GatherStage ex = lut[static_cast<std::size_t>(Stage::kEx)];
            std::array<double, dta::kKeyCount> row{};
            for (std::size_t key = 0; key < row.size(); ++key) {
                row[key] = std::max(ex.values[key], floor);
            }
            return [&kernels, ex_keys = ex.keys, row](std::size_t begin, std::size_t count,
                                                      double* out) {
                const GatherStage stage{ex_keys, row.data()};
                kernels.gather_max(&stage, 1, begin, count, out);
            };
        }
        case PolicyKind::kTwoClass:
        case PolicyKind::kDualCycle: {
            double fast_ps = 0;
            double slow_ps = 0;
            if (spec.kind == PolicyKind::kTwoClass) {
                fast_ps = dynamic_cast<const TwoClassPolicy&>(policy).fast_period_ps();
                slow_ps = table.static_period_ps();
            } else {
                const auto& dual = dynamic_cast<const DualCyclePolicy&>(policy);
                fast_ps = dual.fast_period_ps();
                slow_ps = dual.stretch() * fast_ps;
            }
            // A stage forces the slow period when its instruction is in the
            // critical class or its entry is uncharacterized. The gather
            // over 0/1 indicator rows marks each cycle where any stage
            // does, and one select pass picks the period — the live
            // policies' branch, exact for any fast/slow pair without
            // assuming which of the two is longer.
            std::array<std::array<double, dta::kKeyCount>, sim::kStageCount> slow_rows{};
            for (std::size_t s = 0; s < slow_rows.size(); ++s) {
                for (std::size_t key = 0; key < slow_rows[s].size(); ++key) {
                    const auto occ = static_cast<dta::OccKey>(key);
                    const bool slow = TwoClassPolicy::is_slow_key(occ) ||
                                      !table.characterized(occ, static_cast<Stage>(s));
                    slow_rows[s][key] = slow ? 1.0 : 0.0;
                }
            }
            return [&kernels, &keys, slow_rows, fast_ps, slow_ps](
                       std::size_t begin, std::size_t count, double* out) {
                std::array<GatherStage, sim::kStageCount> stages{};
                for (std::size_t s = 0; s < stages.size(); ++s) {
                    stages[s] = {keys[s].data(), slow_rows[s].data()};
                }
                kernels.gather_max(stages.data(), sim::kStageCount, begin, count, out);
                for (std::size_t i = 0; i < count; ++i) {
                    out[i] = out[i] != 0.0 ? slow_ps : fast_ps;
                }
            };
        }
    }
    check(false, "unknown policy kind");
    return {};
}

std::vector<DcaRunResult> ReplayEvaluationEngine::run_fused(
    const PolicySpec& spec, const std::vector<clocking::ClockGenerator*>& generators) const {
    if (generators.empty()) return {};
    // The policy object supplies the exact name string and derived
    // constants of the live path; its virtual request hook is never called.
    const auto policy = make_policy(spec, *table_, delays_.static_period_ps);
    const BlockFill fill = make_fill(spec, *policy);

    struct Variant {
        clocking::ClockGenerator* generator;
        double total_time_ps = 0;
        std::uint64_t violations = 0;
        double worst_violation_ps = 0;
    };
    std::vector<Variant> variants;
    variants.reserve(generators.size());
    for (clocking::ClockGenerator* generator : generators) {
        if (generator != nullptr) generator->reset();
        variants.push_back(Variant{generator});
    }

    const double* unit = delays_.unit->unit_required_period_ps.data();
    const double scale = delays_.delay_scale;
    const std::size_t cycles = trace_->records.size();
    const std::size_t block = static_cast<std::size_t>(options_.block_cycles);
    // One block of requests and one of grants, shared by every stateful
    // variant; clamped to the trace length and never empty, so both stay
    // dereferenceable on empty traces. They share one allocation: a second
    // vector per call raised the peak RSS of 4-job sweeps by ~6 MB.
    const std::size_t length = std::min(block, std::max<std::size_t>(cycles, 1));
    std::vector<double> buffers(2 * length);
    double* const requested = buffers.data();
    double* const granted = requested + length;

#ifndef FOCS_OBS_COMPILE_OUT
    bool instrumented = false;
    switch (options_.obs) {
        case ReplayObsMode::kAuto:
            instrumented = obs::global_metrics().enabled() || obs::global_tracer().enabled();
            break;
        case ReplayObsMode::kForceOff: instrumented = false; break;
        case ReplayObsMode::kForceOn: instrumented = true; break;
    }
    obs::Span span;
    if (instrumented) {
        span = obs::global_tracer().span("replay.run_fused");
        span.arg("policy", policy->name())
            .arg("variants", static_cast<std::int64_t>(variants.size()))
            .arg("cycles", static_cast<std::int64_t>(cycles));
    }
#endif

    [[maybe_unused]] std::uint64_t blocks = 0;
    for (std::size_t begin = 0; begin < cycles; begin += block) {
        // Block-boundary cancellation check; the cycle loops stay
        // token-free (see the cost note on ReplayOptions::cancel).
        if (options_.cancel != nullptr) options_.cancel->throw_if_cancelled();
        const std::size_t count = std::min(block, cycles - begin);
        fill(begin, count, requested);
        ++blocks;
        for (Variant& variant : variants) {
            // An ideal variant (nullptr) is granted its requests; a
            // stateful generator grants the block in one call, its state
            // carried to the next block.
            const double* block_granted = requested;
            if (variant.generator != nullptr) {
                variant.generator->grant_block(requested, count, granted);
                block_granted = granted;
            }
            kernels_->reduce_ideal(block_granted, unit, scale, kViolationTolerancePs, begin, count,
                                   &variant.total_time_ps, &variant.violations,
                                   &variant.worst_violation_ps);
        }
    }

#ifndef FOCS_OBS_COMPILE_OUT
    if (instrumented) {
        obs::MetricsRegistry& metrics = obs::global_metrics();
        static const struct Ids {
            obs::MetricsRegistry::Id runs, variants, blocks, cycles, violations, avg_period;
            explicit Ids(obs::MetricsRegistry& m)
                : runs(m.counter("replay.runs")),
                  variants(m.counter("replay.variants")),
                  blocks(m.counter("replay.blocks")),
                  cycles(m.counter("replay.cycles")),
                  violations(m.counter("replay.violations")),
                  avg_period(m.histogram("replay.avg_period_ps",
                                         {100, 150, 200, 300, 400, 500, 700, 1000, 1500, 2000,
                                          3000, 5000})) {}
        } ids(metrics);
        std::uint64_t violations = 0;
        for (const Variant& variant : variants) {
            violations += variant.violations;
            if (cycles > 0) {
                metrics.observe(ids.avg_period,
                                variant.total_time_ps / static_cast<double>(cycles));
            }
        }
        metrics.add(ids.runs);
        metrics.add(ids.variants, variants.size());
        metrics.add(ids.blocks, blocks);
        metrics.add(ids.cycles, cycles * variants.size());
        metrics.add(ids.violations, violations);
        span.arg("blocks", static_cast<std::int64_t>(blocks))
            .arg("violations", static_cast<std::int64_t>(violations));
    }
#endif

    std::vector<DcaRunResult> results;
    results.reserve(variants.size());
    for (const Variant& variant : variants) {
        DcaRunResult result = finish_run(
            policy->name(),
            variant.generator != nullptr ? variant.generator->name()
                                         : clocking::IdealClockGenerator().name(),
            cycles, variant.total_time_ps, delays_.static_period_ps, variant.violations,
            variant.worst_violation_ps);
        result.guest = trace_->guest;
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace focs::core
