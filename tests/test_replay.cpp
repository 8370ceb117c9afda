// Record/replay correctness: a replayed evaluation must be byte-identical
// to a live DcaEngine::run of the same cell — for every bundled PolicyKind,
// every clock-generator family, and at every replay block size (including
// odd boundaries). The voltage-invariance contract is tested explicitly:
// one unit delay pass per trace must serve every operating point
// bit-identically to per-record DelayCalculator::evaluate.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "asm/assembler.hpp"
#include "clock/clock_generator.hpp"
#include "common/error.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "core/policies.hpp"
#include "core/replay_engine.hpp"
#include "core/replay_kernels.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/cell_library.hpp"
#include "timing/trace_delays.hpp"
#include "workloads/kernel.hpp"
#include "test_util.hpp"

namespace focs::core {
namespace {

constexpr PolicyKind kAllKinds[] = {PolicyKind::kStatic,    PolicyKind::kGenie,
                                    PolicyKind::kInstructionLut, PolicyKind::kExOnly,
                                    PolicyKind::kTwoClass,  PolicyKind::kApproxLut,
                                    PolicyKind::kDualCycle};

/// Shared fixture artifacts: one characterized table and one recorded trace
/// (crc32 exercises redirects, loads and held cycles), built once. The
/// required-period ground truth is the voltage-free unit array plus the
/// design point's ScaledTraceDelays view.
struct ReplayFixture {
    timing::DesignConfig design;
    dta::DelayTable table;
    assembler::Program program;
    sim::PipelineTrace trace;
    std::shared_ptr<const timing::UnitTraceDelays> unit;
    timing::ScaledTraceDelays delays;

    ReplayFixture()
        : table(CharacterizationFlow(design)
                    .run(workloads::assemble_programs(workloads::characterization_suite()))
                    .table),
          program(assembler::assemble(workloads::find_kernel("crc32").source)),
          trace(sim::record_trace(program)),
          unit(std::make_shared<const timing::UnitTraceDelays>(
              timing::compute_unit_trace_delays(timing::DelayCalculator(design),
                                                trace.records))),
          delays(timing::scale_trace_delays(unit, timing::DelayCalculator(design))) {}
};

const ReplayFixture& fixture() {
    static const ReplayFixture f;
    return f;
}

/// Exact (bitwise) equality of every DcaRunResult field — the replay
/// contract is byte-identity, so no tolerances anywhere.
void expect_identical(const DcaRunResult& live, const DcaRunResult& replayed) {
    EXPECT_EQ(live.policy, replayed.policy);
    EXPECT_EQ(live.clock_generator, replayed.clock_generator);
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.total_time_ps, replayed.total_time_ps);
    EXPECT_EQ(live.avg_period_ps, replayed.avg_period_ps);
    EXPECT_EQ(live.eff_freq_mhz, replayed.eff_freq_mhz);
    EXPECT_EQ(live.static_period_ps, replayed.static_period_ps);
    EXPECT_EQ(live.speedup_vs_static, replayed.speedup_vs_static);
    EXPECT_EQ(live.timing_violations, replayed.timing_violations);
    EXPECT_EQ(live.worst_violation_ps, replayed.worst_violation_ps);
    EXPECT_EQ(live.guest.exit_code, replayed.guest.exit_code);
    EXPECT_EQ(live.guest.cycles, replayed.guest.cycles);
    EXPECT_EQ(live.guest.instructions, replayed.guest.instructions);
    EXPECT_EQ(live.guest.reports, replayed.guest.reports);
}

/// Generators 0-2 are the families of the realistic grid (ideal, taps:8 and
/// a PLL bank with a dwell); 3-8 are the edges of the block grants: one,
/// two and the most taps a spec allows, a one-source bank, a bank with no
/// dwell and a bank with duplicate periods.
constexpr int kGeneratorCount = 9;

std::unique_ptr<clocking::ClockGenerator> make_generator(int which, double static_period_ps) {
    const auto taps = [&](int count) {
        return std::make_unique<clocking::QuantizedClockGenerator>(
            clocking::QuantizedClockGenerator::for_static_period(static_period_ps, count));
    };
    const auto pll = [&](std::vector<double> fractions, int dwell) {
        for (double& fraction : fractions) fraction *= static_period_ps;
        return std::make_unique<clocking::PllBankClockGenerator>(std::move(fractions), dwell);
    };
    switch (which) {
        case 1: return taps(8);
        case 2: return pll({0.6, 0.8, 1.0}, 4);
        case 3: return taps(1);
        case 4: return taps(2);
        case 5: return taps(4096);
        case 6: return pll({0.75}, 4);
        case 7: return pll({0.6, 0.8, 1.0}, 0);
        case 8: return pll({0.6, 0.8, 0.8, 1.0}, 2);
        default: return nullptr;  // ideal
    }
}

TEST(Replay, MatchesLiveForEveryPolicyAndGenerator) {
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    for (const PolicyKind kind : kAllKinds) {
        for (int which = 0; which < kGeneratorCount; ++which) {
            SCOPED_TRACE(policy_kind_name(kind) + "/generator" + std::to_string(which));
            auto live_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult live =
                evaluate_cell(f.design, f.table, f.program, kind, live_generator.get());
            auto replay_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult replayed = engine.run(kind, replay_generator.get());
            expect_identical(live, replayed);
        }
    }
}

TEST(Replay, ApproxLutKindProvokesViolationsLikeLive) {
    // The promoted approx-lut kind deliberately under-clocks; its replayed
    // violation accounting must match the live run *and* be non-trivial, or
    // the parity above proves less than it claims.
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    const DcaRunResult replayed = engine.run(PolicyKind::kApproxLut);
    EXPECT_GT(replayed.timing_violations, 0u);
    EXPECT_EQ(replayed.policy, "approx-lut/0.90");
}

TEST(Replay, BlockBoundariesDoNotChangeResults) {
    const ReplayFixture& f = fixture();
    // Odd block sizes, a single-cycle block, and one block spanning the
    // whole trace must all reproduce the default's bytes for every
    // generator family (the stateful PLL generator is the sharpest
    // detector of a boundary bug).
    const ReplayEvaluationEngine reference(f.trace, f.delays, f.table);
    for (const int block : {1, 3, 7, 1023, 1 << 20}) {
        ReplayOptions options;
        options.block_cycles = block;
        const ReplayEvaluationEngine engine(f.trace, f.delays, f.table, options);
        for (const PolicyKind kind : kAllKinds) {
            for (int which = 0; which < kGeneratorCount; ++which) {
                SCOPED_TRACE("block=" + std::to_string(block) + " " + policy_kind_name(kind) +
                             "/generator" + std::to_string(which));
                auto generator_a = make_generator(which, f.delays.static_period_ps);
                auto generator_b = make_generator(which, f.delays.static_period_ps);
                expect_identical(reference.run(kind, generator_a.get()),
                                 engine.run(kind, generator_b.get()));
            }
        }
    }
}

TEST(Replay, ParameterizedSpecsDispatchToKernelsAndMatchLive) {
    const ReplayFixture& f = fixture();
    // Parameterized grid points must hit the same devirtualized kernel
    // paths as their default-parameter kinds: the replayed result, the
    // scalar-forced replayed result, and the live run are all byte-
    // identical, for every generator family.
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    ReplayOptions scalar_options;
    scalar_options.force_scalar = true;
    const ReplayEvaluationEngine scalar(f.trace, f.delays, f.table, scalar_options);
    for (const char* text : {"approx-lut:0.8", "approx-lut:0.95", "dual-cycle:3",
                             "dual-cycle:1", "dual-cycle:1.5"}) {
        const PolicySpec spec = PolicySpec::parse(text);
        for (int which = 0; which < kGeneratorCount; ++which) {
            SCOPED_TRACE(std::string(text) + "/generator" + std::to_string(which));
            auto live_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult live =
                evaluate_cell(f.design, f.table, f.program, spec, live_generator.get());
            auto replay_generator = make_generator(which, f.delays.static_period_ps);
            expect_identical(live, engine.run(spec, replay_generator.get()));
            auto scalar_generator = make_generator(which, f.delays.static_period_ps);
            expect_identical(live, scalar.run(spec, scalar_generator.get()));
        }
    }
    // The parameter reaches the policy: a non-default scale shows up in the
    // reported name and changes the figures.
    const DcaRunResult tight = engine.run(PolicySpec::parse("approx-lut:0.8"));
    EXPECT_EQ(tight.policy, "approx-lut/0.80");
    EXPECT_GT(tight.timing_violations, engine.run(PolicyKind::kApproxLut).timing_violations);
    EXPECT_EQ(engine.run(PolicySpec::parse("dual-cycle:3")).policy, "dual-cycle/3.00");
    // The defaults keep their historical names (result bytes unchanged).
    EXPECT_EQ(engine.run(PolicySpec::parse("dual-cycle:2")).policy, "dual-cycle");
    EXPECT_EQ(engine.run(PolicySpec::parse("approx-lut:0.9")).policy, "approx-lut/0.90");
}

TEST(Replay, FusedRunIsByteIdenticalToPerVariantRuns) {
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    // One fused pass over {ideal, taps, pll} vs three independent runs:
    // byte-identical per variant, for every policy kind (the request fill
    // is generator-independent, so fusion must not perturb a single bit).
    const std::vector<PolicySpec> specs = {
        PolicyKind::kStatic,          PolicyKind::kGenie,
        PolicyKind::kInstructionLut,  PolicyKind::kExOnly,
        PolicyKind::kTwoClass,        PolicyKind::kApproxLut,
        PolicyKind::kDualCycle,       PolicySpec::parse("approx-lut:0.8"),
        PolicySpec::parse("dual-cycle:3")};
    for (const PolicySpec& spec : specs) {
        SCOPED_TRACE(spec.label());
        std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
        std::vector<clocking::ClockGenerator*> variants;
        for (int which = 0; which < kGeneratorCount; ++which) {
            owned.push_back(make_generator(which, f.delays.static_period_ps));
            variants.push_back(owned.back().get());  // nullptr for ideal
        }
        const auto fused = engine.run_fused(spec, variants);
        ASSERT_EQ(fused.size(), variants.size());
        for (int which = 0; which < kGeneratorCount; ++which) {
            SCOPED_TRACE("generator" + std::to_string(which));
            auto solo = make_generator(which, f.delays.static_period_ps);
            expect_identical(engine.run(spec, solo.get()), fused[static_cast<std::size_t>(which)]);
        }
    }
    // Degenerate shapes: a single-variant fuse is run(), an empty variant
    // list is a no-op.
    auto solo = make_generator(1, f.delays.static_period_ps);
    auto again = make_generator(1, f.delays.static_period_ps);
    const auto one = engine.run_fused(PolicyKind::kInstructionLut, {solo.get()});
    ASSERT_EQ(one.size(), 1u);
    expect_identical(engine.run(PolicyKind::kInstructionLut, again.get()), one[0]);
    EXPECT_TRUE(engine.run_fused(PolicyKind::kInstructionLut, {}).empty());
}

TEST(TraceRecorder, CapturesGuestMetadataAndKeys) {
    const ReplayFixture& f = fixture();
    sim::Machine machine;
    machine.load(f.program);
    const sim::RunResult direct = machine.run();
    EXPECT_EQ(f.trace.guest.exit_code, direct.exit_code);
    EXPECT_EQ(f.trace.guest.cycles, direct.cycles);
    EXPECT_EQ(f.trace.guest.instructions, direct.instructions);
    EXPECT_EQ(f.trace.guest.reports, direct.reports);
    EXPECT_EQ(f.trace.cycles(), direct.cycles);

    // The stage-major SoA rows are exactly attribution_keys of each record.
    ASSERT_EQ(f.trace.records.size(), f.trace.stage_keys[0].size());
    for (std::size_t c = 0; c < f.trace.records.size(); c += 97) {
        const auto keys = dta::attribution_keys(f.trace.records[c]);
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_EQ(f.trace.stage_keys[static_cast<std::size_t>(s)][c],
                      keys[static_cast<std::size_t>(s)])
                << "cycle " << c << " stage " << s;
        }
    }
}

TEST(TraceRecorder, ExpectedCyclesHintNeverChangesTheTrace) {
    // The hint only pre-sizes the arrays: a missing, exact, short or long
    // hint records the same run, and an exact one leaves no spare capacity.
    const ReplayFixture& f = fixture();
    const std::size_t cycles = f.trace.records.size();
    for (const std::size_t hint : {std::size_t{0}, cycles, cycles / 2, 2 * cycles}) {
        SCOPED_TRACE("hint=" + std::to_string(hint));
        const sim::PipelineTrace trace = sim::record_trace(f.program, {}, hint);
        EXPECT_EQ(test::trace_difference(trace, f.trace), "");
        if (hint == cycles) {
            EXPECT_EQ(trace.records.capacity(), cycles);
            for (const auto& row : trace.stage_keys) EXPECT_EQ(row.capacity(), cycles);
        }
    }
}

TEST(TraceDelays, UnitPassMatchesPerCycleUnitEvaluation) {
    // The unit pass must reproduce the per-cycle evaluate_unit() exactly,
    // on every cycle of the trace (the guard against a transposed
    // stage-major kernel that walks every record once per stage).
    const ReplayFixture& f = fixture();
    const timing::DelayCalculator calculator(f.design);
    ASSERT_EQ(f.unit->cycles(), f.trace.cycles());
    EXPECT_EQ(f.unit->unit_static_period_ps, calculator.unit_static_period_ps());
    std::vector<double> reference;
    reference.reserve(f.trace.records.size());
    for (const sim::CycleRecord& record : f.trace.records) {
        reference.push_back(calculator.evaluate_unit(record).required_period_ps);
    }
    // Vector equality is element-exact: one comparison instead of an
    // EXPECT per cycle.
    EXPECT_EQ(f.unit->unit_required_period_ps, reference);
}

TEST(TraceDelays, ScaledViewMatchesPerCycleEvaluation) {
    const ReplayFixture& f = fixture();
    const timing::DelayCalculator calculator(f.design);
    ASSERT_EQ(f.delays.cycles(), f.trace.cycles());
    EXPECT_EQ(f.delays.static_period_ps, calculator.static_period_ps());
    for (std::size_t c = 0; c < f.trace.records.size(); c += 131) {
        EXPECT_EQ(f.delays.required_period_ps(c),
                  calculator.evaluate(f.trace.records[c]).required_period_ps)
            << "cycle " << c;
    }
}

TEST(TraceDelays, OneUnitPassServesEveryVoltageBitIdentically) {
    // The voltage-invariance contract: for every benchmark kernel, the
    // single unit pass scaled to each point of a dense voltage grid must be
    // byte-identical to the live engine's per-record evaluation at that
    // point — every cycle, every voltage, no tolerances.
    // Each trace is truncated to a prefix so the dense grid stays fast; the
    // identity is per-cycle, so a prefix proves the same thing.
    constexpr double kVoltages[] = {0.50, 0.55, 0.60, 0.65, 0.70,
                                    0.75, 0.80, 0.85, 0.90, 0.62};
    constexpr std::size_t kMaxCycles = 3000;
    for (const auto& kernel : workloads::benchmark_suite()) {
        SCOPED_TRACE(kernel.name);
        const auto program = assembler::assemble(kernel.source);
        const sim::PipelineTrace trace = sim::record_trace(program);
        const std::vector<sim::CycleRecord> records(
            trace.records.begin(),
            trace.records.begin() +
                static_cast<std::ptrdiff_t>(std::min(kMaxCycles, trace.records.size())));
        timing::DesignConfig design;
        const auto unit = std::make_shared<const timing::UnitTraceDelays>(
            timing::compute_unit_trace_delays(timing::DelayCalculator(design), records));
        for (const double voltage : kVoltages) {
            SCOPED_TRACE(voltage);
            design.voltage_v = voltage;
            const timing::DelayCalculator calculator(design);
            const timing::ScaledTraceDelays scaled =
                timing::scale_trace_delays(unit, calculator);
            ASSERT_EQ(scaled.cycles(), records.size());
            EXPECT_EQ(scaled.static_period_ps, calculator.static_period_ps());
            std::vector<double> view;
            std::vector<double> reference;
            view.reserve(records.size());
            reference.reserve(records.size());
            for (std::size_t c = 0; c < records.size(); ++c) {
                view.push_back(scaled.required_period_ps(c));
                reference.push_back(calculator.evaluate(records[c]).required_period_ps);
            }
            // Vector equality is element-exact: one comparison per grid
            // point instead of a quadratic EXPECT storm.
            EXPECT_EQ(view, reference);
        }
    }
}

TEST(Replay, ScalarReferenceAndSimdKernelsAreByteIdentical) {
    // The contract of the vectorized kernels: the default engine (SIMD
    // kernel table when compiled + supported) must reproduce the
    // force_scalar engine (the portable scalar table, the oracle) byte for
    // byte — for all 7 policy kinds and every generator family, across
    // block sizes including single-cycle blocks and one block spanning the
    // whole trace, at two operating points (the second a non-nominal delay
    // scale). The stateful PLL generator is the sharpest detector of any
    // divergence in the grant/integrate order.
    const ReplayFixture& f = fixture();
    const timing::CellLibrary& library = timing::CellLibrary::fdsoi28();
    const double nominal_scale = library.delay_scale(timing::DesignConfig{}.voltage_v);
    for (const double voltage : {timing::DesignConfig{}.voltage_v, 0.60}) {
        SCOPED_TRACE(voltage);
        timing::DesignConfig design = f.design;
        design.voltage_v = voltage;
        const timing::DelayCalculator calculator(design);
        const timing::ScaledTraceDelays delays = timing::scale_trace_delays(f.unit, calculator);
        const dta::DelayTable table =
            f.table.scaled(library.delay_scale(voltage) / nominal_scale);
        for (const int block : {1, 3, 7, 1023, 1 << 20}) {
            ReplayOptions reference_options;
            reference_options.block_cycles = block;
            reference_options.force_scalar = true;
            const ReplayEvaluationEngine reference(f.trace, delays, table, reference_options);
            ReplayOptions kernel_options;
            kernel_options.block_cycles = block;
            const ReplayEvaluationEngine kernels(f.trace, delays, table, kernel_options);
            // The comparison must actually cover the SIMD table wherever
            // one exists for this build/CPU.
            EXPECT_EQ(kernels.simd_active(), simd_replay_kernels() != nullptr);
            EXPECT_FALSE(reference.simd_active());
            for (const PolicyKind kind : kAllKinds) {
                for (int which = 0; which < kGeneratorCount; ++which) {
                    SCOPED_TRACE("block=" + std::to_string(block) + " " +
                                 policy_kind_name(kind) + "/generator" + std::to_string(which));
                    auto generator_a = make_generator(which, delays.static_period_ps);
                    auto generator_b = make_generator(which, delays.static_period_ps);
                    expect_identical(reference.run(kind, generator_a.get()),
                                     kernels.run(kind, generator_b.get()));
                }
            }
        }
    }
}

TEST(Replay, RejectsMismatchedDelays) {
    const ReplayFixture& f = fixture();
    timing::UnitTraceDelays truncated = *f.unit;
    truncated.unit_required_period_ps.pop_back();
    timing::ScaledTraceDelays bad = f.delays;
    bad.unit = std::make_shared<const timing::UnitTraceDelays>(std::move(truncated));
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, bad, f.table), Error);
    timing::ScaledTraceDelays null_view;
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, null_view, f.table), Error);
    ReplayOptions options;
    options.block_cycles = 0;
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, f.delays, f.table, options), Error);
}

}  // namespace
}  // namespace focs::core
