// Dynamic timing analysis tests: delay table, event log round trips, the
// gate-level-simulation observer, and analyzer recovery of the reference
// per-cycle delays (including clock skew and setup handling).
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "dta/analyzer.hpp"
#include "dta/batch_engine.hpp"
#include "dta/delay_table.hpp"
#include "dta/event_log.hpp"
#include "dta/gatesim.hpp"
#include "sim/machine.hpp"
#include "timing/delay_model.hpp"
#include "timing/netlist.hpp"
#include "workloads/kernel.hpp"

namespace focs::dta {
namespace {

using sim::Stage;

// ---- DelayTable -------------------------------------------------------------

TEST(DelayTable, FallbackToStatic) {
    DelayTable table(2026.0);
    EXPECT_FALSE(table.characterized(0, Stage::kEx));
    EXPECT_DOUBLE_EQ(table.lookup(0, Stage::kEx), 2026.0);
    table.set_characterized(0, Stage::kEx, 1467.0);
    EXPECT_TRUE(table.characterized(0, Stage::kEx));
    EXPECT_DOUBLE_EQ(table.lookup(0, Stage::kEx), 1467.0);
}

TEST(DelayTable, CyclePeriodIsMaxOverStages) {
    DelayTable table(2026.0);
    sim::CycleRecord record;
    for (int s = 0; s < sim::kStageCount; ++s) {
        sim::StageView& view = record.stages[static_cast<std::size_t>(s)];
        view.valid = true;
        view.inst.opcode = isa::Opcode::kAdd;
        table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), static_cast<Stage>(s),
                                800.0 + 100.0 * s);
    }
    EXPECT_DOUBLE_EQ(table.cycle_period_ps(record), 800.0 + 100.0 * (sim::kStageCount - 1));
    // An uncharacterized slot (a bubble here) falls back to the static
    // period and dominates the cycle.
    record.stages[static_cast<std::size_t>(Stage::kWb)].valid = false;
    EXPECT_DOUBLE_EQ(table.cycle_period_ps(record), 2026.0);
}

TEST(DelayTable, ScaledByOneIsIdentity) {
    // Factor 1.0 must reproduce the table bit for bit: fl(x * 1.0) == x for
    // every finite x, so the nominal view of the nominal table is itself.
    DelayTable table(2026.0, 10.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx, 1899.25);
    table.set_characterized(kKeyBubble, Stage::kAdr, 612.5);
    const DelayTable view = table.scaled(1.0);
    EXPECT_EQ(view.static_period_ps(), table.static_period_ps());
    EXPECT_EQ(view.lut_guard_ps(), table.lut_guard_ps());
    for (int key = 0; key < kKeyCount; ++key) {
        for (int stage = 0; stage < sim::kStageCount; ++stage) {
            const auto k = static_cast<OccKey>(key);
            const auto s = static_cast<Stage>(stage);
            EXPECT_EQ(view.characterized(k, s), table.characterized(k, s));
            EXPECT_EQ(view.lookup(k, s), table.lookup(k, s));
            EXPECT_EQ(view.effective(k, s), table.effective(k, s));
        }
    }
}

TEST(DelayTable, ScaledKeepsUncharacterizedFallback) {
    // Uncharacterized entries fall back to the static period; in a scaled
    // view they must fall back to the SCALED static period, not the nominal
    // one (the operating point's STA limit moves with the voltage).
    DelayTable table(2000.0, 5.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx, 900.0);
    const DelayTable view = table.scaled(1.5);
    EXPECT_FALSE(view.characterized(kKeyBubble, Stage::kWb));
    EXPECT_EQ(view.lookup(kKeyBubble, Stage::kWb), 2000.0 * 1.5);
    EXPECT_EQ(view.effective(kKeyBubble, Stage::kWb), 2000.0 * 1.5);
    // The characterized entry follows the scaling rule: the raw part
    // scales, the guard band does not.
    EXPECT_EQ(view.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx),
              900.0 * 1.5 + 5.0);
}

TEST(DelayTable, ScaledReappliesStaticClampAtBandBoundary) {
    // An entry whose raw+guard exceeds the static period is clamped to the
    // static period; the scaled view clamps against the SCALED static
    // period. An entry just under the boundary stays unclamped, on both
    // sides of the view.
    DelayTable table(1000.0, 50.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx, 980.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx, 940.0);
    EXPECT_EQ(table.lookup(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx), 1000.0);
    EXPECT_EQ(table.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 990.0);
    const DelayTable up = table.scaled(2.0);
    // raw 980 * 2 + guard 50 = 2010 > static 2000 -> clamped.
    EXPECT_EQ(up.lookup(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx), 2000.0);
    // raw 940 * 2 + guard 50 = 1930 < 2000 -> exact scaled value. Note the
    // guard band did NOT double: at nominal this entry sat at 990, a naive
    // finished-entry multiply would give 1980.
    EXPECT_EQ(up.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 1930.0);
    // Shrinking the period can push a previously-unclamped entry into the
    // clamp: raw 940 * 0.5 + 50 = 520 > static 500.
    const DelayTable down = table.scaled(0.5);
    EXPECT_EQ(down.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 500.0);
}

TEST(DelayTable, SerializeRoundTrip) {
    // Full-precision text: the copy is exact, entry for entry, and writes
    // the same bytes back.
    DelayTable table(2026.0, 25.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx, 1899.1 / 3.0);
    table.set_characterized(kKeyBubble, Stage::kAdr, 612.5);
    const DelayTable copy = DelayTable::deserialize(table.serialize());
    EXPECT_EQ(copy.static_period_ps(), 2026.0);
    EXPECT_EQ(copy.lut_guard_ps(), 25.0);
    EXPECT_EQ(copy.lookup(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx),
              table.lookup(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx));
    EXPECT_EQ(copy.lookup(kKeyBubble, Stage::kAdr), 612.5 + 25.0);
    EXPECT_FALSE(copy.characterized(kKeyHeld, Stage::kWb));
    EXPECT_EQ(copy.serialize(), table.serialize());
}

TEST(DelayTable, DeserializeRejectsGarbage) {
    // Each probe is a ParseError naming the line it failed on.
    const std::string header = "delay_table v2 static_ps=2026 guard_ps=25\n";
    const struct {
        std::string text;
        int line;
    } probes[] = {
        {"", 1},
        {"not a table\n", 1},
        {"delay_table v1 static_ps=2026\n5 3 100\n", 1},
        {"delay_table v2 static_ps=abc guard_ps=25\n", 1},
        {"delay_table v2 static_ps=2026x guard_ps=25\n", 1},
        {"delay_table v2 static_ps= guard_ps=25\n", 1},
        {"delay_table v2 static_ps=inf guard_ps=25\n", 1},
        {"delay_table v2 static_ps=nan guard_ps=25\n", 1},
        {"delay_table v2 static_ps=1e999 guard_ps=25\n", 1},
        {"delay_table v2 static_ps=0 guard_ps=25\n", 1},
        {"delay_table v2 static_ps=-2026 guard_ps=25\n", 1},
        {"delay_table v2 static_ps=2026 guard_ps=-1\n", 1},
        {"delay_table v2 static_ps=2026 guard_ps=inf\n", 1},
        {"delay_table v2 static_ps=2026 guard_ps=25 extra\n", 1},
        {header + "999 0 100\n", 2},
        {header + "5 6 100\n", 2},
        {header + "5 3\n", 2},
        {header + "5 3 12x\n", 2},
        {header + "5 3 abc\n", 2},
        {header + "5 3 inf\n", 2},
        {header + "5 3 nan\n", 2},
        {header + "5 3 0\n", 2},
        {header + "5 3 -12\n", 2},
        {header + "5 3 100\n\n5 3 120\n", 4},
    };
    for (const auto& probe : probes) {
        SCOPED_TRACE(probe.text);
        try {
            DelayTable::deserialize(probe.text);
            ADD_FAILURE() << "accepted";
        } catch (const ParseError& e) {
            EXPECT_EQ(e.line(), probe.line) << e.what();
        }
    }
}

TEST(Keys, BubbleHeldAndRedirectAttribution) {
    sim::StageView bubble;
    EXPECT_EQ(key_of(bubble), kKeyBubble);
    sim::StageView add;
    add.valid = true;
    add.inst.opcode = isa::Opcode::kAdd;
    EXPECT_EQ(key_of(add), static_cast<OccKey>(isa::Opcode::kAdd));
    add.held = true;
    EXPECT_EQ(key_of(add), kKeyHeld);

    sim::CycleRecord record;
    record.stages[static_cast<std::size_t>(Stage::kAdr)] = bubble;
    record.fetch_redirect = true;
    record.redirect_source = isa::Opcode::kJ;
    const auto keys = attribution_keys(record);
    EXPECT_EQ(keys[static_cast<std::size_t>(Stage::kAdr)], static_cast<OccKey>(isa::Opcode::kJ));
}

TEST(Keys, Names) {
    EXPECT_EQ(key_name(kKeyBubble), "<bubble>");
    EXPECT_EQ(key_name(kKeyHeld), "<held>");
    EXPECT_EQ(key_name(static_cast<OccKey>(isa::Opcode::kMul)), "l.mul");
}

// ---- Event log / trace round trips ------------------------------------------

TEST(EventLog, SerializeRoundTrip) {
    EventLog log;
    log.add({3, 14, 1234.5, 2532.5});
    log.add({4, 2, 999.25, 2500.0});
    const EventLog copy = EventLog::deserialize(log.serialize());
    ASSERT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy.events()[0].cycle, 3u);
    EXPECT_EQ(copy.events()[1].endpoint_id, 2);
    EXPECT_NEAR(copy.events()[0].data_arrival_ps, 1234.5, 1e-3);
}

TEST(OccupancyTraceIo, SerializeRoundTrip) {
    OccupancyTrace trace;
    TraceEntry entry;
    entry.cycle = 9;
    entry.keys = {1, 2, 3, kKeyBubble, kKeyHeld, 0};
    trace.add(entry);
    const OccupancyTrace copy = OccupancyTrace::deserialize(trace.serialize());
    ASSERT_EQ(copy.size(), 1u);
    EXPECT_EQ(copy.entries()[0].keys[3], kKeyBubble);
}

TEST(EventLog, DeserializeRejectsGarbage) {
    EXPECT_THROW(EventLog::deserialize("bogus\n"), ParseError);
    EXPECT_THROW(OccupancyTrace::deserialize("occupancy_trace v1\n1 2 3\n"), ParseError);
}

// ---- Gate-level simulation + analyzer -----------------------------------------

struct FlowArtifacts {
    EventLog log;
    OccupancyTrace trace;
    std::vector<std::array<double, sim::kStageCount>> reference;
    double static_period_ps = 0;
};

FlowArtifacts run_gatesim(const std::string& kernel_name) {
    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    sim::Machine machine;
    machine.load(assembler::assemble(workloads::find_kernel(kernel_name).source));
    GateLevelSimulation gatesim(netlist, calculator);
    machine.run(&gatesim);
    return {gatesim.event_log(), gatesim.trace(), gatesim.reference_delays(),
            calculator.static_period_ps()};
}

TEST(Analyzer, RecoversReferenceDelaysExactly) {
    const auto artifacts = run_gatesim("crc32");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    ASSERT_EQ(analysis.cycles(), artifacts.reference.size());
    // The analyzer reconstructs per-stage delays from raw endpoint events;
    // events carry the endpoint's required period directly, so recovery is
    // an identity and must match the model's ground truth bit for bit (the
    // nominal-once characterization rests on this exactness).
    for (std::size_t c = 0; c < artifacts.reference.size(); c += 7) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_EQ(analysis.cycle_stage_delays()[c][static_cast<std::size_t>(s)],
                      artifacts.reference[c][static_cast<std::size_t>(s)])
                << "cycle " << c << " stage " << s;
        }
    }
}

TEST(Analyzer, LutDominatesEveryObservation) {
    const auto artifacts = run_gatesim("fir");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    const DelayTable table = analysis.build_delay_table();
    for (std::size_t c = 0; c < artifacts.reference.size(); ++c) {
        const auto& entry = artifacts.trace.entries()[c];
        for (int s = 0; s < sim::kStageCount; ++s) {
            const double lut = table.lookup(entry.keys[static_cast<std::size_t>(s)],
                                            static_cast<Stage>(s));
            EXPECT_GE(lut + 1e-9, artifacts.reference[c][static_cast<std::size_t>(s)])
                << "cycle " << c << " stage " << s;
        }
    }
}

TEST(Analyzer, EntriesNeverExceedStatic) {
    const auto artifacts = run_gatesim("char_mul_div");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    const DelayTable table = analysis.build_delay_table();
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_LE(table.lookup(key, static_cast<Stage>(s)), config.static_period_ps + 1e-9);
        }
    }
}

TEST(Analyzer, MinOccurrencesFallsBackToStatic) {
    const auto artifacts = run_gatesim("fibcall");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    config.min_occurrences = 1 << 30;  // nothing qualifies
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    const DelayTable table = analysis.build_delay_table();
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_FALSE(table.characterized(key, static_cast<Stage>(s)));
        }
    }
}

TEST(Analyzer, GenieMeanBelowStatic) {
    const auto artifacts = run_gatesim("bubblesort");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    EXPECT_GT(analysis.genie_mean_period_ps(), 0.0);
    EXPECT_LT(analysis.genie_mean_period_ps(), config.static_period_ps);
    // The histogram of per-cycle maxima agrees with the mean accessor.
    EXPECT_NEAR(analysis.genie_histogram().stats().mean(), analysis.genie_mean_period_ps(), 1e-6);
}

TEST(Analyzer, LimitingStageCountsSumToCycles) {
    const auto artifacts = run_gatesim("matmult");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    std::uint64_t total = 0;
    for (const auto count : analysis.limiting_stage_counts()) total += count;
    EXPECT_EQ(total, analysis.cycles());
}

TEST(Analyzer, OfflineFileFlowMatchesInMemory) {
    // The paper's flow is offline: the gate-level simulator writes the
    // event log to disk (TSSI), the DTA tool reads it back. Serializing the
    // log and trace through text and re-analyzing must produce a
    // byte-identical LUT.
    const auto artifacts = run_gatesim("fsm");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    const auto spec = PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({}));

    DynamicTimingAnalysis direct(spec, config);
    direct.analyze(artifacts.log, artifacts.trace);

    const EventLog reloaded_log = EventLog::deserialize(artifacts.log.serialize());
    const OccupancyTrace reloaded_trace =
        OccupancyTrace::deserialize(artifacts.trace.serialize());
    DynamicTimingAnalysis offline(spec, config);
    offline.analyze(reloaded_log, reloaded_trace);

    EXPECT_EQ(direct.build_delay_table().serialize(), offline.build_delay_table().serialize());
    EXPECT_NEAR(direct.genie_mean_period_ps(), offline.genie_mean_period_ps(), 1e-3);
}

// ---- Batched characterization engine ----------------------------------------

/// Runs `kernels` through ONE batched engine (threads/batch from `options`)
/// chained over all programs, exactly like CharacterizationFlow does.
void characterize_batched(const std::vector<const char*>& kernels,
                          DynamicTimingAnalysis& analysis, BatchOptions options) {
    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    BatchCharacterizationEngine engine(netlist, calculator, analysis, options);
    for (const char* kernel : kernels) {
        sim::Machine machine;
        machine.load(assembler::assemble(workloads::find_kernel(kernel).source));
        machine.run(&engine);
    }
    engine.finish();
    EXPECT_EQ(engine.cycles_observed(), analysis.cycles());
}

void expect_identical_histograms(const Histogram& a, const Histogram& b) {
    ASSERT_EQ(a.bins(), b.bins());
    ASSERT_DOUBLE_EQ(a.lo(), b.lo());
    ASSERT_DOUBLE_EQ(a.hi(), b.hi());
    for (int bin = 0; bin < a.bins(); ++bin) ASSERT_EQ(a.count(bin), b.count(bin)) << bin;
    ASSERT_EQ(a.total(), b.total());
    ASSERT_DOUBLE_EQ(a.stats().mean(), b.stats().mean());
    ASSERT_DOUBLE_EQ(a.stats().min(), b.stats().min());
    ASSERT_DOUBLE_EQ(a.stats().max(), b.stats().max());
}

/// Offline analysis of `kernels` run back to back: their event logs and
/// traces concatenated onto one timeline, as CharacterizationFlow::
/// run_offline does.
void analyze_offline(const std::vector<const char*>& kernels, DynamicTimingAnalysis& analysis) {
    EventLog log;
    OccupancyTrace trace;
    std::uint64_t offset = 0;
    for (const char* kernel : kernels) {
        const auto artifacts = run_gatesim(kernel);
        log.append_shifted(artifacts.log, offset);
        trace.append_shifted(artifacts.trace, offset);
        offset += artifacts.trace.size();
    }
    analysis.analyze(log, trace);
}

TEST(BatchedCharacterization, ByteIdenticalAcrossWorkersAndBatchBoundaries) {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    const auto spec = PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({}));
    const std::vector<const char*> kernels = {"crc32", "fir", "bubblesort"};

    // The oracle: offline analysis of the materialized event log.
    DynamicTimingAnalysis offline(spec, config);
    analyze_offline(kernels, offline);
    const std::string reference_table = offline.build_delay_table().serialize();

    // Worker counts around the shard edges (1 = inline serial kernel, 8 >
    // stages) and batch sizes hitting odd block boundaries: every cycle its
    // own slot, non-divisor slot sizes, and one slot larger than the whole
    // run (flush-only path).
    const BatchOptions configs[] = {
        {.threads = 1, .batch_cycles = 1},      {.threads = 1, .batch_cycles = 7},
        {.threads = 1, .batch_cycles = 1024},   {.threads = 2, .batch_cycles = 64},
        {.threads = 2, .batch_cycles = 100000}, {.threads = 8, .batch_cycles = 257},
    };
    for (const BatchOptions& options : configs) {
        SCOPED_TRACE(std::to_string(options.threads) + " workers, batch " +
                     std::to_string(options.batch_cycles));
        DynamicTimingAnalysis batched(spec, config);
        characterize_batched(kernels, batched, options);

        EXPECT_EQ(batched.cycles(), offline.cycles());
        EXPECT_EQ(batched.build_delay_table().serialize(), reference_table);
        EXPECT_DOUBLE_EQ(batched.genie_mean_period_ps(), offline.genie_mean_period_ps());
        EXPECT_EQ(batched.limiting_stage_counts(), offline.limiting_stage_counts());
        // The batched figure histograms are coarsened from a fixed fine
        // binning; the offline ones bin the per-cycle vector directly. Every
        // bin count the figures use must still agree bin for bin.
        for (const int bins : {32, 40, 50}) {
            SCOPED_TRACE(std::to_string(bins) + " bins");
            expect_identical_histograms(batched.genie_histogram(bins),
                                        offline.genie_histogram(bins));
            for (int s = 0; s < sim::kStageCount; ++s) {
                const auto stage = static_cast<Stage>(s);
                expect_identical_histograms(batched.stage_histogram(stage, bins),
                                            offline.stage_histogram(stage, bins));
            }
        }
        for (OccKey key = 0; key < kKeyCount; ++key) {
            for (int s = 0; s < sim::kStageCount; ++s) {
                const auto stage = static_cast<Stage>(s);
                const auto& a = batched.stats(key, stage);
                const auto& b = offline.stats(key, stage);
                ASSERT_EQ(a.occurrences, b.occurrences);
                ASSERT_DOUBLE_EQ(a.max_ps, b.max_ps);
                ASSERT_DOUBLE_EQ(a.stats.mean(), b.stats.mean());
                // The deterministic reservoir retains identical samples, so
                // even the per-(instruction, stage) histograms match.
                if (a.occurrences > 0) {
                    expect_identical_histograms(batched.key_stage_histogram(key, stage),
                                                offline.key_stage_histogram(key, stage));
                }
            }
        }
    }
}

TEST(BatchedCharacterization, RejectsUseAfterFinish) {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    characterize_batched({"fibcall"}, analysis, {.threads = 2, .batch_cycles = 32});

    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    BatchCharacterizationEngine engine(netlist, calculator, analysis, {});
    engine.finish();
    EXPECT_THROW(engine.on_cycle(sim::CycleRecord{}), Error);
    engine.finish();  // idempotent
}

TEST(StreamingAnalyzer, RejectsMixingModes) {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    const auto spec = PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({}));
    const auto artifacts = run_gatesim("fibcall");

    DynamicTimingAnalysis batched(spec, config);
    characterize_batched({"fibcall"}, batched, {});
    EXPECT_THROW(batched.analyze(artifacts.log, artifacts.trace), Error);

    DynamicTimingAnalysis analyzed(spec, config);
    analyzed.analyze(artifacts.log, artifacts.trace);
    const FoldedCycle cycle;
    EXPECT_THROW(analyzed.consume_batch({&cycle, 1}), Error);
}

TEST(Analyzer, SampleCapBoundsHistogramMemory) {
    const auto artifacts = run_gatesim("crc32");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    config.sample_cap = 16;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    // Stats see every occurrence; the raw-sample histogram is truncated to
    // the cap (bubble slots occur in thousands of cycles).
    EXPECT_GT(analysis.stats(kKeyBubble, Stage::kEx).occurrences, 16u);
    EXPECT_EQ(analysis.key_stage_histogram(kKeyBubble, Stage::kEx).total(), 16u);
}

TEST(Analyzer, StageHistogramsMatchPerCycleData) {
    const auto artifacts = run_gatesim("bsearch");
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    for (int s = 0; s < sim::kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        const Histogram h = analysis.stage_histogram(stage);
        EXPECT_EQ(h.total(), analysis.cycles()) << s;
        // The EX stage must carry by far the largest mean (paper Fig. 6).
        if (stage != Stage::kEx) {
            EXPECT_LT(h.stats().mean(),
                      analysis.stage_histogram(Stage::kEx).stats().mean())
                << s;
        }
    }
}

TEST(Analyzer, MulHistogramShowsExSpread) {
    const auto artifacts = run_gatesim("fir");  // multiplier heavy
    AnalyzerConfig config;
    config.static_period_ps = artifacts.static_period_ps;
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    analysis.analyze(artifacts.log, artifacts.trace);
    const auto mul_key = static_cast<OccKey>(isa::Opcode::kMul);
    const auto& ex_stats = analysis.stats(mul_key, Stage::kEx);
    ASSERT_GT(ex_stats.occurrences, 100u);
    // EX delays for l.mul sit far above its other stages (paper Fig. 7).
    EXPECT_GT(ex_stats.stats.mean(), analysis.stats(mul_key, Stage::kFe).stats.mean() + 400.0);
    EXPECT_GT(ex_stats.stats.mean(), analysis.stats(mul_key, Stage::kWb).stats.mean() + 400.0);
}

}  // namespace
}  // namespace focs::dta
