// Sweep runtime tests: parallel determinism (the central contract — a
// --jobs N run must be byte-identical to a serial run of the same spec),
// exactly-once artifact construction, fault tolerance (per-cell isolation,
// cache poison recovery, deadlines), JSON round-trips, and spec parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/flows.hpp"
#include "runtime/artifact_cache.hpp"
#include "runtime/result_io.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "workloads/kernel.hpp"
#include "test_util.hpp"

namespace focs::runtime {
namespace {

/// Small but multi-axis spec: 3 kernels x 2 policies x 2 generators, one
/// voltage; 12 cells, enough to keep 4 workers busy concurrently.
SweepSpec small_spec() {
    SweepSpec spec;
    spec.kernels = {"crc32", "fibcall", "bitcount"};
    spec.policies = {core::PolicyKind::kInstructionLut, core::PolicyKind::kStatic};
    spec.generators = {GeneratorSpec::parse("ideal"), GeneratorSpec::parse("taps:8")};
    return spec;
}

/// Arms the process-global fault injector for one test body and guarantees
/// it is disarmed again on every exit path (the injector is shared across
/// every test in this binary).
struct GlobalFaultGuard {
    explicit GlobalFaultGuard(const std::string& spec) {
        fault::global_injector().configure(spec);
    }
    ~GlobalFaultGuard() { fault::global_injector().configure(""); }
};

/// Tests that need the product code's inject points to fire cannot run in
/// a -DFOCS_FAULT_COMPILE_OUT build (the macros compile to nothing there).
#ifdef FOCS_FAULT_COMPILE_OUT
#define FOCS_REQUIRE_FAULT_POINTS() GTEST_SKIP() << "fault inject points compiled out"
#else
#define FOCS_REQUIRE_FAULT_POINTS() ((void)0)
#endif

TEST(SweepEngine, ParallelRunIsByteIdenticalToSerial) {
    const SweepEngine serial(1);
    const SweepEngine parallel(4);
    SweepResult a = serial.run(small_spec());
    SweepResult b = parallel.run(small_spec());
    EXPECT_EQ(a.jobs, 1);
    EXPECT_EQ(b.jobs, 4);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    // The canonical document excludes run-dependent timing fields; on equal
    // specs it must match byte for byte regardless of the job count.
    EXPECT_EQ(to_json(a, /*include_timing=*/false), to_json(b, /*include_timing=*/false));
}

TEST(SweepEngine, ReplayIsByteIdenticalToLiveAtEveryJobCount) {
    // The central record/replay contract at the sweep level: the same grid
    // evaluated live and via cached traces produces identical canonical
    // documents, for 1/2/8 workers (8 > cell-per-kernel count, so workers
    // race for shared trace futures under TSan). The grid spans every
    // bundled policy kind — including the promoted approx-lut/dual-cycle
    // kernels and two parameterized grid points — and two voltage points,
    // so the shared unit delay arrays are raced and scaled across the
    // voltage axis too. The replay side schedules every (voltage, kernel,
    // policy) column as one fused pass — over both generators, and over
    // the single ideal variant of an ideal-only axis — so this also proves
    // fusion is invisible in the bytes at every job count.
    SweepSpec spec = small_spec();
    spec.policies = {core::PolicyKind::kInstructionLut, core::PolicyKind::kStatic,
                     core::PolicyKind::kGenie, core::PolicyKind::kExOnly,
                     core::PolicyKind::kTwoClass, core::PolicyKind::kApproxLut,
                     core::PolicyKind::kDualCycle,
                     core::PolicySpec::parse("approx-lut:0.8"),
                     core::PolicySpec::parse("dual-cycle:3")};
    spec.voltages_v = {0.65, 0.70};
    for (const auto& generators :
         {spec.generators, std::vector<GeneratorSpec>{GeneratorSpec::parse("ideal")}}) {
        spec.generators = generators;
        SCOPED_TRACE(std::to_string(generators.size()) + " generator(s)");
        const SweepResult live = SweepEngine(2, nullptr, EvalMode::kLive).run(spec);
        EXPECT_EQ(live.mode, "live");
        EXPECT_EQ(live.guest_simulations, live.cells.size());
        EXPECT_EQ(live.unit_delay_passes, 0u);
        const std::string live_json = to_json(live, /*include_timing=*/false);
        for (const int jobs : {1, 2, 8}) {
            const SweepResult replayed = SweepEngine(jobs, nullptr, EvalMode::kReplay).run(spec);
            EXPECT_EQ(replayed.mode, "replay");
            // Exactly one guest simulation AND one unit delay pass per
            // kernel, regardless of the policy x generator cells and 2
            // voltage points stacked on each.
            EXPECT_EQ(replayed.guest_simulations, spec.kernels.size()) << jobs << " jobs";
            EXPECT_EQ(replayed.unit_delay_passes, spec.kernels.size()) << jobs << " jobs";
            EXPECT_EQ(replayed.unit_delay_reuses, replayed.cells.size() - spec.kernels.size())
                << jobs << " jobs";
            EXPECT_EQ(to_json(replayed, /*include_timing=*/false), live_json) << jobs << " jobs";
        }
    }
}

TEST(SweepEngine, DenseVoltageGridPaysOneUnitDelayPassPerKernel) {
    // The voltage-axis amortization contract on a >= 10-point grid: delay-
    // model work is one pass per (kernel, variant), not per (kernel,
    // voltage). The delay table is pre-seeded per point so the test
    // measures the trace-delay axis, not characterization.
    SweepSpec spec;
    spec.kernels = {"crc32", "fibcall"};
    spec.policies = {core::PolicyKind::kGenie, core::PolicyKind::kStatic};
    spec.voltages_v = {0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.62};
    auto cache = std::make_shared<ArtifactCache>();
    for (const double voltage : spec.voltages_v) {
        cache->put_delay_table(spec.design_for(voltage), SweepEngine::analyzer_config_for(spec),
                               dta::DelayTable(5000.0));
    }
    const SweepResult result = SweepEngine(4, cache, EvalMode::kReplay).run(spec);
    EXPECT_EQ(result.cells.size(), 2u * 2u * 10u);
    EXPECT_EQ(result.characterizations, 0u);
    EXPECT_EQ(result.guest_simulations, spec.kernels.size());
    // 10 voltages x 2 policies x 2 kernels = 40 unit-delay requests, but
    // only one unit pass per kernel; the other 38 are view derivations.
    EXPECT_EQ(result.unit_delay_passes, spec.kernels.size());
    EXPECT_EQ(result.unit_delay_reuses, result.cells.size() - spec.kernels.size());
    EXPECT_EQ(cache->unit_delay_passes(), spec.kernels.size());
}

TEST(SweepEngine, ReplayReusesTracesAcrossSweeps) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, cache, EvalMode::kReplay);
    const SweepResult first = engine.run(small_spec());
    EXPECT_EQ(first.guest_simulations, 3u);
    EXPECT_EQ(cache->traces_recorded(), 3u);
    EXPECT_EQ(cache->unit_delay_passes(), 3u);  // one per kernel, voltage-free
    // A warm cache serves traces and unit delays without any new guest
    // runs or delay-model passes.
    const SweepResult again = engine.run(small_spec());
    EXPECT_EQ(again.guest_simulations, 0u);
    EXPECT_EQ(again.unit_delay_passes, 0u);
    EXPECT_EQ(cache->traces_recorded(), 3u);
    EXPECT_EQ(cache->unit_delay_passes(), 3u);
    EXPECT_EQ(to_json(first, false), to_json(again, false));
}

TEST(SweepEngine, StampsCacheOutcomeMetrics) {
    // The build-ahead schedule moves lookups in time, never between cells:
    // every job count makes the same lookups, so misses and served sums
    // match exactly.
    for (const int jobs : {1, 2, 4, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        auto cache = std::make_shared<ArtifactCache>();
        const SweepEngine engine(jobs, cache, EvalMode::kReplay);
        const SweepResult result = engine.run(small_spec());
        // Misses are the deterministic exactly-once builds; the hit/wait
        // split depends on thread scheduling, so the assertions use the
        // served sums.
        EXPECT_EQ(result.metrics.program.miss, 3u);      // one per kernel (trace builders)
        EXPECT_EQ(result.metrics.delay_table.miss, 1u);  // one operating point
        EXPECT_EQ(result.metrics.trace.miss, 3u);
        EXPECT_EQ(result.metrics.unit_delays.miss, 3u);
        // 12 cells plus 3 unit-delay builders request the trace; 3 of the
        // 15 requests build, the rest are served from the shared futures.
        EXPECT_EQ(result.metrics.trace.served(), 12u);
        EXPECT_EQ(result.metrics.unit_delays.served(), 9u);
        EXPECT_EQ(result.metrics.delay_table.served(), 11u);
        EXPECT_EQ(result.metrics.program.served(), 0u);
        // Wall-time distribution: ordered percentiles over populated samples.
        EXPECT_GE(result.metrics.cell_wall_ms_p95, result.metrics.cell_wall_ms_p50);
        EXPECT_GE(result.metrics.cell_wall_ms_max, result.metrics.cell_wall_ms_p95);
        EXPECT_GT(result.metrics.cell_wall_ms_max, 0.0);
        for (const auto& cell : result.cells) EXPECT_GE(cell.wall_ms, 0.0);

        // A warm cache builds nothing: every request is served.
        const SweepResult again = engine.run(small_spec());
        EXPECT_EQ(again.metrics.trace.miss, 0u);
        EXPECT_EQ(again.metrics.unit_delays.miss, 0u);
        EXPECT_EQ(again.metrics.delay_table.miss, 0u);
        EXPECT_EQ(again.metrics.trace.served(), 12u);
        EXPECT_EQ(again.metrics.unit_delays.served(), 12u);
        EXPECT_EQ(again.metrics.delay_table.served(), 12u);
    }
}

TEST(SweepEngine, StampsSpecTextAndHash) {
    const SweepEngine engine(1);
    const SweepSpec spec = small_spec();
    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.spec_text, spec.resolved().serialize());
    EXPECT_EQ(result.spec_hash, stable_text_hash(result.spec_text));
    EXPECT_EQ(result.spec_hash.rfind("fnv1a:", 0), 0u);
    // The stamp survives the JSON round trip (both document flavours).
    const SweepResult parsed = from_json(to_json(result));
    EXPECT_EQ(parsed.spec_text, result.spec_text);
    EXPECT_EQ(parsed.spec_hash, result.spec_hash);
    EXPECT_EQ(parsed.mode, result.mode);
    EXPECT_EQ(parsed.guest_simulations, result.guest_simulations);
    const SweepResult canonical = from_json(to_json(result, /*include_timing=*/false));
    EXPECT_EQ(canonical.spec_hash, result.spec_hash);
    EXPECT_TRUE(canonical.mode.empty());
}

TEST(SweepEngine, VoltageAxisPaysOneNominalCharacterization) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, cache);
    SweepSpec spec = small_spec();
    spec.voltages_v = {0.70, 0.80};

    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.cells.size(), 24u);
    // Two voltages -> ONE nominal characterization; each operating point's
    // table is a derived scaled view (including 0.70 V itself, whose view
    // is the factor-1.0 identity), each built once despite 12 cells racing
    // for it.
    EXPECT_EQ(result.characterizations, 1u);
    EXPECT_EQ(result.nominal_passes, 1u);
    EXPECT_EQ(result.scaled_views, 2u);
    EXPECT_EQ(cache->nominal_passes(), 1u);

    // A second sweep over the same grid is served entirely from the cache.
    const SweepResult again = engine.run(spec);
    EXPECT_EQ(again.characterizations, 0u);
    EXPECT_EQ(again.nominal_passes, 0u);
    EXPECT_EQ(again.scaled_views, 0u);
    EXPECT_EQ(to_json(result, false), to_json(again, false));
}

TEST(SweepEngine, ReferenceCharacterizationIsByteIdenticalToScaledViews) {
    // The nominal-once collapse against its oracle at the sweep level: a
    // cache pre-seeded with a full per-voltage characterization of every
    // operating point must yield the same canonical document as the scaled
    // views of the one nominal table.
    SweepSpec spec = small_spec();
    spec.voltages_v = {0.62, 0.70, 0.78};

    const SweepResult derived = SweepEngine(4).run(spec);

    auto reference_cache = std::make_shared<ArtifactCache>();
    const dta::AnalyzerConfig analyzer_config = SweepEngine::analyzer_config_for(spec);
    const auto programs = workloads::assemble_programs(workloads::characterization_suite());
    for (const double voltage : spec.voltages_v) {
        const timing::DesignConfig design = spec.design_for(voltage);
        reference_cache->put_delay_table(
            design, analyzer_config,
            core::CharacterizationFlow(design, analyzer_config).run(programs).table);
    }
    const SweepResult reference = SweepEngine(4, reference_cache).run(spec);

    EXPECT_EQ(derived.nominal_passes, 1u);
    EXPECT_EQ(derived.scaled_views, 3u);
    EXPECT_EQ(reference.characterizations, 0u);
    EXPECT_EQ(reference.nominal_passes, 0u);
    EXPECT_EQ(reference.scaled_views, 0u);
    EXPECT_EQ(to_json(derived, false), to_json(reference, false));
}

TEST(SweepEngine, CellsArriveInSpecDeclarationOrder) {
    const SweepEngine engine(4);
    const SweepResult result = engine.run(small_spec());
    ASSERT_EQ(result.cells.size(), 12u);
    // kernel-major, then policy, then generator.
    EXPECT_EQ(result.cells[0].kernel, "crc32");
    EXPECT_EQ(result.cells[0].policy, "lut");
    EXPECT_EQ(result.cells[0].generator, "ideal");
    EXPECT_EQ(result.cells[1].generator, "taps:8");
    EXPECT_EQ(result.cells[2].policy, "static");
    EXPECT_EQ(result.cells[4].kernel, "fibcall");
    EXPECT_EQ(result.cells[8].kernel, "bitcount");
    for (const auto& cell : result.cells) {
        EXPECT_EQ(cell.result.guest.exit_code, 0u) << cell.kernel;
        EXPECT_EQ(cell.result.timing_violations, 0u) << cell.kernel;
        EXPECT_GT(cell.result.eff_freq_mhz, 0.0) << cell.kernel;
    }
}

TEST(SweepEngine, PreseededTableSkipsCharacterization) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(2, cache);
    SweepSpec spec = small_spec();

    // Seed the (single) operating point with a trivial table; the sweep must
    // not characterize at all and must use the seeded fallback everywhere.
    cache->put_delay_table(spec.design_for(timing::DesignConfig{}.voltage_v),
                           SweepEngine::analyzer_config_for(spec),
                           dta::DelayTable(1000.0));
    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.characterizations, 0u);
    EXPECT_EQ(cache->nominal_passes(), 0u);
}

TEST(SweepEngine, KeepGoingIsolatesFailedCellsAcrossJobCounts) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Per-cell isolation under injected evaluation faults: failing cells
    // carry their status and error, every other cell completes, and *which*
    // cells fail is a pure function of the cell key — so the canonical
    // document is byte-identical at any job count even on a faulty run.
    // Under this seed fibcall/lut/ideal fails: a build-ahead task's cell,
    // whose column must still get the task's slot and skip it.
    const GlobalFaultGuard guard("eval.cell:0.5:seed=11");
    const SweepResult serial = SweepEngine(1).run(small_spec());
    EXPECT_GT(serial.cells_failed, 0u);
    EXPECT_GT(serial.cells_ok, 0u);
    EXPECT_EQ(serial.cells_cancelled, 0u);
    EXPECT_EQ(serial.cells_ok + serial.cells_failed, serial.cells.size());
    EXPECT_FALSE(serial.complete());
    double ok_freq_sum = 0;
    for (const auto& cell : serial.cells) {
        if (cell.ok()) {
            ok_freq_sum += cell.result.eff_freq_mhz;
            EXPECT_TRUE(cell.error.empty());
            continue;
        }
        EXPECT_EQ(cell.status, CellStatus::kFailed);
        EXPECT_EQ(cell.error_code, ErrorCode::kInjected);
        EXPECT_NE(cell.error.find("eval.cell"), std::string::npos);
    }
    // Aggregates cover the surviving cells only.
    EXPECT_DOUBLE_EQ(serial.mean_eff_freq_mhz,
                     ok_freq_sum / static_cast<double>(serial.cells_ok));
    const SweepResult parallel = SweepEngine(8).run(small_spec());
    EXPECT_EQ(parallel.cells_failed, serial.cells_failed);
    EXPECT_EQ(to_json(serial, /*include_timing=*/false),
              to_json(parallel, /*include_timing=*/false));
}

TEST(SweepEngine, FailFastNamesTheFailingCell) {
    FOCS_REQUIRE_FAULT_POINTS();
    SweepRunOptions options;
    options.failure_mode = FailureMode::kFailFast;
    {
        const GlobalFaultGuard guard("eval.cell:1:max=1");
        try {
            SweepEngine(1).run(small_spec(), options);
            FAIL() << "fail-fast sweep did not throw";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::kInjected);
            // The rethrown failure names the failing cell's grid coordinates
            // (first cell in declaration order under one worker).
            EXPECT_NE(std::string(e.what()).find("sweep cell crc32/lut/ideal@"),
                      std::string::npos);
        }
    }
    // At 4 jobs the first failure lands in whichever build-ahead task
    // reaches its fault point first. The sweep must still return (no
    // column left waiting on a build-ahead slot) and name a cell.
    const GlobalFaultGuard guard("eval.cell:1:max=1");
    try {
        SweepEngine(4).run(small_spec(), options);
        FAIL() << "fail-fast sweep did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInjected);
        EXPECT_NE(std::string(e.what()).find("sweep cell "), std::string::npos);
    }
}

TEST(SweepEngine, ExpiredDeadlineDrainsQueueAsCancelledCells) {
    const CancellationToken expired = CancellationToken::with_deadline_ms(0);
    SweepRunOptions options;
    options.cancel = &expired;
    const SweepResult result = SweepEngine(2).run(small_spec(), options);
    EXPECT_EQ(result.cells_cancelled, result.cells.size());
    EXPECT_EQ(result.cells_ok, 0u);
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.mean_eff_freq_mhz, 0.0);
    for (const auto& cell : result.cells) {
        EXPECT_EQ(cell.status, CellStatus::kCancelled);
        EXPECT_EQ(cell.error_code, ErrorCode::kDeadline);
        EXPECT_NE(cell.error.find("deadline"), std::string::npos);
        EXPECT_FALSE(cell.kernel.empty());  // coordinates survive the drain
    }
    // The drained queue paid for no work at all.
    EXPECT_EQ(result.guest_simulations, 0u);
    EXPECT_EQ(result.characterizations, 0u);

    // An explicit request reports kCancelled instead of kDeadline.
    const CancellationToken requested;
    requested.request_cancel();
    options.cancel = &requested;
    const SweepResult stopped = SweepEngine(2).run(small_spec(), options);
    EXPECT_EQ(stopped.cells_cancelled, stopped.cells.size());
    EXPECT_EQ(stopped.cells[0].error_code, ErrorCode::kCancelled);
}

TEST(SweepEngine, MidRunDeadlineReturnsPartialResults) {
    FOCS_REQUIRE_FAULT_POINTS();
    // A delay fault stalls the sweep so a short deadline fires mid-run: on
    // every cell at 1 job, or at 4 jobs inside the nominal characterization
    // the first build-ahead task elects while the other tasks and columns
    // wait on it. The run still returns normally, with each cell either
    // ok, or cancelled at the boundary. How far the sweep got is timing-
    // dependent; the status partition is not.
    struct Case {
        const char* fault;
        double deadline_ms;
        int jobs;
    };
    for (const Case& c : {Case{"eval.cell:1:delay_ms=20", 5, 1},
                          Case{"build.nominal_table:1:delay_ms=2000", 50, 4}}) {
        SCOPED_TRACE(c.fault);
        const GlobalFaultGuard guard(c.fault);
        const CancellationToken deadline = CancellationToken::with_deadline_ms(c.deadline_ms);
        SweepRunOptions options;
        options.cancel = &deadline;
        const SweepResult result = SweepEngine(c.jobs).run(small_spec(), options);
        EXPECT_GE(result.cells_cancelled, 1u);
        EXPECT_EQ(result.cells_failed, 0u);
        EXPECT_EQ(result.cells_ok + result.cells_cancelled, result.cells.size());
        for (const auto& cell : result.cells) {
            if (!cell.ok()) {
                EXPECT_EQ(cell.error_code, ErrorCode::kDeadline);
            }
        }
    }
}

TEST(ResultIo, JsonRoundTripIsLossless) {
    const SweepEngine engine(2);
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    const SweepResult result = engine.run(spec);

    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"focs-sweep-v6\""), std::string::npos);
    const SweepResult parsed = from_json(json);
    EXPECT_EQ(parsed.jobs, result.jobs);
    EXPECT_EQ(parsed.characterizations, result.characterizations);
    EXPECT_EQ(parsed.nominal_passes, result.nominal_passes);
    EXPECT_EQ(parsed.scaled_views, result.scaled_views);
    // The stamped spec hash matches an independent recomputation over the
    // round-tripped canonical spec text (FNV-1a over the exact bytes).
    EXPECT_EQ(parsed.spec_hash, stable_text_hash(parsed.spec_text));
    EXPECT_EQ(parsed.unit_delay_passes, result.unit_delay_passes);
    EXPECT_EQ(parsed.unit_delay_reuses, result.unit_delay_reuses);
    // The metrics block survives the round trip.
    EXPECT_EQ(parsed.metrics.trace.miss, result.metrics.trace.miss);
    EXPECT_EQ(parsed.metrics.unit_delays.hit, result.metrics.unit_delays.hit);
    EXPECT_EQ(parsed.metrics.unit_delays.wait, result.metrics.unit_delays.wait);
    EXPECT_EQ(parsed.metrics.delay_table.miss, result.metrics.delay_table.miss);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_p50, result.metrics.cell_wall_ms_p50);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_p95, result.metrics.cell_wall_ms_p95);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_max, result.metrics.cell_wall_ms_max);
    ASSERT_EQ(parsed.cells.size(), result.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
        EXPECT_EQ(parsed.cells[i].kernel, result.cells[i].kernel);
        EXPECT_EQ(parsed.cells[i].result.cycles, result.cells[i].result.cycles);
        EXPECT_EQ(parsed.cells[i].result.guest.reports, result.cells[i].result.guest.reports);
        EXPECT_DOUBLE_EQ(parsed.cells[i].wall_ms, result.cells[i].wall_ms);
        EXPECT_DOUBLE_EQ(parsed.cells[i].queue_wait_ms, result.cells[i].queue_wait_ms);
    }
    // Re-serializing the parsed document reproduces it byte for byte ("%.17g"
    // doubles survive the round trip).
    EXPECT_EQ(to_json(parsed), json);
}

TEST(ResultIo, RejectsOlderSchemaAndMissingSpecStamp) {
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    const std::string json = to_json(SweepEngine(1).run(spec));
    // Only focs-sweep-v6 is read: the same document under the v5 schema
    // string is refused, not parsed with fields silently left zero.
    std::string v5 = json;
    v5.replace(v5.find("focs-sweep-v6"), 13, "focs-sweep-v5");
    EXPECT_THROW(from_json(v5), Error);
    // The spec stamp is required.
    std::string unstamped = json;
    const auto spec_at = unstamped.find("  \"spec\"");
    ASSERT_NE(spec_at, std::string::npos);
    const auto spec_end = unstamped.find('\n', unstamped.find("\"spec_hash\""));
    unstamped.erase(spec_at, spec_end + 1 - spec_at);
    EXPECT_THROW(from_json(unstamped), Error);
}

TEST(ResultIo, RejectsMalformedDocuments) {
    EXPECT_THROW(from_json(""), Error);
    EXPECT_THROW(from_json("{"), Error);
    EXPECT_THROW(from_json("{\"schema\": \"bogus\"}"), Error);
    EXPECT_THROW(from_json("{\"schema\": \"focs-sweep-v6\"}"), Error);  // missing fields
    EXPECT_THROW(from_json("{\"schema\": \"\\uZZZZ\"}"), Error);        // non-hex \u escape
    EXPECT_THROW(from_json("{\"schema\": \"\\u20ac\"}"), Error);  // beyond control range
}

TEST(ResultIo, RejectsTruncatedAndCorruptDocuments) {
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    const std::string json = to_json(SweepEngine(1).run(spec));
    // Truncation anywhere — mid-cells or just before the closing brace —
    // is a hard parse error, never a silently shorter result.
    EXPECT_THROW(from_json(json.substr(0, json.size() / 2)), Error);
    EXPECT_THROW(from_json(json.substr(0, json.size() - 2)), Error);
    EXPECT_THROW(from_json(json + "x"), Error);  // trailing garbage
}

TEST(ResultIo, V6RoundTripPreservesFailureFields) {
    FOCS_REQUIRE_FAULT_POINTS();
    const GlobalFaultGuard guard("eval.cell:0.5:seed=11");
    const SweepResult result = SweepEngine(2).run(small_spec());
    ASSERT_GT(result.cells_failed, 0u);
    ASSERT_GT(result.cells_ok, 0u);

    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"cells_failed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    const SweepResult parsed = from_json(json);
    EXPECT_EQ(parsed.cells_ok, result.cells_ok);
    EXPECT_EQ(parsed.cells_failed, result.cells_failed);
    EXPECT_EQ(parsed.cells_cancelled, 0u);
    ASSERT_EQ(parsed.cells.size(), result.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
        EXPECT_EQ(parsed.cells[i].status, result.cells[i].status) << i;
        EXPECT_EQ(parsed.cells[i].error_code, result.cells[i].error_code) << i;
        EXPECT_EQ(parsed.cells[i].error, result.cells[i].error) << i;
    }
    EXPECT_EQ(to_json(parsed), json);  // byte-stable re-serialization

    // The canonical flavour keeps the failure vocabulary too (which cells
    // fail is deterministic, so it belongs in the canonical document).
    const SweepResult canonical = from_json(to_json(result, /*include_timing=*/false));
    EXPECT_EQ(canonical.cells_failed, result.cells_failed);

    // Corrupt enum values are rejected, not zero-filled.
    std::string bad_code = json;
    bad_code.replace(bad_code.find("\"injected\""), 10, "\"gremlins\"");
    EXPECT_THROW(from_json(bad_code), Error);
    std::string bad_status = json;
    bad_status.replace(bad_status.find("\"status\": \"failed\""), 18,
                       "\"status\": \"exploded\"");
    EXPECT_THROW(from_json(bad_status), Error);
}

TEST(ResultIo, AllOkDocumentCarriesNoFailureVocabulary) {
    // A fully successful sweep's document must not mention failures at all:
    // a canonical v6 emission differs from a v4 one only in the schema
    // string, keeping historical byte-comparison workflows valid.
    const SweepResult result = SweepEngine(2).run(small_spec());
    ASSERT_TRUE(result.complete());
    for (const std::string& json :
         {to_json(result), to_json(result, /*include_timing=*/false)}) {
        EXPECT_EQ(json.find("\"cells_ok\""), std::string::npos);
        EXPECT_EQ(json.find("\"cells_failed\""), std::string::npos);
        EXPECT_EQ(json.find("\"cells_cancelled\""), std::string::npos);
        EXPECT_EQ(json.find("\"status\""), std::string::npos);
        EXPECT_EQ(json.find("\"error_code\""), std::string::npos);
        // Parsing still reports the counts, derived from the cells.
        const SweepResult parsed = from_json(json);
        EXPECT_EQ(parsed.cells_ok, result.cells.size());
        EXPECT_TRUE(parsed.complete());
    }
}

TEST(SweepSpec, ParseSerializeRoundTrip) {
    const char* text =
        "# Fig. 8 style sweep\n"
        "kernels = crc32, fibcall\n"
        "policies = static, lut, genie\n"
        "generators = ideal, taps:8, pll:1300/1500:4\n"
        "voltages = 0.7, 0.8\n"
        "variant = conventional\n"
        "guard_ps = 30\n"
        "min_occurrences = 5\n"
        "jobs = 3\n";
    const SweepSpec spec = SweepSpec::parse(text);
    EXPECT_EQ(spec.kernels.size(), 2u);
    EXPECT_EQ(spec.policies.size(), 3u);
    ASSERT_EQ(spec.generators.size(), 3u);
    EXPECT_EQ(spec.generators[2].label(), "pll:1300/1500:4");
    EXPECT_EQ(spec.voltages_v.size(), 2u);
    EXPECT_EQ(spec.variant, timing::DesignVariant::kConventional);
    EXPECT_DOUBLE_EQ(spec.lut_guard_ps, 30.0);
    EXPECT_EQ(spec.min_occurrences, 5);
    EXPECT_EQ(spec.jobs, 3);
    EXPECT_EQ(spec.cell_count(), 2u * 3u * 3u * 2u);

    // serialize -> parse -> serialize is a fixed point.
    const std::string serialized = spec.serialize();
    EXPECT_EQ(SweepSpec::parse(serialized).serialize(), serialized);
}

TEST(SweepSpec, RejectsBadInput) {
    EXPECT_THROW(SweepSpec::parse("nonsense\n"), Error);
    EXPECT_THROW(SweepSpec::parse("policies = warp-drive\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = taps:1\n"), Error);
    EXPECT_THROW(GeneratorSpec::parse("pll:"), Error);
    EXPECT_THROW(SweepSpec::parse("jobs = -2\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 0.7, oops\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 0.7 0.8\n"), Error);  // missing comma
    EXPECT_THROW(SweepSpec::parse("guard_ps = many\n"), Error);
    EXPECT_THROW(SweepSpec::parse("variant = quantum\n"), Error);
    EXPECT_THROW(SweepSpec::parse("min_occurrences = -3\n"), Error);
    // Non-physical or unbounded values: rejected at parse time, before any
    // build or allocation.
    EXPECT_THROW(SweepSpec::parse("voltages = nan\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = -1\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 1e308\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 0.49\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 0.91\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = taps:2000000000\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = pll:0/0:0\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = pll:1300/inf:4\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = pll:nan:4\n"), Error);
    EXPECT_THROW(SweepSpec::parse("policies = dual-cycle:inf\n"), Error);
    // A guard band outside [0, 1000] ps, or not finite, would either run
    // with the default guard or clamp every LUT entry to static.
    EXPECT_THROW(SweepSpec::parse("guard_ps = -5\n"), Error);
    EXPECT_THROW(SweepSpec::parse("guard_ps = nan\n"), Error);
    EXPECT_THROW(SweepSpec::parse("guard_ps = inf\n"), Error);
    EXPECT_THROW(SweepSpec::parse("guard_ps = 1e300\n"), Error);
    // Integers must fit their int field instead of wrapping on the cast.
    EXPECT_THROW(SweepSpec::parse("min_occurrences = 99999999999\n"), Error);
    EXPECT_THROW(SweepSpec::parse("jobs = 4294967297\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = pll:1300/1500:99999999999\n"), Error);
    std::string many_sources = "generators = pll:1000";
    for (int i = 1; i <= 64; ++i) many_sources.append("/").append(std::to_string(1000 + i));
    EXPECT_THROW(SweepSpec::parse(many_sources + ":4\n"), Error);  // 65 sources
    // A repeated axis entry would only evaluate copies of the same cells,
    // also when spelled differently (the policy's default parameter, the
    // generator's canonical label, an equal voltage) or split over lines.
    EXPECT_THROW(SweepSpec::parse("kernels = fibcall, fibcall\n"), Error);
    EXPECT_THROW(SweepSpec::parse("kernels = crc32\nkernels = crc32\n"), Error);
    EXPECT_EQ(SweepSpec::parse("kernels = crc32\nkernels = fibcall\n").kernels,
              (std::vector<std::string>{"crc32", "fibcall"}));
    EXPECT_THROW(SweepSpec::parse("policies = lut, lut\n"), Error);
    EXPECT_THROW(SweepSpec::parse("policies = approx-lut, approx-lut:0.9\n"), Error);
    EXPECT_THROW(SweepSpec::parse("policies = lut\npolicies = lut\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = taps:8, taps:8\n"), Error);
    EXPECT_THROW(SweepSpec::parse("generators = pll:1300/1500:4, pll:1300.0/1500:4\n"), Error);
    EXPECT_THROW(SweepSpec::parse("voltages = 0.7, 0.70\n"), Error);
    EXPECT_EQ(SweepSpec::parse("policies = approx-lut, approx-lut:0.8\n").policies.size(), 2u);
    // The CLI's --voltage goes through the same check.
    EXPECT_THROW(parse_voltage("5"), Error);
    EXPECT_THROW(parse_voltage("0.2"), Error);
    EXPECT_THROW(parse_voltage("nan"), Error);
    EXPECT_THROW(parse_voltage("0.7V"), Error);
    // The end points of every range stay valid.
    EXPECT_EQ(parse_voltage("0.5"), 0.5);
    EXPECT_EQ(SweepSpec::parse("voltages = 0.5, 0.9\n").voltages_v.size(), 2u);
    EXPECT_DOUBLE_EQ(SweepSpec::parse("guard_ps = 0\n").lut_guard_ps, 0.0);
    EXPECT_DOUBLE_EQ(SweepSpec::parse("guard_ps = 1000\n").lut_guard_ps, 1000.0);
    EXPECT_EQ(SweepSpec::parse("jobs = 2147483647\n").jobs, 2147483647);
}

TEST(SweepSpec, ResolvedFillsDefaults) {
    const SweepSpec resolved = SweepSpec{}.resolved();
    EXPECT_FALSE(resolved.kernels.empty());
    ASSERT_EQ(resolved.policies.size(), 1u);
    EXPECT_EQ(resolved.policies[0], core::PolicyKind::kInstructionLut);
    ASSERT_EQ(resolved.generators.size(), 1u);
    EXPECT_EQ(resolved.generators[0].label(), "ideal");
    ASSERT_EQ(resolved.voltages_v.size(), 1u);
    EXPECT_DOUBLE_EQ(resolved.voltages_v[0], timing::DesignConfig{}.voltage_v);
}

TEST(ArtifactCache, DelayTableMatchesOfflineFlowByteForByte) {
    // The sweep runtime characterizes through the cache (the batched engine
    // at the nominal point, then a scaled view); the offline oracle must
    // serialize the exact same table.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const dta::DelayTable cached = cache.delay_table(design, analyzer_config).get();

    const core::CharacterizationFlow flow(design, analyzer_config);
    const auto programs = workloads::assemble_programs(workloads::characterization_suite());
    EXPECT_EQ(cached.serialize(), flow.run_offline(programs).table.serialize());
}

TEST(ArtifactCache, RejectsStaticPeriodOverride) {
    // The scaled views rest on a pure delay-scale relation that an explicit
    // static period breaks (and the cache key omits), so the request is
    // refused before any builder is elected.
    ArtifactCache cache;
    dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    for (const double static_period_ps : {1500.0, std::nan("")}) {
        analyzer_config.static_period_ps = static_period_ps;
        EXPECT_THROW(cache.delay_table(timing::DesignConfig{}, analyzer_config), Error);
    }
    EXPECT_EQ(cache.class_counters(ArtifactClass::kDelayTable).miss, 0u);
    EXPECT_EQ(cache.nominal_passes(), 0u);
}

TEST(ArtifactCache, NominalFlowIsTimedInItsOwnHistogram) {
    // build_ms times each per-voltage build once, a nested nominal flow
    // included (as the trace's includes its program); the flow itself lands
    // in nominal_build_ms alone, so no flow is counted twice.
    ArtifactCache cache;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const auto samples = [&](const char* name) -> std::uint64_t {
        const obs::MetricsSnapshot snapshot = cache.metrics_snapshot();
        const obs::MetricsSnapshot::Histogram* histogram = snapshot.find_histogram(name);
        return histogram == nullptr ? 0 : histogram->count;
    };
    timing::DesignConfig design;
    cache.delay_table(design, analyzer_config).get();
    EXPECT_EQ(samples("cache.delay_table.build_ms"), 1u);
    EXPECT_EQ(samples("cache.delay_table.nominal_build_ms"), 1u);
    design.voltage_v = 0.8;
    cache.delay_table(design, analyzer_config).get();
    EXPECT_EQ(samples("cache.delay_table.build_ms"), 2u);
    EXPECT_EQ(samples("cache.delay_table.nominal_build_ms"), 1u);
}

TEST(ArtifactCache, ProgramsAreSharedAndCounted) {
    ArtifactCache cache;
    const auto first = cache.program("crc32");
    const auto second = cache.program("crc32");
    EXPECT_EQ(&first.get(), &second.get());  // same shared state
    EXPECT_EQ(cache.cache_hits(), 1u);
    EXPECT_THROW(cache.program("no-such-kernel").get(), Error);
}

TEST(ArtifactCache, RetriesFailedBuildInPlace) {
    FOCS_REQUIRE_FAULT_POINTS();
    // One injected failure on the first build attempt: the elected builder
    // retries in place and succeeds, without eviction or re-election.
    const GlobalFaultGuard guard("build.program:1:max=1");
    ArtifactCache cache;
    EXPECT_NO_THROW(cache.program("crc32").get());
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kProgram);
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.evicted, 0u);
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, 1u);
    // The recovered artifact is served like any healthy one.
    EXPECT_NO_THROW(cache.program("crc32").get());
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).built, 1u);
}

TEST(ArtifactCache, EvictsPoisonedEntryAndReelectsBuilderExactlyOnce) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Terminal failure (both in-place attempts fail): the classified error
    // reaches every waiter through the shared future, the entry is evicted,
    // and the *next* requester re-elects a builder — exactly one more
    // election, even with six threads hammering the same key.
    const GlobalFaultGuard guard("build.delay_table:1:max=2");
    ArtifactCache cache;  // max_build_attempts = 2
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    std::atomic<int> failures_seen{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&] {
            for (int tries = 0; tries < 1000; ++tries) {
                try {
                    cache.delay_table(design, analyzer_config).get();
                    return;
                } catch (const Error& e) {
                    EXPECT_EQ(e.code(), ErrorCode::kArtifactBuild);
                    EXPECT_NE(std::string(e.what()).find("artifact build failed"),
                              std::string::npos);
                    failures_seen.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::yield();
                }
            }
            ADD_FAILURE() << "delay table was never rebuilt after eviction";
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_GE(failures_seen.load(), 1);
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 1u);    // the post-eviction election succeeded
    EXPECT_EQ(stats.failed, 2u);   // attempts 0 and 1 of the first election
    EXPECT_EQ(stats.retried, 1u);  // one bounded in-place retry
    EXPECT_EQ(stats.evicted, 1u);  // exactly one poisoned entry removed
    // Two builder elections in total: the poisoned one and its replacement.
    EXPECT_EQ(cache.class_counters(ArtifactClass::kDelayTable).miss, 2u);
    EXPECT_EQ(cache.nominal_passes(), 1u);
}

TEST(ArtifactCache, CancelledBuildEvictsWithoutRetryAndRebuildsClean) {
    // A fired CancellationToken fails the build with the cancellation code;
    // cancellation is terminal (no in-place retry burned), the entry is
    // evicted, and a later request without the token rebuilds.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const CancellationToken expired = CancellationToken::with_deadline_ms(0);
    try {
        cache.delay_table(design, analyzer_config, 1, &expired).get();
        FAIL() << "cancelled build did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kDeadline);
        EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
    }
    ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 0u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retried, 0u);  // cancellation is never retried
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_NO_THROW(cache.delay_table(design, analyzer_config).get());
    stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(cache.nominal_passes(), 1u);
}

TEST(ArtifactCacheLru, EvictsLeastRecentlyUsedFirst) {
    // Three programs built unbounded, then a budget that holds only two:
    // the least recently *used* entry goes, and a touch (cache hit)
    // refreshes recency — so after touching the oldest entry, the middle
    // one is the victim.
    ArtifactCache cache;
    cache.program("crc32").get();
    const std::uint64_t bytes_crc32 = cache.cached_bytes();
    cache.program("fibcall").get();
    cache.program("bitcount").get();
    const std::uint64_t total = cache.cached_bytes();
    EXPECT_GT(total, bytes_crc32);

    cache.program("crc32").get();  // touch: crc32 becomes most recent
    cache.set_byte_budget(total - 1);
    EXPECT_EQ(cache.lru_evictions(), 1u);
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).evicted_lru, 1u);
    EXPECT_LE(cache.cached_bytes(), total - 1);

    // crc32 and bitcount survived (hits); fibcall was the victim and
    // re-elects a builder (a fresh miss).
    const std::uint64_t misses_before = cache.class_counters(ArtifactClass::kProgram).miss;
    cache.program("crc32").get();
    cache.program("bitcount").get();
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before);
    cache.program("fibcall").get();
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before + 1);
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).built, 4u);
}

TEST(ArtifactCacheLru, OverBudgetSingleArtifactIsAdmittedThenEvictedByTheNext) {
    // A budget smaller than any single artifact: the freshly built entry is
    // admitted anyway (the build already paid for it) and stays until the
    // next completion pushes it off the back of the LRU list.
    ArtifactCache cache;
    cache.set_byte_budget(1);
    cache.program("crc32").get();
    EXPECT_EQ(cache.lru_evictions(), 0u);
    EXPECT_GT(cache.cached_bytes(), 1u);  // resident although over budget

    cache.program("fibcall").get();
    EXPECT_EQ(cache.lru_evictions(), 1u);  // crc32 made way
    const std::uint64_t misses_before = cache.class_counters(ArtifactClass::kProgram).miss;
    cache.program("fibcall").get();  // newest entry still resident
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before);
}

TEST(ArtifactCacheLru, ByteAccountingIsExactAcrossEvictRebuildCycles) {
    // estimated_bytes is deterministic, so evict + rebuild must return the
    // accounting to the exact same figure, cycle after cycle.
    ArtifactCache cache;
    cache.program("crc32").get();
    const std::uint64_t bytes_crc32 = cache.cached_bytes();
    cache.program("fibcall").get();
    const std::uint64_t total = cache.cached_bytes();

    EXPECT_GT(bytes_crc32, 0u);
    for (int cycle = 0; cycle < 3; ++cycle) {
        cache.set_byte_budget(total - 1);  // evict exactly one (the LRU front)
        cache.set_byte_budget(0);          // disarm so the rebuild sticks
        cache.program("crc32").get();
        cache.program("fibcall").get();
        EXPECT_EQ(cache.cached_bytes(), total) << "cycle " << cycle;
    }
    EXPECT_EQ(cache.lru_evictions(), 3u);
}

TEST(ArtifactCacheLru, EvictedCounterRoundTripsThroughMetricsSnapshot) {
    ArtifactCache cache;
    cache.program("crc32").get();
    cache.program("fibcall").get();
    cache.set_byte_budget(1);  // evicts all but the newest
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kProgram);
    EXPECT_EQ(stats.evicted_lru, 1u);
    const obs::MetricsSnapshot snapshot = cache.metrics_snapshot();
    EXPECT_EQ(snapshot.counter_value("cache.program.evicted_lru"), stats.evicted_lru);
    EXPECT_EQ(snapshot.counter_value("cache.trace.evicted_lru"), 0u);
}

TEST(ArtifactCacheLru, NominalTableOutlivesTraceChurnWhileItsViewsAreServed) {
    // Under a budget of about one trace, three kernels' traces churn
    // through the LRU while two per-voltage tables keep being served. Each
    // served view refreshes its ~7 KB nominal source, so a third operating
    // point is one more scaled view, not a second characterization.
    const std::vector<std::string> kernels = {"crc32", "fibcall", "bitcount"};
    std::uint64_t largest = 0;
    {
        ArtifactCache sizing;
        for (const auto& kernel : kernels) {
            const std::uint64_t before = sizing.cached_bytes();
            sizing.trace(kernel).get();
            largest = std::max(largest, sizing.cached_bytes() - before);
        }
    }
    ArtifactCache cache;
    cache.set_byte_budget(largest + 256 * 1024);
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const auto table_at = [&](double voltage) {
        timing::DesignConfig design;
        design.voltage_v = voltage;
        cache.delay_table(design, analyzer_config).get();
    };
    table_at(0.6);
    table_at(0.8);
    for (int round = 0; round < 3; ++round) {
        for (const auto& kernel : kernels) {
            cache.trace(kernel).get();
            table_at(0.6);
            table_at(0.8);
        }
    }
    EXPECT_GT(cache.build_stats(ArtifactClass::kTrace).evicted_lru, 0u);
    table_at(0.75);
    EXPECT_EQ(cache.nominal_passes(), 1u);
    EXPECT_EQ(cache.scaled_views(), 3u);
    EXPECT_EQ(cache.class_counters(ArtifactClass::kDelayTable).miss, 3u);
}

TEST(ArtifactCacheLru, ReRecordedTraceIsExactlySizedAndIdentical) {
    // An evicted trace leaves its cycle count behind, and its re-record
    // reserves exactly that: no growth copies, charged its real size, and
    // the same run as the first recording.
    ArtifactCache cache;
    const auto first = cache.trace("crc32");
    first.get();
    cache.set_byte_budget(1);        // evicts the program; the newest entry stays
    cache.program("fibcall").get();  // the next completion evicts the trace
    ASSERT_EQ(cache.build_stats(ArtifactClass::kTrace).evicted_lru, 1u);
    cache.set_byte_budget(0);
    const auto again = cache.trace("crc32");
    const sim::PipelineTrace& rebuilt = again.get();
    EXPECT_EQ(cache.traces_recorded(), 2u);

    const std::size_t cycles = rebuilt.records.size();
    EXPECT_EQ(rebuilt.records.capacity(), cycles);
    for (const auto& row : rebuilt.stage_keys) EXPECT_EQ(row.capacity(), cycles);
    EXPECT_EQ(rebuilt.estimated_bytes(),
              sizeof(sim::PipelineTrace) +
                  cycles * (sizeof(sim::CycleRecord) + sim::kStageCount * sizeof(dta::OccKey)));
    EXPECT_LT(rebuilt.estimated_bytes(), first.get().estimated_bytes());
    EXPECT_EQ(test::trace_difference(rebuilt, first.get()), "");
}

TEST(ArtifactCacheLru, PreseededTableReplacementKeepsAccountingStable) {
    // put_delay_table twice under the same key must not double-account: the
    // replaced entry is unlinked before the replacement is accounted.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    cache.put_delay_table(design, analyzer_config, dta::DelayTable(900));
    const std::uint64_t bytes = cache.cached_bytes();
    EXPECT_GT(bytes, 0u);
    cache.put_delay_table(design, analyzer_config, dta::DelayTable(901));
    EXPECT_EQ(cache.cached_bytes(), bytes);
    EXPECT_DOUBLE_EQ(cache.delay_table(design, analyzer_config).get().static_period_ps(), 901);
}

TEST(ArtifactCacheLru, ConcurrentBudgetedLoadServesEveryRequest) {
    // TSan-facing: many threads hammer a budgeted cache across every
    // artifact class while LRU eviction churns underneath. Every .get()
    // must succeed (consumers hold shared_future copies, in-flight entries
    // are pinned), and the accounting must be consistent at quiesce.
    const std::vector<std::string> kernels = {"crc32", "fibcall", "bitcount",
                                              "isqrt", "prime",   "bsearch"};
    // Size the budget off real artifact footprints: roomy enough to hold
    // the largest single artifact (so the quiesced set always fits), tight
    // enough to force steady eviction.
    std::uint64_t largest = 0;
    {
        ArtifactCache sizing;
        for (const auto& kernel : kernels) {
            for (const bool with_trace : {false, true}) {
                const std::uint64_t before = sizing.cached_bytes();
                if (with_trace) {
                    sizing.trace(kernel).get();
                } else {
                    sizing.program(kernel).get();
                }
                const std::uint64_t size = sizing.cached_bytes() - before;
                if (size > largest) largest = size;
            }
        }
    }
    const std::uint64_t budget = largest + largest / 2;
    ArtifactCache cache;
    cache.set_byte_budget(budget);
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 8; ++round) {
                const auto& kernel = kernels[static_cast<std::size_t>((t + round) %
                                                                     static_cast<int>(
                                                                         kernels.size()))];
                EXPECT_NO_THROW(cache.program(kernel).get());
                EXPECT_NO_THROW(cache.trace(kernel).get());
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_LE(cache.cached_bytes(), budget);
    const ArtifactBuildStats programs = cache.build_stats(ArtifactClass::kProgram);
    const ArtifactBuildStats traces = cache.build_stats(ArtifactClass::kTrace);
    // Builds = initial misses + one rebuild per eviction that was
    // re-requested; eviction count can never exceed completed builds.
    EXPECT_GE(programs.built, kernels.size());
    EXPECT_LE(programs.evicted_lru + traces.evicted_lru, programs.built + traces.built);
    EXPECT_GT(cache.lru_evictions(), 0u);
}

TEST(ArtifactCacheLru, BudgetedSweepProducesByteIdenticalResults) {
    // A sweep over a budget-starved shared cache rebuilds artifacts it
    // would otherwise reuse — the canonical result document must not
    // notice.
    const SweepEngine unbounded(2);
    const SweepResult reference = unbounded.run(small_spec());

    auto cache = std::make_shared<ArtifactCache>();
    cache->set_byte_budget(64 * 1024);  // well under one trace's footprint
    const SweepEngine budgeted(2, cache);
    const SweepResult result = budgeted.run(small_spec());
    EXPECT_EQ(to_json(result, /*include_timing=*/false),
              to_json(reference, /*include_timing=*/false));
}

TEST(ArtifactCacheLru, BudgetedSweepBuildsEachTraceOnceWhenTwoFit) {
    // small_spec's three traces are ~6.7 MB each. A budget that holds two
    // of them (plus the small artifacts) but not three evicts a kernel's
    // trace only once its columns are done with it, so each trace and unit
    // array is built once at every job count. Fetching every kernel's
    // artifacts ahead of its columns would pin all three traces past the
    // budget, and the sibling cells of an evicted kernel would rebuild.
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        auto cache = std::make_shared<ArtifactCache>();
        cache->set_byte_budget(14 * 1024 * 1024);
        const SweepEngine engine(jobs, cache, EvalMode::kReplay);
        const SweepResult result = engine.run(small_spec());
        EXPECT_EQ(result.cells_ok, 12u);
        EXPECT_EQ(result.metrics.delay_table.miss, 1u);
        EXPECT_EQ(result.metrics.trace.miss, 3u);
        EXPECT_EQ(result.metrics.unit_delays.miss, 3u);
        EXPECT_GT(cache->lru_evictions(), 0u);
    }
}

}  // namespace
}  // namespace focs::runtime
