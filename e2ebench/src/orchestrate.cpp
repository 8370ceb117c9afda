#include "orchestrate.hpp"

#include <optional>
#include <utility>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "core/flows.hpp"
#include "core/replay_engine.hpp"
#include "timing/cell_library.hpp"
#include "timing/delay_model.hpp"
#include "workloads/kernel.hpp"

namespace e2ebench {

namespace fr = focs::runtime;

const focs::dta::DelayTable& TracedSweep::table_for(const focs::timing::DesignConfig& design) {
    if (const auto it = tables_.find(design.voltage_v); it != tables_.end()) return it->second;
    if (nominal_ == nullptr) {
        {
            auto span = trace_.span("asm.assemble");
            characterization_programs_ =
                focs::workloads::assemble_programs(focs::workloads::characterization_suite());
        }
        focs::timing::DesignConfig nominal_design = design;
        nominal_design.voltage_v = focs::timing::kNominalVoltageV;
        // At 1 job the engine hands the flow one thread
        // (worker_count / operating points, clamped to >= 1).
        focs::core::CharacterizationOptions options;
        options.threads = 1;
        auto span = trace_.span("dta.characterize");
        const focs::core::CharacterizationFlow flow(nominal_design, analyzer_config_);
        focs::core::CharacterizationResult result = flow.run(characterization_programs_, options);
        counts_.characterize_cycles += result.cycles;
        nominal_ = std::make_shared<const focs::dta::DelayTable>(std::move(result.table));
    }
    auto span = trace_.span("dta.scale_table");
    const double factor = focs::timing::CellLibrary::fdsoi28().delay_scale(design.voltage_v);
    return tables_.emplace(design.voltage_v, nominal_->scaled(factor)).first->second;
}

const focs::sim::PipelineTrace& TracedSweep::trace_for(const std::string& kernel) {
    if (const auto it = traces_.find(kernel); it != traces_.end()) return it->second;
    focs::assembler::Program program;
    {
        auto span = trace_.span("asm.assemble");
        program = focs::assembler::assemble(focs::workloads::find_kernel(kernel).source);
    }
    auto span = trace_.span("sim.record_trace");
    const auto& trace = traces_.emplace(kernel, focs::sim::record_trace(program)).first->second;
    counts_.trace_cycles += trace.cycles();
    counts_.trace_bytes += trace.estimated_bytes();
    return trace;
}

const std::shared_ptr<const focs::timing::UnitTraceDelays>& TracedSweep::unit_for(
    const std::string& kernel, const focs::timing::DesignConfig& design) {
    if (const auto it = units_.find(kernel); it != units_.end()) return it->second;
    const focs::sim::PipelineTrace& trace = trace_for(kernel);
    auto span = trace_.span("timing.unit_delays");
    const focs::timing::DelayCalculator calculator(design);
    auto unit = std::make_shared<const focs::timing::UnitTraceDelays>(
        focs::timing::compute_unit_trace_delays(calculator, trace.records));
    counts_.unit_delays_bytes += unit->estimated_bytes();
    return units_.emplace(kernel, std::move(unit)).first->second;
}

std::vector<focs::core::DcaRunResult> TracedSweep::replay(const Column& column) {
    const focs::sim::PipelineTrace& trace = traces_.at(column.kernel);
    const focs::dta::DelayTable& table = tables_.at(column.design.voltage_v);
    const focs::timing::DelayCalculator calculator(column.design);
    focs::timing::ScaledTraceDelays delays;
    {
        auto span = trace_.span("timing.scale_view");
        delays = focs::timing::scale_trace_delays(units_.at(column.kernel), calculator);
    }
    std::vector<std::unique_ptr<focs::clocking::ClockGenerator>> owned;
    std::vector<focs::clocking::ClockGenerator*> variants;
    for (const fr::GeneratorSpec* generator : column.generators) {
        owned.push_back(generator->instantiate(delays.static_period_ps));
        variants.push_back(generator->kind == fr::GeneratorSpec::Kind::kIdeal ? nullptr
                                                                                : owned.back().get());
    }
    std::optional<focs::core::ReplayEvaluationEngine> engine;
    {
        auto span = trace_.span("core.replay_setup");
        engine.emplace(trace, delays, table);
    }
    auto span = trace_.span("core.replay_fused");
    counts_.replay_variant_cycles += trace.cycles() * variants.size();
    // SweepEngine fuses a column only when the grid has several generators;
    // single-generator grids take the per-cell run().
    if (spec_.generators.size() == 1) return {engine->run(column.policy, variants.front())};
    return engine->run_fused(column.policy, variants);
}

fr::SweepResult TracedSweep::run(const fr::SweepSpec& raw_spec) {
    const Clock::time_point start = Clock::now();
    auto sweep_span = trace_.span("bench.traced_sweep");
    counts_ = {};
    columns_.clear();
    characterization_programs_.clear();
    nominal_.reset();
    tables_.clear();
    traces_.clear();
    units_.clear();
    spec_ = raw_spec.resolved();
    analyzer_config_ = fr::SweepEngine::analyzer_config_for(spec_);

    // SweepEngine's expansion: voltage-major, then kernel, policy, and the
    // generators of one column adjacent.
    for (const double voltage : spec_.voltages_v) {
        for (const auto& kernel : spec_.kernels) {
            for (const auto& policy : spec_.policies) {
                Column column{kernel, policy, spec_.design_for(voltage), {}};
                for (const auto& generator : spec_.generators) {
                    column.generators.push_back(&generator);
                }
                columns_.push_back(std::move(column));
            }
        }
    }

    fr::SweepResult result;
    result.jobs = 1;
    result.mode = fr::eval_mode_name(fr::EvalMode::kReplay);
    result.spec_text = spec_.serialize();
    result.spec_hash = fr::stable_text_hash(result.spec_text);
    for (const Column& column : columns_) {
        table_for(column.design);
        trace_for(column.kernel);
        unit_for(column.kernel, column.design);
        std::vector<focs::core::DcaRunResult> runs = replay(column);
        for (std::size_t k = 0; k < runs.size(); ++k) {
            fr::SweepCell cell;
            cell.kernel = column.kernel;
            cell.policy = column.policy.label();
            cell.generator = column.generators[k]->label();
            cell.voltage_v = column.design.voltage_v;
            cell.result = std::move(runs[k]);
            result.cells.push_back(std::move(cell));
        }
    }

    // Aggregates in SweepEngine's order (cell order), so the sums round
    // identically.
    for (const fr::SweepCell& cell : result.cells) {
        ++result.cells_ok;
        result.mean_eff_freq_mhz += cell.result.eff_freq_mhz;
        result.mean_speedup += cell.result.speedup_vs_static;
        result.total_violations += cell.result.timing_violations;
    }
    if (result.cells_ok > 0) {
        result.mean_eff_freq_mhz /= static_cast<double>(result.cells_ok);
        result.mean_speedup /= static_cast<double>(result.cells_ok);
    }
    result.wall_ms = ms_between(start, Clock::now());
    return result;
}

FamilySplit TracedSweep::split_families() {
    auto split_span = trace_.span("bench.family_split");
    const Clock::time_point since = Clock::now();
    using Kind = fr::GeneratorSpec::Kind;
    const std::pair<Kind, const char*> families[] = {{Kind::kIdeal, "core.replay_ideal"},
                                                     {Kind::kQuantized, "core.replay_taps"},
                                                     {Kind::kPllBank, "core.replay_pll"}};
    for (const Column& column : columns_) {
        const focs::timing::DelayCalculator calculator(column.design);
        const focs::core::ReplayEvaluationEngine engine(
            traces_.at(column.kernel),
            focs::timing::scale_trace_delays(units_.at(column.kernel), calculator),
            tables_.at(column.design.voltage_v));
        for (const auto& [kind, name] : families) {
            std::vector<std::unique_ptr<focs::clocking::ClockGenerator>> owned;
            std::vector<focs::clocking::ClockGenerator*> variants;
            for (const fr::GeneratorSpec* generator : column.generators) {
                if (generator->kind != kind) continue;
                owned.push_back(generator->instantiate(engine.delays().static_period_ps));
                variants.push_back(kind == Kind::kIdeal ? nullptr : owned.back().get());
            }
            if (variants.empty()) continue;
            auto span = trace_.span(name);
            engine.run_fused(column.policy, variants);
        }
    }
    return {trace_.total_ms("core.replay_ideal", since), trace_.total_ms("core.replay_taps", since),
            trace_.total_ms("core.replay_pll", since)};
}

}  // namespace e2ebench
