// Shared helpers for tests: assemble-and-run convenience wrappers.
#pragma once

#include <string>

#include "asm/assembler.hpp"
#include "sim/machine.hpp"
#include "sim/trace_recorder.hpp"

namespace focs::test {

struct RunOutcome {
    sim::RunResult result;
    std::array<std::uint32_t, 32> registers{};
    bool flag = false;
};

/// Assembles `source`, runs it to completion and captures final state.
inline RunOutcome run_asm(const std::string& source, sim::MachineConfig config = {}) {
    sim::Machine machine(config);
    machine.load(assembler::assemble(source));
    RunOutcome outcome;
    outcome.result = machine.run();
    for (int r = 0; r < 32; ++r) {
        outcome.registers[static_cast<std::size_t>(r)] =
            machine.pipeline().registers().read(static_cast<std::uint8_t>(r));
    }
    outcome.flag = machine.pipeline().flag();
    return outcome;
}

/// Field-wise equality of two cycle records (CycleRecord has no operator==).
inline bool same_record(const sim::CycleRecord& a, const sim::CycleRecord& b) {
    for (std::size_t s = 0; s < a.stages.size(); ++s) {
        const sim::StageView& x = a.stages[s];
        const sim::StageView& y = b.stages[s];
        if (x.valid != y.valid || x.held != y.held || !(x.inst == y.inst) || x.pc != y.pc ||
            x.operand_a != y.operand_a || x.operand_b != y.operand_b || x.result != y.result) {
            return false;
        }
    }
    return a.cycle == b.cycle && a.fetch_redirect == b.fetch_redirect &&
           a.redirect_source == b.redirect_source && a.fetch_addr == b.fetch_addr &&
           a.dmem_access == b.dmem_access && a.dmem_write == b.dmem_write &&
           a.dmem_addr == b.dmem_addr;
}

/// The first difference between two recorded traces (records, stage keys,
/// guest result), or "" when they hold the same run.
inline std::string trace_difference(const sim::PipelineTrace& a, const sim::PipelineTrace& b) {
    if (a.records.size() != b.records.size()) return "record counts differ";
    for (std::size_t c = 0; c < a.records.size(); ++c) {
        if (!same_record(a.records[c], b.records[c])) return "record " + std::to_string(c);
    }
    if (a.stage_keys != b.stage_keys) return "stage keys differ";
    if (a.guest.exit_code != b.guest.exit_code || a.guest.cycles != b.guest.cycles ||
        a.guest.instructions != b.guest.instructions || a.guest.reports != b.guest.reports) {
        return "guest results differ";
    }
    return "";
}

/// Standard epilogue (exit 0 + pipeline-drain padding).
inline const char* exit_seq() {
    return "  l.nop 0x1\n  l.nop\n  l.nop\n  l.nop\n  l.nop\n";
}

}  // namespace focs::test
