#include "sim/machine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace focs::sim {

Machine::Machine(MachineConfig config)
    : config_(config),
      imem_("imem", 0, config.imem_size),
      dmem_("dmem", config.dmem_base, config.dmem_size),
      pipeline_(std::make_unique<Pipeline>(imem_, dmem_, config.pipeline)) {
    check(config.imem_size <= config.dmem_base, "instruction SRAM overlaps data SRAM region");
}

void Machine::load(const assembler::Program& program) {
    for (const auto& segment : program.segments()) {
        // A run may straddle dmem_base: its low part is code, the rest data.
        const std::span<const std::uint8_t> bytes = segment.bytes;
        const std::size_t code = segment.base >= config_.dmem_base
                                     ? 0
                                     : std::min<std::uint64_t>(bytes.size(),
                                                               config_.dmem_base - segment.base);
        // write_block throws GuestError for bytes outside either SRAM.
        if (code > 0) imem_.write_block(segment.base, bytes.first(code));
        if (code < bytes.size()) {
            dmem_.write_block(static_cast<std::uint32_t>(segment.base + code), bytes.subspan(code));
        }
    }
    entry_ = program.entry();
    pipeline_->reset(entry_);
}

RunResult Machine::run(PipelineObserver* observer) {
    CycleRecord record;
    while (!pipeline_->exited()) {
        if (pipeline_->cycles() >= config_.max_cycles) {
            throw GuestError("watchdog: guest did not exit within max_cycles");
        }
        pipeline_->step(record);
        if (observer != nullptr) observer->on_cycle(record);
    }
    RunResult result;
    result.exit_code = pipeline_->exit_code();
    result.cycles = pipeline_->cycles();
    result.instructions = pipeline_->retired_instructions();
    result.reports = pipeline_->reports();
    return result;
}

}  // namespace focs::sim
