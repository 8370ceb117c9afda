// Architectural equivalence: the pipelined model and the golden-reference
// sequential interpreter must agree on every architecturally visible
// outcome — registers, flag, data memory, report stream, exit code and
// retired instruction count — for every bundled kernel and a sweep of
// randomly generated programs.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "sim/machine.hpp"
#include "sim/reference_iss.hpp"
#include "workloads/kernel.hpp"
#include "workloads/testgen.hpp"

namespace focs::sim {
namespace {

struct ArchState {
    std::array<std::uint32_t, 32> regs{};
    bool flag = false;
    std::vector<std::uint8_t> dmem;
    RunResult result;
};

ArchState run_pipeline(const assembler::Program& program) {
    Machine machine;
    machine.load(program);
    ArchState state;
    state.result = machine.run();
    for (int r = 0; r < 32; ++r) {
        state.regs[static_cast<std::size_t>(r)] =
            machine.pipeline().registers().read(static_cast<std::uint8_t>(r));
    }
    state.flag = machine.pipeline().flag();
    state.dmem.reserve(machine.dmem().size());
    for (std::uint32_t i = 0; i < machine.dmem().size(); ++i) {
        state.dmem.push_back(machine.dmem().read_u8(machine.dmem().base() + i));
    }
    return state;
}

ArchState run_reference(const assembler::Program& program) {
    MachineConfig config;
    Sram imem("imem", 0, config.imem_size);
    Sram dmem("dmem", config.dmem_base, config.dmem_size);
    for (const auto& segment : program.segments()) {
        for (std::size_t i = 0; i < segment.bytes.size(); ++i) {
            const auto addr = static_cast<std::uint32_t>(segment.base + i);
            (addr < config.dmem_base ? imem : dmem).write_u8(addr, segment.bytes[i]);
        }
    }
    ReferenceIss iss(imem, dmem);
    iss.reset(program.entry());
    ArchState state;
    state.result = iss.run();
    for (int r = 0; r < 32; ++r) {
        state.regs[static_cast<std::size_t>(r)] =
            iss.registers().read(static_cast<std::uint8_t>(r));
    }
    state.flag = iss.flag();
    state.dmem.reserve(dmem.size());
    for (std::uint32_t i = 0; i < dmem.size(); ++i) {
        state.dmem.push_back(dmem.read_u8(dmem.base() + i));
    }
    return state;
}

void expect_equivalent(const assembler::Program& program, const std::string& label) {
    const ArchState pipe = run_pipeline(program);
    const ArchState ref = run_reference(program);
    EXPECT_EQ(pipe.result.exit_code, ref.result.exit_code) << label;
    EXPECT_EQ(pipe.result.reports, ref.result.reports) << label;
    EXPECT_EQ(pipe.result.instructions, ref.result.instructions)
        << label << ": retired instruction counts differ";
    EXPECT_EQ(pipe.regs, ref.regs) << label;
    EXPECT_EQ(pipe.flag, ref.flag) << label;
    EXPECT_EQ(pipe.dmem, ref.dmem) << label << ": data memory differs";
}

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, PipelineMatchesReference) {
    const auto& kernel = workloads::benchmark_suite()[static_cast<std::size_t>(GetParam())];
    expect_equivalent(assembler::assemble(kernel.source), kernel.name);
}

std::vector<int> kernel_indices() {
    std::vector<int> v(workloads::benchmark_suite().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
    return v;
}

INSTANTIATE_TEST_SUITE_P(Suite, KernelEquivalence, ::testing::ValuesIn(kernel_indices()),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return workloads::benchmark_suite()[static_cast<std::size_t>(
                                                                     info.param)]
                                 .name;
                         });

class RandomProgramEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramEquivalence, PipelineMatchesReference) {
    workloads::TestGenConfig config;
    config.seed = GetParam();
    config.instruction_count = 900;
    const auto kernel = workloads::generate_random_kernel(config);
    expect_equivalent(assembler::assemble(kernel.source), kernel.name);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

TEST(ReferenceIss, FaultsMatchPipelineSemantics) {
    // Control transfer in a delay slot faults in both models.
    const auto program = assembler::assemble(R"(
_start:
  l.j a
  l.j b
a:
b:
  l.nop 0x1
)");
    EXPECT_THROW(run_reference(program), GuestError);
    EXPECT_THROW(run_pipeline(program), GuestError);
}

TEST(ReferenceIss, StepLimitGuardsInfiniteLoops) {
    MachineConfig config;
    Sram imem("imem", 0, config.imem_size);
    Sram dmem("dmem", config.dmem_base, config.dmem_size);
    const auto program = assembler::assemble("_start:\nspin:\n  l.j spin\n  l.nop\n");
    for (const auto& segment : program.segments()) imem.write_block(segment.base, segment.bytes);
    ReferenceIss iss(imem, dmem);
    iss.reset(0);
    EXPECT_THROW(iss.run(1000), GuestError);
}

}  // namespace
}  // namespace focs::sim
