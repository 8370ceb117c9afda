// Pipeline simulator tests: instruction semantics (architectural results),
// forwarding/hazard behaviour, delay slots, redirect penalties, memory
// system and simulation control.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "test_util.hpp"

namespace focs::sim {
namespace {

using test::exit_seq;
using test::run_asm;

std::uint32_t reg(const test::RunOutcome& o, int r) {
    return o.registers[static_cast<std::size_t>(r)];
}

// ---- ALU semantics (parameterized) ---------------------------------------

struct AluCase {
    const char* name;
    const char* body;          ///< writes result to r11 from r5 (a) and r6 (b)
    std::uint32_t a, b;
    std::uint32_t expected;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, Result) {
    const AluCase& c = GetParam();
    std::string source = "_start:\n";
    source += "  l.li r5, " + std::to_string(c.a) + "\n";
    source += "  l.li r6, " + std::to_string(c.b) + "\n";
    source += std::string(c.body) + "\n";
    source += exit_seq();
    const auto outcome = run_asm(source);
    EXPECT_EQ(reg(outcome, 11), c.expected) << c.name;
}

constexpr AluCase kAluCases[] = {
    {"add", "  l.add r11, r5, r6", 2, 3, 5},
    {"add_wrap", "  l.add r11, r5, r6", 0xffffffffu, 1, 0},
    {"addi_neg", "  l.addi r11, r5, -1", 10, 0, 9},
    {"sub", "  l.sub r11, r5, r6", 3, 10, 0xfffffff9u},
    {"and", "  l.and r11, r5, r6", 0xff00ff00u, 0x0ff00ff0u, 0x0f000f00u},
    {"andi", "  l.andi r11, r5, 0xff00", 0x12345678u, 0, 0x5600u},
    {"or", "  l.or r11, r5, r6", 0xf0f00000u, 0x0000f0f0u, 0xf0f0f0f0u},
    {"ori", "  l.ori r11, r5, 0x00ff", 0x12340000u, 0, 0x123400ffu},
    {"xor", "  l.xor r11, r5, r6", 0xaaaaaaaau, 0xffffffffu, 0x55555555u},
    {"xori_signext", "  l.xori r11, r5, -1", 0x0f0f0f0fu, 0, 0xf0f0f0f0u},
    {"mul", "  l.mul r11, r5, r6", 7, 6, 42},
    {"mul_wrap", "  l.mul r11, r5, r6", 0x10000u, 0x10000u, 0},
    {"mul_signed_low", "  l.mul r11, r5, r6", 0xffffffffu, 5, 0xfffffffbu},
    {"muli", "  l.muli r11, r5, -3", 7, 0, 0xffffffebu},
    {"div", "  l.div r11, r5, r6", 0xffffffe2u, 5, 0xfffffffau},  // -30/5 = -6
    {"div_pos", "  l.div r11, r5, r6", 30, 5, 6},
    {"div_by_zero", "  l.div r11, r5, r6", 30, 0, 0},
    {"divu", "  l.divu r11, r5, r6", 0xffffffffu, 16, 0x0fffffffu},
    {"divu_by_zero", "  l.divu r11, r5, r6", 5, 0, 0},
    {"sll", "  l.sll r11, r5, r6", 1, 31, 0x80000000u},
    {"sll_mask", "  l.sll r11, r5, r6", 1, 33, 2},  // amount masked to 5 bits
    {"slli", "  l.slli r11, r5, 4", 0x0000000fu, 0, 0xf0u},
    {"srl", "  l.srl r11, r5, r6", 0x80000000u, 31, 1},
    {"srli", "  l.srli r11, r5, 8", 0xaabbccddu, 0, 0x00aabbccu},
    {"sra_neg", "  l.sra r11, r5, r6", 0x80000000u, 4, 0xf8000000u},
    {"srai_pos", "  l.srai r11, r5, 4", 0x40000000u, 0, 0x04000000u},
    {"ror", "  l.ror r11, r5, r6", 0x80000001u, 1, 0xc0000000u},
    {"rori", "  l.rori r11, r5, 8", 0x11223344u, 0, 0x44112233u},
    {"rori_zero", "  l.rori r11, r5, 0", 0x12345678u, 0, 0x12345678u},
    {"movhi", "  l.movhi r11, 0xabcd", 0, 0, 0xabcd0000u},
    {"mulu", "  l.mulu r11, r5, r6", 0xffffffffu, 2, 0xfffffffeu},
    {"exths_neg", "  l.exths r11, r5", 0x1234ff80u, 0, 0xffffff80u},
    {"exths_pos", "  l.exths r11, r5", 0xffff7fffu, 0, 0x00007fffu},
    {"extbs", "  l.extbs r11, r5", 0x123456f0u, 0, 0xfffffff0u},
    {"exthz", "  l.exthz r11, r5", 0xabcdef01u, 0, 0x0000ef01u},
    {"extbz", "  l.extbz r11, r5", 0xabcdef81u, 0, 0x00000081u},
    {"extws", "  l.extws r11, r5", 0xdeadbeefu, 0, 0xdeadbeefu},
    {"extwz", "  l.extwz r11, r5", 0xdeadbeefu, 0, 0xdeadbeefu},
    {"ff1_lsb", "  l.ff1 r11, r5", 0x00000001u, 0, 1},
    {"ff1_mid", "  l.ff1 r11, r5", 0x00010000u, 0, 17},
    {"ff1_zero", "  l.ff1 r11, r5", 0, 0, 0},
    {"fl1_msb", "  l.fl1 r11, r5", 0x80000000u, 0, 32},
    {"fl1_mixed", "  l.fl1 r11, r5", 0x00010400u, 0, 17},
    {"fl1_zero", "  l.fl1 r11, r5", 0, 0, 0},
};

TEST(Cmov, SelectsOnFlag) {
    const auto taken = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 11
  l.addi r6, r0, 22
  l.sfeq r0, r0
  l.cmov r11, r5, r6     ; flag true -> rA
  l.sfne r0, r0
  l.cmov r12, r5, r6     ; flag false -> rB
)") + exit_seq());
    EXPECT_EQ(reg(taken, 11), 11u);
    EXPECT_EQ(reg(taken, 12), 22u);
}

TEST(Cmov, UsesForwardedFlag) {
    // The flag producer is immediately ahead of the cmov in the pipeline.
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 7
  l.addi r6, r0, 9
  l.sfgts r6, r5
  l.cmov r11, r6, r5     ; expect max(7, 9) = 9
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 9u);
}

INSTANTIATE_TEST_SUITE_P(Ops, AluSemantics, ::testing::ValuesIn(kAluCases),
                         [](const ::testing::TestParamInfo<AluCase>& info) {
                             return std::string(info.param.name);
                         });

// ---- Set-flag semantics ---------------------------------------------------

struct FlagCase {
    const char* name;
    const char* compare;  ///< full compare instruction using r5, r6
    std::uint32_t a, b;
    bool expected;
};

class FlagSemantics : public ::testing::TestWithParam<FlagCase> {};

TEST_P(FlagSemantics, Flag) {
    const FlagCase& c = GetParam();
    std::string source = "_start:\n";
    source += "  l.li r5, " + std::to_string(c.a) + "\n";
    source += "  l.li r6, " + std::to_string(c.b) + "\n";
    source += std::string(c.compare) + "\n";
    source += exit_seq();
    const auto outcome = run_asm(source);
    EXPECT_EQ(outcome.flag, c.expected) << c.name;
}

constexpr FlagCase kFlagCases[] = {
    {"eq_true", "  l.sfeq r5, r6", 5, 5, true},
    {"eq_false", "  l.sfeq r5, r6", 5, 6, false},
    {"ne_true", "  l.sfne r5, r6", 5, 6, true},
    {"gtu_wraps", "  l.sfgtu r5, r6", 0xffffffffu, 1, true},
    {"gts_signed", "  l.sfgts r5, r6", 0xffffffffu, 1, false},  // -1 > 1 is false
    {"ges_equal", "  l.sfges r5, r6", 7, 7, true},
    {"ltu", "  l.sfltu r5, r6", 1, 0xffffffffu, true},
    {"lts_signed", "  l.sflts r5, r6", 0x80000000u, 0, true},  // INT_MIN < 0
    {"leu_equal", "  l.sfleu r5, r6", 9, 9, true},
    {"les_false", "  l.sfles r5, r6", 3, 0xfffffffeu, false},  // 3 <= -2 false
    {"eqi", "  l.sfeqi r5, -1", 0xffffffffu, 0, true},
    {"gtui_signext", "  l.sfgtui r5, -1", 0xfffffffeu, 0, false},  // imm extends to ffffffff
    {"ltsi", "  l.sfltsi r5, 10", 3, 0, true},
    {"gesi", "  l.sfgesi r5, -5", 0xfffffffcu, 0, true},  // -4 >= -5
};

INSTANTIATE_TEST_SUITE_P(Compares, FlagSemantics, ::testing::ValuesIn(kFlagCases),
                         [](const ::testing::TestParamInfo<FlagCase>& info) {
                             return std::string(info.param.name);
                         });

// ---- Memory semantics -------------------------------------------------------

TEST(Memory, WordRoundTrip) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 0xcafebabe
  l.sw 16(r5), r6
  l.lwz r11, 16(r5)
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 0xcafebabeu);
}

TEST(Memory, ByteAndHalfExtension) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 0x000000f7
  l.sb 3(r5), r6
  l.lbz r11, 3(r5)
  l.lbs r12, 3(r5)
  l.li r6, 0x00008001
  l.sh 8(r5), r6
  l.lhz r13, 8(r5)
  l.lhs r14, 8(r5)
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 0xf7u);
    EXPECT_EQ(reg(o, 12), 0xfffffff7u);
    EXPECT_EQ(reg(o, 13), 0x8001u);
    EXPECT_EQ(reg(o, 14), 0xffff8001u);
}

TEST(Memory, BigEndianByteOrder) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 0x11223344
  l.sw 0(r5), r6
  l.lbz r11, 0(r5)
  l.lbz r12, 3(r5)
  l.lhz r13, 0(r5)
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 0x11u);
    EXPECT_EQ(reg(o, 12), 0x44u);
    EXPECT_EQ(reg(o, 13), 0x1122u);
}

TEST(Memory, MisalignedWordAccessFaults) {
    EXPECT_THROW(run_asm(std::string(R"(
_start:
  l.li r5, 0x00100002
  l.lwz r11, 0(r5)
)") + exit_seq()),
                 GuestError);
}

TEST(Memory, OutOfRangeAccessFaults) {
    EXPECT_THROW(run_asm(std::string(R"(
_start:
  l.li r5, 0x00200000
  l.lwz r11, 0(r5)
)") + exit_seq()),
                 GuestError);
}

TEST(Memory, StoreThenLoadSameAddressBackToBack) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 0x12121212
  l.sw 0(r5), r6
  l.lwz r11, 0(r5)
  l.addi r12, r11, 1
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 0x12121212u);
    EXPECT_EQ(reg(o, 12), 0x12121213u);
}

// ---- Program loading ----------------------------------------------------------

TEST(Loader, OrgGapsAcrossBothSectionsLoadAtTheirAddresses) {
    const auto program = assembler::assemble(R"(
_start:
  l.nop 0x1
.org 0x40
  .word 0xa1a2a3a4
.data
.org 0x00100020
  .byte 0xd1, 0xd2, 0xd3
.org 0x00100008
  .half 0xbeef
)");
    ASSERT_EQ(program.segments().size(), 4u);
    Machine machine;
    machine.load(program);
    // Every stored byte at its address, zeros in the gaps.
    for (std::uint32_t addr = 0; addr < 0x80; ++addr) {
        EXPECT_EQ(machine.imem().read_u8(addr), program.byte_at(addr)) << addr;
    }
    for (std::uint32_t addr = assembler::kDataBase; addr < assembler::kDataBase + 0x40; ++addr) {
        EXPECT_EQ(machine.dmem().read_u8(addr), program.byte_at(addr)) << addr;
    }
    EXPECT_EQ(machine.imem().read_u32(0), 0x15000001u);
    EXPECT_EQ(machine.imem().read_u32(0x3c), 0u);
    EXPECT_EQ(machine.imem().read_u32(0x40), 0xa1a2a3a4u);
    EXPECT_EQ(machine.dmem().read_u16(assembler::kDataBase + 8), 0xbeefu);
    EXPECT_EQ(machine.dmem().read_u32(assembler::kDataBase + 0x20), 0xd1d2d300u);

    // Bytes outside either SRAM are still a guest fault at load time: past
    // the 64 KiB instruction SRAM, straddling its end, past the data SRAM.
    Machine other;
    EXPECT_THROW(other.load(assembler::assemble(".org 0x10000\n  l.nop\n")), GuestError);
    EXPECT_THROW(other.load(assembler::assemble(".org 0xfffe\n  .word 1\n")), GuestError);
    EXPECT_THROW(other.load(assembler::assemble(".data\n.org 0x00110000\n  .word 1\n")),
                 GuestError);
}

// ---- Register file invariants ----------------------------------------------

TEST(RegFile, R0IsHardwiredZero) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r0, r0, 123
  l.add r11, r0, r0
)") + exit_seq());
    EXPECT_EQ(reg(o, 0), 0u);
    EXPECT_EQ(reg(o, 11), 0u);
}

// ---- Forwarding / hazards ----------------------------------------------------

TEST(Hazards, BackToBackAluForwarding) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 1
  l.addi r5, r5, 1
  l.addi r5, r5, 1
  l.addi r5, r5, 1
  l.add r11, r5, r5
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 8u);
}

TEST(Hazards, LoadUseStallProducesCorrectValue) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 41
  l.sw 0(r5), r6
  l.lwz r7, 0(r5)
  l.addi r11, r7, 1   ; immediate consumer of the load
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 42u);
}

TEST(Hazards, LoadUseCostsOneCycle) {
    const std::string prefix = R"(
_start:
  l.li r5, 0x00100000
  l.sw 0(r5), r5
)";
    // Variant A: consumer immediately after the load (one stall bubble).
    const auto a = run_asm(prefix + "  l.lwz r7, 0(r5)\n  l.addi r11, r7, 1\n" + exit_seq());
    // Variant B: an independent nop separates them (no stall). One more
    // instruction, zero bubbles: identical cycle count to variant A.
    const auto b = run_asm(prefix + "  l.lwz r7, 0(r5)\n  l.nop\n  l.addi r11, r7, 1\n" + exit_seq());
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(reg(a, 11), reg(b, 11));
}

TEST(Hazards, FlagForwardingToImmediateBranch) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 1
  l.sfeq r5, r5
  l.bf taken
  l.nop
  l.addi r11, r0, 111
  l.j end
  l.nop
taken:
  l.addi r11, r0, 222
end:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 222u);
}

// ---- Control flow -------------------------------------------------------------

TEST(ControlFlow, DelaySlotAlwaysExecutes) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r11, r0, 0
  l.j target
  l.addi r11, r11, 5   ; delay slot executes
  l.addi r11, r11, 100 ; skipped
target:
  l.addi r11, r11, 1
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 6u);
}

TEST(ControlFlow, UntakenBranchDelaySlotExecutes) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 1
  l.sfeq r5, r0
  l.bf never
  l.addi r11, r0, 7   ; delay slot
  l.addi r11, r11, 1
never:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 8u);
}

TEST(ControlFlow, JalLinkValueSkipsDelaySlot) {
    const auto o = run_asm(std::string(R"(
_start:
  l.jal callee
  l.nop              ; delay slot
  l.addi r11, r0, 55 ; return lands here
  l.j end
  l.nop
callee:
  l.jr r9
  l.nop
end:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 55u);
}

TEST(ControlFlow, JalrViaRegister) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r16, callee
  l.jalr r16
  l.nop
  l.addi r11, r0, 77
  l.j end
  l.nop
callee:
  l.jr r9
  l.nop
end:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 77u);
}

TEST(ControlFlow, LoopIterationCount) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 10
  l.addi r11, r0, 0
loop:
  l.addi r11, r11, 3
  l.addi r5, r5, -1
  l.sfgts r5, r0
  l.bf loop
  l.nop
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 30u);
}

TEST(ControlFlow, ControlTransferInDelaySlotFaults) {
    EXPECT_THROW(run_asm(std::string(R"(
_start:
  l.sfeq r0, r0
  l.bf away
  l.j elsewhere      ; illegal: jump in delay slot
away:
elsewhere:
)") + exit_seq()),
                 GuestError);
}

TEST(ControlFlow, ImmediateJumpIsFree) {
    // l.j is resolved in the fetch stage: a chain of taken jumps should not
    // add bubbles beyond the instructions themselves.
    std::string jumps = "_start:\n";
    for (int i = 0; i < 8; ++i) {
        jumps += "  l.j hop" + std::to_string(i) + "\n  l.nop\nhop" + std::to_string(i) + ":\n";
    }
    const auto with_jumps = run_asm(jumps + exit_seq());

    std::string straight = "_start:\n";
    for (int i = 0; i < 16; ++i) straight += "  l.nop\n";
    const auto without = run_asm(straight + exit_seq());
    EXPECT_EQ(with_jumps.result.cycles, without.result.cycles);
}

TEST(ControlFlow, TakenConditionalBranchCostsTwoBubbles) {
    // 8 taken branches vs. 8 untaken ones, same instruction count.
    std::string taken = "_start:\n  l.sfeq r0, r0\n";  // flag true
    for (int i = 0; i < 8; ++i) {
        taken += "  l.bf t" + std::to_string(i) + "\n  l.nop\nt" + std::to_string(i) + ":\n";
    }
    std::string untaken = "_start:\n  l.sfne r0, r0\n";  // flag false
    for (int i = 0; i < 8; ++i) {
        untaken += "  l.bf u" + std::to_string(i) + "\n  l.nop\nu" + std::to_string(i) + ":\n";
    }
    const auto t = run_asm(taken + exit_seq());
    const auto u = run_asm(untaken + exit_seq());
    EXPECT_EQ(t.result.cycles, u.result.cycles + 8 * 2);
}

TEST(ControlFlow, NestedCallsViaStackedLinkRegister) {
    // callee2 saves r9 on a software stack, calls callee1, restores, returns.
    const auto o = run_asm(std::string(R"(
_start:
  l.li r1, 0x00110000      ; stack top
  l.jal callee2
  l.nop
  l.addi r11, r11, 1000    ; after the outer call
  l.j end
  l.nop
callee1:
  l.addi r11, r11, 1
  l.jr r9
  l.nop
callee2:
  l.addi r1, r1, -4
  l.sw 0(r1), r9
  l.jal callee1
  l.nop
  l.jal callee1
  l.nop
  l.lwz r9, 0(r1)
  l.addi r1, r1, 4
  l.jr r9
  l.nop
end:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 1002u);
}

TEST(ControlFlow, BackwardAndForwardBranchesMix) {
    // Countdown loop with an embedded forward skip.
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r5, r0, 6
  l.addi r11, r0, 0
loop:
  l.andi r6, r5, 1
  l.sfne r6, r0
  l.bf odd
  l.nop
  l.addi r11, r11, 100    ; even
  l.j next
  l.nop
odd:
  l.addi r11, r11, 1
next:
  l.addi r5, r5, -1
  l.sfgts r5, r0
  l.bf loop
  l.nop
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 303u);  // 3 evens (6,4,2) + 3 odds (5,3,1)
}

TEST(ControlFlow, MisalignedJrTargetFaults) {
    EXPECT_THROW(run_asm(std::string(R"(
_start:
  l.addi r5, r0, 0x102
  l.jr r5
  l.nop
)") + exit_seq()),
                 GuestError);
}

TEST(ControlFlow, FlagDistanceTwoUsesArchitecturalFlag) {
    // sf -> unrelated -> unrelated -> bf: flag comes from the committed
    // architectural register, not from forwarding.
    const auto o = run_asm(std::string(R"(
_start:
  l.sfeq r0, r0
  l.addi r5, r0, 1
  l.addi r6, r0, 2
  l.addi r7, r0, 3
  l.bf yes
  l.nop
  l.addi r11, r0, 1
  l.j end
  l.nop
yes:
  l.addi r11, r0, 2
end:
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 2u);
}

TEST(Divider, SignedOverflowCaseIsDefined) {
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x80000000
  l.addi r6, r0, -1
  l.div r11, r5, r6        ; INT_MIN / -1: defined as 0 in this model
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 0u);
}

TEST(Hazards, StoreDataForwardedAfterLoadUse) {
    // load -> store of the loaded value (distance 1: stall + forward).
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, 77
  l.sw 0(r5), r6
  l.lwz r7, 0(r5)
  l.sw 4(r5), r7
  l.lwz r11, 4(r5)
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 77u);
}

TEST(Hazards, JrAfterLoadOfTarget) {
    // The register jump target comes straight out of a load (load-use on rb).
    const auto o = run_asm(std::string(R"(
_start:
  l.li r5, 0x00100000
  l.li r6, dest
  l.sw 0(r5), r6
  l.lwz r7, 0(r5)
  l.jr r7
  l.nop
  l.addi r11, r0, 1     ; skipped
dest:
  l.addi r11, r11, 5
)") + exit_seq());
    EXPECT_EQ(reg(o, 11), 5u);
}

// ---- Divider stall --------------------------------------------------------------

TEST(Divider, SerialDividerStallsPipeline) {
    sim::MachineConfig config;
    config.pipeline.div_latency = 32;
    const std::string body = R"(
_start:
  l.li r5, 1000000
  l.addi r6, r0, 7
  l.divu r11, r5, r6
)";
    const auto with_div = run_asm(body + exit_seq(), config);
    config.pipeline.div_latency = 1;
    const auto fast_div = run_asm(body + exit_seq(), config);
    EXPECT_EQ(reg(with_div, 11), 142857u);
    EXPECT_EQ(with_div.result.cycles, fast_div.result.cycles + 31);
}

// ---- Simulation control -----------------------------------------------------------

TEST(SimControl, ExitCodeFromR3) {
    const auto o = run_asm("_start:\n  l.addi r3, r0, 17\n" + std::string(exit_seq()));
    EXPECT_EQ(o.result.exit_code, 17u);
}

TEST(SimControl, ReportNops) {
    const auto o = run_asm(std::string(R"(
_start:
  l.addi r3, r0, 5
  l.nop 0x2
  l.addi r3, r0, 9
  l.nop 0x2
  l.addi r3, r0, 0
)") + exit_seq());
    ASSERT_EQ(o.result.reports.size(), 2u);
    EXPECT_EQ(o.result.reports[0], 5u);
    EXPECT_EQ(o.result.reports[1], 9u);
}

TEST(SimControl, WatchdogFiresOnInfiniteLoop) {
    sim::MachineConfig config;
    config.max_cycles = 5000;
    EXPECT_THROW(run_asm("_start:\nspin:\n  l.j spin\n  l.nop\n", config), GuestError);
}

TEST(SimControl, InvalidInstructionFaults) {
    EXPECT_THROW(run_asm(".org 0\n  .word 0xffffffff\n  .word 0xffffffff\n"
                         "  .word 0xffffffff\n  .word 0xffffffff\n"),
                 GuestError);
}

TEST(SimControl, IpcNearOneForStraightLineCode) {
    std::string source = "_start:\n";
    for (int i = 0; i < 400; ++i) source += "  l.addi r5, r5, 1\n";
    const auto o = run_asm(source + exit_seq());
    EXPECT_GT(o.result.ipc(), 0.95);
}

}  // namespace
}  // namespace focs::sim
