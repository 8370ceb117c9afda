// Assembler tests: directives, labels, expressions, pseudo-instructions,
// error reporting, and golden encodings.
#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "isa/encoding.hpp"

namespace focs::assembler {
namespace {

TEST(Assembler, MinimalProgram) {
    const Program p = assemble("_start:\n  l.nop 0x1\n");
    EXPECT_EQ(p.entry(), 0u);
    EXPECT_EQ(p.word_at(0), 0x15000001u);
}

TEST(Assembler, EntryDefaultsToTextBaseWithoutStart) {
    const Program p = assemble("  l.nop\n");
    EXPECT_EQ(p.entry(), 0u);
}

TEST(Assembler, LabelsAndBranches) {
    const Program p = assemble(R"(
_start:
  l.addi r5, r0, 3
loop:
  l.addi r5, r5, -1
  l.sfgts r5, r0
  l.bf loop
  l.nop
  l.nop 0x1
)");
    // l.bf loop: loop is 8 bytes behind the branch at 0x8 -> offset -2 words.
    const auto branch = isa::decode(p.word_at(0xc));
    EXPECT_EQ(branch.opcode, isa::Opcode::kBf);
    EXPECT_EQ(branch.imm, -2);
}

TEST(Assembler, ForwardReferences) {
    const Program p = assemble(R"(
_start:
  l.j end
  l.nop
  l.nop
end:
  l.nop 0x1
)");
    const auto jump = isa::decode(p.word_at(0));
    EXPECT_EQ(jump.opcode, isa::Opcode::kJ);
    EXPECT_EQ(jump.imm, 3);
}

TEST(Assembler, DataDirectivesBigEndian) {
    const Program p = assemble(R"(
.data
values:
  .word 0x11223344, 1
  .half 0xaabb
  .byte 0x7f, 0x80
  .space 2, 0xee
str:
  .asciz "Hi\n"
)");
    EXPECT_EQ(p.word_at(kDataBase), 0x11223344u);
    EXPECT_EQ(p.word_at(kDataBase + 4), 1u);
    EXPECT_EQ(p.byte_at(kDataBase + 8), 0xaa);
    EXPECT_EQ(p.byte_at(kDataBase + 9), 0xbb);
    EXPECT_EQ(p.byte_at(kDataBase + 10), 0x7f);
    EXPECT_EQ(p.byte_at(kDataBase + 11), 0x80);
    EXPECT_EQ(p.byte_at(kDataBase + 12), 0xee);
    EXPECT_EQ(p.byte_at(kDataBase + 13), 0xee);
    EXPECT_EQ(p.byte_at(kDataBase + 14), 'H');
    EXPECT_EQ(p.byte_at(kDataBase + 16), '\n');
    EXPECT_EQ(p.byte_at(kDataBase + 17), 0);
    // byte_at reads 0 at an unstored address too: the image must end just
    // past the stored terminator.
    ASSERT_EQ(p.segments().size(), 1u);
    EXPECT_EQ(p.segments()[0].base, kDataBase);
    EXPECT_EQ(p.segments()[0].end(), kDataBase + 18);
    const auto str = p.symbol("str");
    ASSERT_TRUE(str.has_value());
    EXPECT_EQ(*str, kDataBase + 14);
}

TEST(Assembler, AlignDirective) {
    const Program p = assemble(".data\n.byte 1\n.align 8\naligned: .word 2\n");
    const auto sym = p.symbol("aligned");
    ASSERT_TRUE(sym.has_value());
    EXPECT_EQ(*sym % 8, 0u);
}

TEST(Assembler, HiLoRelocationOperators) {
    const Program p = assemble(R"(
_start:
  l.movhi r5, hi(target)
  l.ori r5, r5, lo(target)
  l.nop 0x1
.data
.org 0x00123456 - 2
.align 2
target: .word 0
)");
    const auto hi = isa::decode(p.word_at(0));
    const auto lo = isa::decode(p.word_at(4));
    const auto target = *p.symbol("target");
    EXPECT_EQ(static_cast<std::uint32_t>(hi.imm), target >> 16);
    EXPECT_EQ(static_cast<std::uint32_t>(lo.imm), target & 0xffffu);
}

TEST(Assembler, LiPseudoExpandsToMovhiOri) {
    const Program p = assemble("_start:\n  l.li r7, 0xdeadbeef\n  l.nop 0x1\n");
    const auto first = isa::decode(p.word_at(0));
    const auto second = isa::decode(p.word_at(4));
    EXPECT_EQ(first.opcode, isa::Opcode::kMovhi);
    EXPECT_EQ(static_cast<std::uint32_t>(first.imm), 0xdeadu);
    EXPECT_EQ(second.opcode, isa::Opcode::kOri);
    EXPECT_EQ(static_cast<std::uint32_t>(second.imm), 0xbeefu);
    EXPECT_EQ(second.ra, 7);
    EXPECT_EQ(second.rd, 7);
}

TEST(Assembler, MovPseudo) {
    const Program p = assemble("_start:\n  l.mov r5, r6\n  l.nop 0x1\n");
    const auto inst = isa::decode(p.word_at(0));
    EXPECT_EQ(inst.opcode, isa::Opcode::kOri);
    EXPECT_EQ(inst.rd, 5);
    EXPECT_EQ(inst.ra, 6);
    EXPECT_EQ(inst.imm, 0);
}

TEST(Assembler, EquConstants) {
    const Program p = assemble(R"(
.equ COUNT, 5
.equ DOUBLE, COUNT + COUNT
_start:
  l.addi r5, r0, DOUBLE
  l.nop 0x1
)");
    EXPECT_EQ(isa::decode(p.word_at(0)).imm, 10);
}

TEST(Assembler, Expressions) {
    const Program p = assemble(R"(
.equ BASE, 0x100
_start:
  l.addi r5, r0, BASE + 4
  l.addi r6, r0, (BASE - 0x80) + 2
  l.addi r7, r0, -BASE
  l.nop 0x1
)");
    EXPECT_EQ(isa::decode(p.word_at(0)).imm, 0x104);
    EXPECT_EQ(isa::decode(p.word_at(4)).imm, 0x82);
    EXPECT_EQ(isa::decode(p.word_at(8)).imm, -0x100);
}

TEST(Assembler, MemoryOperands) {
    const Program p = assemble(R"(
_start:
  l.lwz r4, 8(r2)
  l.sw -4(r2), r5
  l.lbz r6, (r3)
  l.nop 0x1
)");
    const auto load = isa::decode(p.word_at(0));
    EXPECT_EQ(load.opcode, isa::Opcode::kLwz);
    EXPECT_EQ(load.ra, 2);
    EXPECT_EQ(load.imm, 8);
    const auto store = isa::decode(p.word_at(4));
    EXPECT_EQ(store.imm, -4);
    EXPECT_EQ(store.rb, 5);
    EXPECT_EQ(isa::decode(p.word_at(8)).imm, 0);
}

TEST(Assembler, CommentsAndBlankLines) {
    const Program p = assemble(R"(
# hash comment
; semi comment
// slash comment
_start:  l.nop 0x1   ; trailing
)");
    EXPECT_EQ(p.word_at(0), 0x15000001u);
}

TEST(Assembler, JumpTableWords) {
    const Program p = assemble(R"(
_start:
a: l.nop
b: l.nop 0x1
.data
tab: .word a, b
)");
    EXPECT_EQ(p.word_at(kDataBase), 0u);
    EXPECT_EQ(p.word_at(kDataBase + 4), 4u);
}

TEST(Assembler, ImageIsFlatRunsWhereLaterStoresWin) {
    const Program p = assemble(R"(
.data
.org 0x00100010
  .word 0x11111111
.org 0x00100008
  .word 0x22222222
.org 0x0010000c
  .word 0x33333333
.org 0x00100012
  .half 0x4444
)");
    // The third word touches both earlier runs, so they merge into one; the
    // half overlaps the first word and overwrites its low half.
    ASSERT_EQ(p.segments().size(), 1u);
    EXPECT_EQ(p.segments()[0].base, kDataBase + 8);
    EXPECT_EQ(p.image_size(), 12u);
    EXPECT_EQ(p.word_at(kDataBase + 8), 0x22222222u);
    EXPECT_EQ(p.word_at(kDataBase + 12), 0x33333333u);
    EXPECT_EQ(p.word_at(kDataBase + 16), 0x11114444u);
    EXPECT_EQ(p.byte_at(kDataBase + 7), 0u);  // unset bytes read as zero
    EXPECT_EQ(p.byte_at(kDataBase + 20), 0u);
}

// ---- Error handling ----------------------------------------------------

TEST(AssemblerErrors, UnknownMnemonic) {
    EXPECT_THROW(assemble("  l.bogus r1, r2, r3\n"), ParseError);
}

TEST(AssemblerErrors, UndefinedSymbol) {
    EXPECT_THROW(assemble("  l.j nowhere\n  l.nop\n"), ParseError);
}

TEST(AssemblerErrors, DuplicateLabel) {
    EXPECT_THROW(assemble("x:\n l.nop\nx:\n l.nop\n"), ParseError);
}

TEST(AssemblerErrors, ImmediateOutOfRange) {
    EXPECT_THROW(assemble("  l.addi r1, r0, 40000\n"), ParseError);
    EXPECT_THROW(assemble("  l.andi r1, r0, 0x10000\n"), ParseError);
    EXPECT_THROW(assemble("  l.slli r1, r1, 64\n"), ParseError);
}

TEST(AssemblerErrors, WrongOperandCount) {
    EXPECT_THROW(assemble("  l.add r1, r2\n"), ParseError);
    EXPECT_THROW(assemble("  l.jr r1, r2\n"), ParseError);
}

TEST(AssemblerErrors, BadRegister) {
    EXPECT_THROW(assemble("  l.add r1, r2, r32\n"), ParseError);
    EXPECT_THROW(assemble("  l.add r1, r2, x3\n"), ParseError);
}

TEST(AssemblerErrors, MisalignedBranchTarget) {
    EXPECT_THROW(assemble(".equ odd, 0x102\n  l.j odd + 1\n  l.nop\n"), ParseError);
}

/// The ParseError `source` raises, or a failure when it assembles.
ParseError parse_error_of(const std::string& source) {
    try {
        assemble(source);
    } catch (const ParseError& e) {
        return e;
    }
    ADD_FAILURE() << "expected ParseError for: " << source;
    return ParseError("assembled");
}

TEST(AssemblerErrors, NopImmediateOutOfRange) {
    // isa::encode keeps 16 bits, so 0x12345 would assemble as l.nop 0x2345.
    EXPECT_EQ(parse_error_of("  l.nop\n  l.nop 0x12345\n").line(), 2);
    EXPECT_EQ(parse_error_of("  l.nop -1\n").line(), 1);
    EXPECT_EQ(assemble("  l.nop 0xffff\n").word_at(0), 0x1500ffffu);
}

TEST(AssemblerErrors, BranchTargetOutOfRange) {
    // A jump or branch reaches +-2^25 words; beyond it the error names the
    // .s line, not the encoder.
    const ParseError forward = parse_error_of("  l.nop\n  l.j 0x10000000\n");
    EXPECT_EQ(forward.line(), 2);
    EXPECT_NE(std::string(forward.what()).find("26-bit"), std::string::npos);
    EXPECT_EQ(parse_error_of(".org 0x10000000\n  l.bf 0\n").line(), 2);
    // The farthest targets in each direction still assemble.
    EXPECT_EQ(assemble("  l.j 0x7fffffc\n").word_at(0), 0x01ffffffu);
    EXPECT_EQ(assemble(".org 0x8000000\n  l.j 0\n").word_at(0x8000000), 0x02000000u);
}

TEST(AssemblerErrors, LocationCounterWrapIsRefused) {
    // Past 0xffffffff the counter would wrap: the second word would land on
    // text word 0 while the listing still showed the l.nop there.
    EXPECT_THROW(assemble("_start:\n  l.nop\n.data\n.org 0xfffffffc\n"
                          "  .word 0x11111111, 0x22222222\n"),
                 ParseError);
    EXPECT_THROW(assemble(".org 0xfffffff0\n  .space 0x20\n"), ParseError);
    EXPECT_THROW(assemble(".org 0xfffffffc\n  l.li r3, 1\n"), ParseError);
    EXPECT_THROW(assemble(".org 0xffffff00\n  .align 0x10000000\n"), ParseError);
    try {
        assemble("  l.nop\n.org 0xfffffffc\n  .word 1\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
    }
    // A run that stops short of the wrap is still an image.
    EXPECT_EQ(assemble(".org 0xfffffff8\n  .word 7\n").word_at(0xfffffff8), 7u);
}

TEST(AssemblerErrors, OversizedImageIsRefusedBeforeAnyByteIsStored) {
    // The layout pass refuses these before the image holds a single byte.
    EXPECT_THROW(assemble("  .space 0xfffffff0\n"), ParseError);
    EXPECT_THROW(assemble("  .space 0x400001\n"), ParseError);
    EXPECT_THROW(assemble("  .space 0x300000\n.data\n  .space 0x100001\n"), ParseError);
    try {
        assemble("  l.nop\n  .space 0x7fffffff, 0xaa\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(AssemblerErrors, LineNumberReported) {
    try {
        assemble("  l.nop\n  l.nop\n  l.frobnicate\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
    }
}

TEST(Assembler, ListingContainsDisassembly) {
    const Program p = assemble("_start:\n  l.addi r3, r0, 7\n  l.nop 0x1\n");
    EXPECT_EQ(p.listing_text(),
              "00000000: 9c600007  l.addi r3,r0,7\n"
              "00000004: 15000001  l.nop 0x1\n");
    EXPECT_EQ(p.listing()[0].source_line, 2);
    for (const auto& entry : p.listing()) EXPECT_EQ(entry.word, p.word_at(entry.address));
}

}  // namespace
}  // namespace focs::assembler
