#include "asm/assembler.hpp"

#include <cctype>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_info.hpp"

namespace focs::assembler {

namespace {

using isa::Instruction;
using isa::Opcode;

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Recursive-descent evaluator over + - ( ) hi() lo() numbers and symbols.
/// All arithmetic is modulo 2^32 (matching linker semantics).
class ExprEvaluator {
public:
    ExprEvaluator(const std::map<std::string, std::uint32_t>& symbols, int line)
        : symbols_(symbols), line_(line) {}

    std::uint32_t evaluate(std::string_view text) {
        text_ = text;
        pos_ = 0;
        const std::uint32_t value = parse_expr();
        skip_space();
        if (pos_ != text_.size()) fail("trailing characters in expression");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw ParseError(message + " in '" + std::string(text_) + "'", line_);
    }

    void skip_space() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }

    bool consume(char c) {
        skip_space();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::uint32_t parse_expr() {
        std::uint32_t value = parse_term();
        for (;;) {
            if (consume('+')) value += parse_term();
            else if (consume('-')) value -= parse_term();
            else return value;
        }
    }

    std::uint32_t parse_term() {
        skip_space();
        if (pos_ >= text_.size()) fail("unexpected end of expression");
        const char c = text_[pos_];
        if (c == '(') {
            ++pos_;
            const std::uint32_t inner = parse_expr();
            if (!consume(')')) fail("missing ')'");
            return inner;
        }
        if (c == '-') {
            ++pos_;
            return 0u - parse_term();
        }
        if (std::isdigit(static_cast<unsigned char>(c))) return parse_number();
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.') return parse_ident();
        fail("unexpected character");
    }

    std::uint32_t parse_number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == 'x' ||
                text_[pos_] == 'X')) {
            ++pos_;
        }
        const auto parsed = parse_int(text_.substr(start, pos_ - start));
        if (!parsed) fail("malformed number");
        return static_cast<std::uint32_t>(*parsed);
    }

    std::uint32_t parse_ident() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                       text_[pos_] == '_' || text_[pos_] == '.')) {
            ++pos_;
        }
        const std::string name{text_.substr(start, pos_ - start)};
        if (name == "hi" || name == "lo") {
            if (!consume('(')) fail("expected '(' after " + name);
            const std::uint32_t inner = parse_expr();
            if (!consume(')')) fail("missing ')'");
            return name == "hi" ? (inner >> 16) & 0xffffu : inner & 0xffffu;
        }
        const auto it = symbols_.find(name);
        if (it == symbols_.end()) fail("undefined symbol '" + name + "'");
        return it->second;
    }

    const std::map<std::string, std::uint32_t>& symbols_;
    int line_;
    std::string_view text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Line scanning
// ---------------------------------------------------------------------------

/// One logical source statement after label extraction.
struct Statement {
    int line = 0;
    std::vector<std::string> labels;
    std::string head;  ///< mnemonic or directive (lower-case), may be empty
    std::string rest;  ///< untouched operand text
    /// Placement fixed by the layout pass; the emit pass only fills in
    /// the bytes.
    std::uint32_t address = 0;
    std::uint32_t size = 0;
};

/// Strips comments respecting double-quoted strings.
std::string strip_comment(std::string_view line) {
    std::string out;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
            out += c;
            if (c == '\\' && i + 1 < line.size()) {
                out += line[++i];
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '#' || c == ';') break;
        if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
        if (c == '"') in_string = true;
        out += c;
    }
    return out;
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::vector<Statement> scan(std::string_view source) {
    std::vector<Statement> statements;
    int line_no = 0;
    std::size_t start = 0;
    while (start <= source.size()) {
        const std::size_t end = source.find('\n', start);
        const auto raw = source.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                                            : end - start);
        start = end == std::string_view::npos ? source.size() + 1 : end + 1;
        ++line_no;

        std::string text = strip_comment(raw);
        std::string_view rest = trim(text);
        Statement st;
        st.line = line_no;
        // Pull off any number of leading "label:" prefixes.
        for (;;) {
            std::size_t i = 0;
            while (i < rest.size() && is_ident_char(rest[i])) ++i;
            if (i == 0 || i >= rest.size() || rest[i] != ':') break;
            st.labels.emplace_back(rest.substr(0, i));
            rest = trim(rest.substr(i + 1));
        }
        if (!rest.empty()) {
            std::size_t i = 0;
            while (i < rest.size() && !std::isspace(static_cast<unsigned char>(rest[i]))) ++i;
            st.head = to_lower(rest.substr(0, i));
            st.rest = std::string(trim(rest.substr(i)));
        }
        if (!st.labels.empty() || !st.head.empty()) statements.push_back(std::move(st));
    }
    return statements;
}

// ---------------------------------------------------------------------------
// Operand parsing helpers
// ---------------------------------------------------------------------------

std::uint8_t parse_register(std::string_view token, int line) {
    const auto t = trim(token);
    if (t.size() >= 2 && (t[0] == 'r' || t[0] == 'R')) {
        const auto parsed = parse_int(t.substr(1));
        if (parsed && *parsed >= 0 && *parsed < 32) return static_cast<std::uint8_t>(*parsed);
    }
    throw ParseError("expected register, got '" + std::string(t) + "'", line);
}

/// Splits "disp(base)" into its two parts.
void parse_mem_operand(std::string_view token, int line, std::string& disp, std::string& base) {
    const auto t = trim(token);
    const std::size_t open = t.rfind('(');
    if (open == std::string_view::npos || t.empty() || t.back() != ')') {
        throw ParseError("expected displacement(base) operand, got '" + std::string(t) + "'", line);
    }
    const auto d = trim(t.substr(0, open));
    disp = d.empty() ? std::string("0") : std::string(d);
    base = std::string(trim(t.substr(open + 1, t.size() - open - 2)));
}

void check_signed16(std::uint32_t value, int line) {
    const auto s = static_cast<std::int32_t>(value);
    if (s < -32768 || s > 32767) {
        throw ParseError("immediate " + std::to_string(s) + " does not fit in signed 16 bits", line);
    }
}

void check_unsigned16(std::uint32_t value, int line) {
    if (value > 0xffffu) {
        throw ParseError("immediate " + std::to_string(value) + " does not fit in 16 bits", line);
    }
}

// ---------------------------------------------------------------------------
// Assembler core
// ---------------------------------------------------------------------------

/// Upper bound on the bytes one program may store. Far above every bundled
/// program (the largest, char_memory, stores 32,880 B) and the default
/// 64 KiB SRAMs, so only a runaway `.space` or `.align` reaches it.
constexpr std::uint64_t kMaxImageBytes = std::uint64_t{4} << 20;

class Assembler {
public:
    explicit Assembler(const AssemblyOptions& options) : options_(options) {}

    Program run(std::string_view source) {
        statements_ = scan(source);
        layout_pass();
        emit_pass();
        const auto entry = program_.symbol("_start");
        program_.set_entry(entry ? *entry : options_.text_base);
        for (const auto& [name, value] : symbols_) program_.define_symbol(name, value);
        return std::move(program_);
    }

private:
    /// Byte size contributed by a statement at location counter `lc`.
    std::uint32_t statement_size(const Statement& st, std::uint32_t lc) {
        const std::string& h = st.head;
        if (h.empty()) return 0;
        if (h[0] != '.') {
            if (h == "l.li") return 8;  // movhi + ori
            return 4;
        }
        if (h == ".word") return 4 * count_operands(st);
        if (h == ".half") return 2 * count_operands(st);
        if (h == ".byte") return 1 * count_operands(st);
        if (h == ".space") {
            const auto parts = split(st.rest, ',');
            ExprEvaluator eval(symbols_, st.line);
            return eval.evaluate(parts.at(0));
        }
        if (h == ".align") {
            ExprEvaluator eval(symbols_, st.line);
            const std::uint32_t align = eval.evaluate(st.rest);
            if (align == 0 || (align & (align - 1)) != 0) {
                throw ParseError("alignment must be a power of two", st.line);
            }
            return (align - lc % align) % align;
        }
        if (h == ".ascii" || h == ".asciz") {
            return static_cast<std::uint32_t>(parse_string(st).size()) + (h == ".asciz" ? 1 : 0);
        }
        // .org/.text/.data/.equ/.global are handled by the layout pass.
        throw ParseError("unknown directive '" + h + "'", st.line);
    }

    static std::uint32_t count_operands(const Statement& st) {
        return static_cast<std::uint32_t>(split(st.rest, ',').size());
    }

    static std::string parse_string(const Statement& st) {
        const auto t = trim(st.rest);
        if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
            throw ParseError("expected quoted string", st.line);
        }
        std::string out;
        for (std::size_t i = 1; i + 1 < t.size(); ++i) {
            char c = t[i];
            if (c == '\\' && i + 2 < t.size()) {
                const char esc = t[++i];
                c = esc == 'n' ? '\n' : esc == 't' ? '\t' : esc == '0' ? '\0' : esc;
            }
            out += c;
        }
        return out;
    }

    /// Fixes every statement's address and size and defines the labels.
    /// Before any byte is stored, refuses a statement that would carry the
    /// location counter past 0xffffffff (it would wrap and overwrite low
    /// addresses) and an image above kMaxImageBytes.
    void layout_pass() {
        std::uint32_t text_lc = options_.text_base;
        std::uint32_t data_lc = options_.data_base;
        std::uint64_t image_bytes = 0;
        bool in_text = true;
        for (auto& st : statements_) {
            std::uint32_t& lc = in_text ? text_lc : data_lc;
            for (const auto& label : st.labels) {
                if (symbols_.count(label) != 0) {
                    throw ParseError("duplicate label '" + label + "'", st.line);
                }
                symbols_[label] = lc;
            }
            if (st.head.empty()) continue;
            if (st.head == ".text") { in_text = true; continue; }
            if (st.head == ".data") { in_text = false; continue; }
            if (st.head == ".global") continue;
            if (st.head == ".org") {
                ExprEvaluator eval(symbols_, st.line);
                lc = eval.evaluate(st.rest);
                continue;
            }
            if (st.head == ".equ") {
                const auto parts = split(st.rest, ',');
                if (parts.size() != 2 || parts[0].empty()) {
                    throw ParseError(".equ expects NAME, EXPR", st.line);
                }
                ExprEvaluator eval(symbols_, st.line);
                symbols_[parts[0]] = eval.evaluate(parts[1]);
                continue;
            }
            const std::uint32_t size = statement_size(st, lc);
            if (std::uint64_t{lc} + size > 0xffffffffu) {
                throw ParseError("location counter passes 0xffffffff", st.line);
            }
            image_bytes += size;
            if (image_bytes > kMaxImageBytes) {
                throw ParseError("program image exceeds " + std::to_string(kMaxImageBytes) +
                                     " bytes",
                                 st.line);
            }
            st.address = lc;
            st.size = size;
            lc += size;
        }
    }

    void emit_pass() {
        for (const auto& st : statements_) {
            if (st.size == 0) continue;  // the layout pass found nothing to store
            if (st.head[0] == '.') {
                emit_directive(st);
            } else {
                emit_instruction(st);
            }
        }
    }

    void emit_directive(const Statement& st) {
        ExprEvaluator eval(symbols_, st.line);
        if (st.head == ".word" || st.head == ".half" || st.head == ".byte") {
            const std::uint32_t size = st.head == ".word" ? 4 : st.head == ".half" ? 2 : 1;
            std::vector<std::uint8_t> bytes;
            bytes.reserve(st.size);
            for (const auto& operand : split(st.rest, ',')) {
                const std::uint32_t value = eval.evaluate(operand);
                for (std::uint32_t b = 0; b < size; ++b) {
                    bytes.push_back(static_cast<std::uint8_t>(value >> (8 * (size - 1 - b))));
                }
            }
            program_.store(st.address, bytes);
        } else if (st.head == ".space") {
            const auto parts = split(st.rest, ',');
            const std::uint8_t fill =
                parts.size() > 1 ? static_cast<std::uint8_t>(eval.evaluate(parts[1])) : 0;
            program_.fill(st.address, st.size, fill);
        } else if (st.head == ".align") {
            program_.fill(st.address, st.size, 0);
        } else {  // .ascii / .asciz (the layout pass refused unknown directives)
            std::string s = parse_string(st);
            if (st.head == ".asciz") s += '\0';
            program_.store(st.address,
                           {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
        }
    }

    void emit_word(const Instruction& inst, std::uint32_t& lc, int line) {
        const std::uint32_t word = isa::encode(inst);
        program_.set_word(lc, word);
        program_.add_listing({lc, word, line});
        lc += 4;
    }

    void emit_instruction(const Statement& st) {
        std::uint32_t lc = st.address;
        ExprEvaluator eval(symbols_, st.line);
        const auto operands = st.rest.empty() ? std::vector<std::string>{} : split(st.rest, ',');
        auto need = [&](std::size_t n) {
            if (operands.size() != n) {
                throw ParseError(st.head + " expects " + std::to_string(n) + " operand(s)", st.line);
            }
        };

        // Pseudo-instructions first.
        if (st.head == "l.li") {
            need(2);
            const std::uint8_t rd = parse_register(operands[0], st.line);
            const std::uint32_t value = eval.evaluate(operands[1]);
            emit_word({Opcode::kMovhi, rd, 0, 0, static_cast<std::int32_t>(value >> 16)}, lc, st.line);
            emit_word({Opcode::kOri, rd, rd, 0, static_cast<std::int32_t>(value & 0xffffu)}, lc, st.line);
            return;
        }
        if (st.head == "l.mov") {
            need(2);
            const std::uint8_t rd = parse_register(operands[0], st.line);
            const std::uint8_t ra = parse_register(operands[1], st.line);
            emit_word({Opcode::kOri, rd, ra, 0, 0}, lc, st.line);
            return;
        }

        const auto opcode = isa::opcode_from_mnemonic(st.head);
        if (!opcode) throw ParseError("unknown mnemonic '" + st.head + "'", st.line);
        const auto& meta = isa::info(*opcode);
        Instruction inst;
        inst.opcode = *opcode;

        if (meta.is_jump || meta.is_branch) {
            if (*opcode == Opcode::kJr || *opcode == Opcode::kJalr) {
                need(1);
                inst.rb = parse_register(operands[0], st.line);
            } else {
                need(1);
                const std::uint32_t target = eval.evaluate(operands[0]);
                const auto diff = static_cast<std::int32_t>(target - lc);
                if (diff % 4 != 0) throw ParseError("branch target not word aligned", st.line);
                const std::int32_t words = diff / 4;
                if (words < -(1 << 25) || words >= (1 << 25)) {
                    throw ParseError("branch target " + std::to_string(words) +
                                         " words away does not fit the 26-bit displacement",
                                     st.line);
                }
                inst.imm = words;
                if (*opcode == Opcode::kJal) inst.rd = 9;
            }
            emit_word(inst, lc, st.line);
            return;
        }
        if (meta.is_load) {
            need(2);
            inst.rd = parse_register(operands[0], st.line);
            std::string disp, base;
            parse_mem_operand(operands[1], st.line, disp, base);
            inst.ra = parse_register(base, st.line);
            const std::uint32_t value = eval.evaluate(disp);
            check_signed16(value, st.line);
            inst.imm = static_cast<std::int32_t>(value);
            emit_word(inst, lc, st.line);
            return;
        }
        if (meta.is_store) {
            need(2);
            std::string disp, base;
            parse_mem_operand(operands[0], st.line, disp, base);
            inst.ra = parse_register(base, st.line);
            inst.rb = parse_register(operands[1], st.line);
            const std::uint32_t value = eval.evaluate(disp);
            check_signed16(value, st.line);
            inst.imm = static_cast<std::int32_t>(value);
            emit_word(inst, lc, st.line);
            return;
        }
        if (meta.sets_flag) {
            need(2);
            inst.ra = parse_register(operands[0], st.line);
            if (meta.has_immediate) {
                const std::uint32_t value = eval.evaluate(operands[1]);
                check_signed16(value, st.line);
                inst.imm = static_cast<std::int32_t>(value);
            } else {
                inst.rb = parse_register(operands[1], st.line);
            }
            emit_word(inst, lc, st.line);
            return;
        }
        switch (*opcode) {
            case Opcode::kNop: {
                if (operands.size() > 1) need(1);
                if (!operands.empty()) {
                    const std::uint32_t value = eval.evaluate(operands[0]);
                    check_unsigned16(value, st.line);
                    inst.imm = static_cast<std::int32_t>(value);
                }
                break;
            }
            case Opcode::kMovhi: {
                need(2);
                inst.rd = parse_register(operands[0], st.line);
                const std::uint32_t value = eval.evaluate(operands[1]);
                check_unsigned16(value, st.line);
                inst.imm = static_cast<std::int32_t>(value);
                break;
            }
            default: {
                // Two-operand unary ALU forms: l.exths/l.ff1/... rD, rA.
                if (meta.writes_rd && meta.reads_ra && !meta.reads_rb && !meta.has_immediate) {
                    need(2);
                    inst.rd = parse_register(operands[0], st.line);
                    inst.ra = parse_register(operands[1], st.line);
                    break;
                }
                need(3);
                inst.rd = parse_register(operands[0], st.line);
                inst.ra = parse_register(operands[1], st.line);
                if (meta.has_immediate) {
                    const std::uint32_t value = eval.evaluate(operands[2]);
                    switch (*opcode) {
                        case Opcode::kAndi:
                        case Opcode::kOri: check_unsigned16(value, st.line); break;
                        case Opcode::kSlli:
                        case Opcode::kSrli:
                        case Opcode::kSrai:
                        case Opcode::kRori:
                            if (value > 63) throw ParseError("shift amount out of range", st.line);
                            break;
                        default: check_signed16(value, st.line); break;
                    }
                    inst.imm = static_cast<std::int32_t>(value);
                } else {
                    inst.rb = parse_register(operands[2], st.line);
                }
                break;
            }
        }
        emit_word(inst, lc, st.line);
    }

    AssemblyOptions options_;
    std::vector<Statement> statements_;
    std::map<std::string, std::uint32_t> symbols_;
    Program program_;
};

}  // namespace

Program assemble(std::string_view source, const AssemblyOptions& options) {
    Assembler assembler(options);
    return assembler.run(source);
}

}  // namespace focs::assembler
