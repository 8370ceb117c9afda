#include "dta/delay_table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "isa/isa_info.hpp"

namespace focs::dta {

using sim::Stage;

OccKey key_of(const sim::StageView& view) {
    if (!view.valid) return kKeyBubble;
    if (view.held) {
        if (isa::timing_family(view.inst.opcode) == isa::TimingFamily::kDiv) {
            return static_cast<OccKey>(view.inst.opcode);
        }
        return kKeyHeld;
    }
    return static_cast<OccKey>(view.inst.opcode);
}

std::array<OccKey, sim::kStageCount> attribution_keys(const sim::CycleRecord& record) {
    std::array<OccKey, sim::kStageCount> keys{};
    for (int s = 0; s < sim::kStageCount; ++s) {
        keys[static_cast<std::size_t>(s)] = key_of(record.stages[static_cast<std::size_t>(s)]);
    }
    if (record.fetch_redirect && record.redirect_source != isa::Opcode::kInvalid) {
        keys[static_cast<std::size_t>(Stage::kAdr)] =
            static_cast<OccKey>(record.redirect_source);
    }
    return keys;
}

std::string_view key_name(OccKey key) {
    if (key == kKeyBubble) return "<bubble>";
    if (key == kKeyHeld) return "<held>";
    return isa::mnemonic(static_cast<isa::Opcode>(key));
}

DelayTable::DelayTable(double static_period_ps, double lut_guard_ps)
    : static_period_ps_(static_period_ps), lut_guard_ps_(lut_guard_ps) {
    check(static_period_ps >= 0, "negative static period");
    check(lut_guard_ps >= 0, "negative LUT guard band");
    for (auto& row : effective_) row.fill(static_period_ps_);
}

void DelayTable::set_characterized(OccKey key, Stage stage, double raw_max_ps) {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    check(raw_max_ps > 0, "raw characterized maximum must be positive");
    raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = raw_max_ps;
    present_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = true;
    effective_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(key)] =
        std::min(raw_max_ps + lut_guard_ps_, static_period_ps_);
}

bool DelayTable::characterized(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    return present_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)];
}

double DelayTable::lookup(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    return effective(key, stage);
}

double DelayTable::cycle_period_ps(const sim::CycleRecord& record) const {
    const bool adr_redirect =
        record.fetch_redirect && record.redirect_source != isa::Opcode::kInvalid;
    double period = 0;
    for (int s = 0; s < sim::kStageCount; ++s) {
        const OccKey key = s == static_cast<int>(Stage::kAdr) && adr_redirect
                               ? static_cast<OccKey>(record.redirect_source)
                               : key_of(record.stages[static_cast<std::size_t>(s)]);
        const double d = effective_[static_cast<std::size_t>(s)][static_cast<std::size_t>(key)];
        if (d > period) period = d;
    }
    return period;
}

DelayTable DelayTable::scaled(double factor) const {
    check(factor > 0, "scale factor must be positive");
    DelayTable out(static_period_ps_ * factor, lut_guard_ps_);
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            if (!characterized(key, static_cast<Stage>(s))) continue;
            // Scale the raw maximum, then re-apply the voltage-independent
            // guard band and the scaled static clamp inside
            // set_characterized — the exact expression a reference
            // characterization at the target operating point computes.
            out.set_characterized(
                key, static_cast<Stage>(s),
                raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] * factor);
        }
    }
    return out;
}

std::string DelayTable::serialize() const {
    char line[160];
    std::snprintf(line, sizeof line, "delay_table v2 static_ps=%.17g guard_ps=%.17g\n",
                  static_period_ps_, lut_guard_ps_);
    std::string out = line;
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            if (!characterized(key, static_cast<Stage>(s))) continue;
            std::snprintf(line, sizeof line, "%d %d %.17g\n", key, s,
                          raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)]);
            out += line;
        }
    }
    return out;
}

namespace {

/// The whole of `text` as a finite double, or nullopt (empty text, trailing
/// characters, inf/nan, out of range).
std::optional<double> parse_finite(std::string_view text) {
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value)) return std::nullopt;
    return value;
}

/// The finite number after `name=` in a header field, or a ParseError.
double header_number(const std::string& field, std::string_view name) {
    const auto value = parse_finite(std::string_view(field).substr(name.size() + 1));
    if (!value) {
        throw ParseError("delay table " + std::string(name) + " wants a finite number: " + field, 1);
    }
    return *value;
}

}  // namespace

DelayTable DelayTable::deserialize(const std::string& text) {
    std::istringstream in(text);
    std::string header;
    std::getline(in, header);
    const auto fields = split_whitespace(header);
    if (fields.size() != 4 || fields[0] != "delay_table" || fields[1] != "v2" ||
        !starts_with(fields[2], "static_ps=") || !starts_with(fields[3], "guard_ps=")) {
        throw ParseError("malformed delay table header (want delay_table v2): " + header, 1);
    }
    const double static_ps = header_number(fields[2], "static_ps");
    const double guard_ps = header_number(fields[3], "guard_ps");
    if (static_ps <= 0) throw ParseError("delay table static_ps must be positive", 1);
    if (guard_ps < 0) throw ParseError("delay table guard_ps must not be negative", 1);
    DelayTable table(static_ps, guard_ps);
    std::string line;
    int line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty()) continue;
        const auto parts = split_whitespace(line);
        if (parts.size() != 3) throw ParseError("malformed delay table entry", line_no);
        const auto key = parse_int(parts[0]);
        const auto stage = parse_int(parts[1]);
        if (!key || !stage || *key < 0 || *key >= kKeyCount || *stage < 0 ||
            *stage >= sim::kStageCount) {
            throw ParseError("delay table entry out of range", line_no);
        }
        const auto raw = parse_finite(parts[2]);
        if (!raw || *raw <= 0) {
            throw ParseError("delay table entry wants a finite positive delay: " + parts[2],
                             line_no);
        }
        const auto occ = static_cast<OccKey>(*key);
        const auto at = static_cast<Stage>(*stage);
        if (table.characterized(occ, at)) throw ParseError("repeated delay table entry", line_no);
        table.set_characterized(occ, at, *raw);
    }
    return table;
}

}  // namespace focs::dta
