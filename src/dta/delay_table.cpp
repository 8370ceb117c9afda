#include "dta/delay_table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "isa/isa_info.hpp"
#include "timing/delay_model.hpp"

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

void DelayTable::set(OccKey key, Stage stage, double delay_ps) {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    check(delay_ps > 0, "delay table entry must be positive");
    has_raw_ = false;
    delays_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = delay_ps;
    present_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = true;
    effective_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(key)] = delay_ps;
}

void DelayTable::set_characterized(OccKey key, Stage stage, double raw_max_ps) {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    check(raw_max_ps > 0, "raw characterized maximum must be positive");
    check(has_raw_, "cannot mix raw characterized entries into a legacy table");
    raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = raw_max_ps;
    const double entry = std::min(raw_max_ps + lut_guard_ps_, static_period_ps_);
    delays_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = entry;
    present_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = true;
    effective_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(key)] = entry;
}

bool DelayTable::characterized(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    return present_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)];
}

double DelayTable::lookup(OccKey key, Stage stage) const {
    return characterized(key, stage)
               ? delays_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)]
               : static_period_ps_;
}

double DelayTable::cycle_period_ps(const std::array<OccKey, sim::kStageCount>& keys) const {
    double period = 0;
    for (int s = 0; s < sim::kStageCount; ++s) {
        const double d = lookup(keys[static_cast<std::size_t>(s)], static_cast<Stage>(s));
        if (d > period) period = d;
    }
    return period;
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
            if (has_raw_) {
                // Scale the raw maximum, then re-apply the voltage-
                // independent guard band and the scaled static clamp inside
                // set_characterized — the exact expression a reference
                // characterization at the target operating point computes.
                out.set_characterized(
                    key, static_cast<Stage>(s),
                    raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] * factor);
            } else {
                out.set(key, static_cast<Stage>(s),
                        delays_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] *
                            factor);
            }
        }
    }
    return out;
}

std::string DelayTable::serialize() const {
    char line[160];
    std::string out;
    if (has_raw_) {
        // v2: raw maxima at full precision so a deserialized table keeps
        // producing bit-identical scaled() views.
        std::snprintf(line, sizeof line, "delay_table v2 static_ps=%.17g guard_ps=%.17g\n",
                      static_period_ps_, lut_guard_ps_);
        out = line;
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
    out = "delay_table v1 static_ps=" + std::to_string(static_period_ps_) + "\n";
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            if (!characterized(key, static_cast<Stage>(s))) continue;
            std::snprintf(line, sizeof line, "%d %d %.4f\n", key, s,
                          delays_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)]);
            out += line;
        }
    }
    return out;
}

DelayTable DelayTable::deserialize(const std::string& text) {
    std::istringstream in(text);
    std::string header;
    std::getline(in, header);
    const auto fields = split_whitespace(header);
    const bool v1 = fields.size() == 3 && fields[1] == "v1" && starts_with(fields[2], "static_ps=");
    const bool v2 = fields.size() == 4 && fields[1] == "v2" &&
                    starts_with(fields[2], "static_ps=") && starts_with(fields[3], "guard_ps=");
    if (fields.empty() || fields[0] != "delay_table" || (!v1 && !v2)) {
        throw ParseError("malformed delay table header: " + header);
    }
    const double guard = v2 ? std::stod(fields[3].substr(9)) : 0.0;
    DelayTable table(std::stod(fields[2].substr(10)), guard);
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
        if (v2) {
            table.set_characterized(static_cast<OccKey>(*key), static_cast<Stage>(*stage),
                                    std::stod(parts[2]));
        } else {
            table.set(static_cast<OccKey>(*key), static_cast<Stage>(*stage), std::stod(parts[2]));
        }
    }
    return table;
}

}  // namespace focs::dta
