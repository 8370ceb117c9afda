#include "runtime/sweep_spec.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "timing/cell_library.hpp"
#include "workloads/kernel.hpp"

namespace focs::runtime {

namespace {

/// Upper bound on taps:N. Each instance holds N periods, so the bound
/// keeps one spec line (or one daemon request) from reserving gigabytes; it
/// is far above any realistic ring-oscillator tap count.
constexpr std::int64_t kMaxTaps = 4096;

/// Upper bound on the sources of one pll: bank. A multi-PLL bank has a
/// handful of outputs; the cap keeps one spec line from building a bank,
/// and a cell label every result row repeats, with millions of entries.
constexpr std::size_t kMaxPllSources = 64;

/// Upper bound on guard_ps. The guard is added to every characterized LUT
/// entry before the clamp to the static period, which spans ~0.8 ns (0.90 V)
/// to ~5 ns (0.50 V). A guard of the order of the static period clamps every
/// entry, so the LUT policy degenerates to static clocking and reports a
/// meaningless ~1.0x. 1 ns is half the nominal (0.70 V) static period and
/// 40x the default 25 ps guard, far above any realistic margin.
constexpr double kMaxGuardPs = 1000.0;

std::string format_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

double parse_double(const std::string& text) {
    try {
        std::size_t pos = 0;
        const double value = std::stod(text, &pos);
        check(pos == text.size(), "trailing characters in number '" + text + "'");
        return value;
    } catch (const std::invalid_argument&) {
        throw Error("malformed number '" + text + "'");
    } catch (const std::out_of_range&) {
        throw Error("number out of range '" + text + "'");
    }
}

/// Parses a non-negative integer that must fit the int field it lands in
/// (a bare cast would wrap 99999999999 to 1215752191).
int parse_count(const std::string& text, const std::string& what) {
    const auto n = parse_int(text);
    check(n.has_value() && *n >= 0 && *n <= std::numeric_limits<int>::max(),
          "bad " + what + " '" + text + "'");
    return static_cast<int>(*n);
}

std::vector<std::string> split_list(const std::string& value) {
    std::vector<std::string> items;
    for (const auto& piece : split(value, ',')) {
        if (!piece.empty()) items.push_back(piece);
    }
    return items;
}

/// Refuses a repeated entry on one axis: it would only evaluate copies of
/// the same cells. `keys` are the entries' canonical forms.
void reject_duplicates(const std::string& axis, const std::vector<std::string>& keys) {
    std::set<std::string> seen;
    for (const auto& key : keys) {
        if (!seen.insert(key).second) {
            throw Error("duplicate " + axis + " '" + key + "' in sweep spec");
        }
    }
}

}  // namespace

std::string GeneratorSpec::label() const {
    switch (kind) {
        case Kind::kIdeal: return "ideal";
        case Kind::kQuantized: return "taps:" + std::to_string(num_taps);
        case Kind::kPllBank: {
            std::string label = "pll:";
            for (std::size_t i = 0; i < periods_ps.size(); ++i) {
                if (i > 0) label += '/';
                label += format_double(periods_ps[i]);
            }
            label += ':' + std::to_string(min_dwell_cycles);
            return label;
        }
    }
    check(false, "unknown generator kind");
    return {};
}

GeneratorSpec GeneratorSpec::parse(const std::string& text) {
    GeneratorSpec spec;
    if (text == "ideal") return spec;
    if (starts_with(text, "taps:")) {
        spec.kind = Kind::kQuantized;
        const auto taps = parse_int(text.substr(5));
        check(taps.has_value() && *taps >= 2 && *taps <= kMaxTaps,
              "generator '" + text + "': need taps:N with 2 <= N <= " + std::to_string(kMaxTaps));
        spec.num_taps = static_cast<int>(*taps);
        return spec;
    }
    if (starts_with(text, "pll:")) {
        const auto parts = split(text.substr(4), ':');
        check(parts.size() == 2, "generator '" + text + "': want pll:P1/P2/...:DWELL");
        spec.kind = Kind::kPllBank;
        for (const auto& period : split(parts[0], '/')) {
            const double period_ps = parse_double(period);
            check(std::isfinite(period_ps) && period_ps > 0,
                  "generator '" + text + "': PLL periods must be finite and > 0");
            spec.periods_ps.push_back(period_ps);
        }
        check(!spec.periods_ps.empty(), "generator '" + text + "': no PLL periods");
        check(spec.periods_ps.size() <= kMaxPllSources,
              "generator '" + text + "': at most " + std::to_string(kMaxPllSources) +
                  " PLL periods");
        spec.min_dwell_cycles = parse_count(parts[1], "generator '" + text + "' dwell");
        return spec;
    }
    throw Error("unknown generator '" + text + "' (ideal|taps:N|pll:P1/P2/...:DWELL)");
}

std::unique_ptr<clocking::ClockGenerator> GeneratorSpec::instantiate(
    double static_period_ps) const {
    switch (kind) {
        case Kind::kIdeal: return std::make_unique<clocking::IdealClockGenerator>();
        case Kind::kQuantized:
            return std::make_unique<clocking::QuantizedClockGenerator>(
                clocking::QuantizedClockGenerator::for_static_period(static_period_ps,
                                                                     num_taps));
        case Kind::kPllBank:
            return std::make_unique<clocking::PllBankClockGenerator>(periods_ps,
                                                                     min_dwell_cycles);
    }
    check(false, "unknown generator kind");
    return nullptr;
}

double parse_voltage(const std::string& text) {
    // Only the cell library's calibrated range is physical: outside it the
    // delay model would extrapolate plausible-looking numbers.
    const timing::CellLibrary& library = timing::CellLibrary::fdsoi28();
    const double v = parse_double(text);
    if (std::isfinite(v) && v >= library.min_voltage() && v <= library.max_voltage()) return v;
    char range[64];
    std::snprintf(range, sizeof range, "%.2f-%.2f V", library.min_voltage(),
                  library.max_voltage());
    throw Error("voltage '" + text + "' outside the cell library's calibrated " + range);
}

SweepSpec SweepSpec::resolved() const {
    SweepSpec out = *this;
    if (out.kernels.empty()) {
        for (const auto& kernel : workloads::benchmark_suite()) out.kernels.push_back(kernel.name);
    }
    if (out.policies.empty()) out.policies.push_back(core::PolicySpec{});
    if (out.generators.empty()) out.generators.push_back(GeneratorSpec{});
    if (out.voltages_v.empty()) out.voltages_v.push_back(timing::DesignConfig{}.voltage_v);
    return out;
}

std::size_t SweepSpec::cell_count() const {
    const SweepSpec spec = resolved();
    return spec.kernels.size() * spec.policies.size() * spec.generators.size() *
           spec.voltages_v.size();
}

timing::DesignConfig SweepSpec::design_for(double voltage_v) const {
    timing::DesignConfig design;
    design.variant = variant;
    design.voltage_v = voltage_v;
    return design;
}

SweepSpec SweepSpec::parse(const std::string& text) {
    SweepSpec spec;
    int line_no = 0;
    for (const auto& raw_line : split(text, '\n')) {
        ++line_no;
        std::string line = raw_line;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line = line.substr(0, hash);
        }
        line = std::string(trim(line));
        if (line.empty()) continue;
        const auto eq = line.find('=');
        check(eq != std::string::npos,
              "sweep spec line " + std::to_string(line_no) + ": expected 'key = value'");
        const std::string key = std::string(trim(line.substr(0, eq)));
        const std::string value = std::string(trim(line.substr(eq + 1)));
        if (key == "kernels") {
            for (const auto& name : split_list(value)) spec.kernels.push_back(name);
        } else if (key == "policies") {
            for (const auto& name : split_list(value)) {
                spec.policies.push_back(core::PolicySpec::parse(name));
            }
        } else if (key == "generators") {
            for (const auto& label : split_list(value)) {
                spec.generators.push_back(GeneratorSpec::parse(label));
            }
        } else if (key == "voltages") {
            for (const auto& voltage : split_list(value)) {
                spec.voltages_v.push_back(parse_voltage(voltage));
            }
        } else if (key == "variant") {
            if (value == "conventional") {
                spec.variant = timing::DesignVariant::kConventional;
            } else if (value == "critical-range") {
                spec.variant = timing::DesignVariant::kCriticalRangeOptimized;
            } else {
                throw Error("unknown variant '" + value + "' (conventional|critical-range)");
            }
        } else if (key == "guard_ps") {
            spec.lut_guard_ps = parse_double(value);
            check(std::isfinite(spec.lut_guard_ps) && spec.lut_guard_ps >= 0 &&
                      spec.lut_guard_ps <= kMaxGuardPs,
                  "guard_ps '" + value + "' outside [0, " + format_double(kMaxGuardPs) + "] ps");
        } else if (key == "min_occurrences") {
            spec.min_occurrences = parse_count(value, "min_occurrences");
        } else if (key == "jobs") {
            spec.jobs = parse_count(value, "jobs");
        } else {
            throw Error("unknown sweep spec key '" + key + "'");
        }
    }
    reject_duplicates("kernel", spec.kernels);
    std::vector<std::string> policies, generators, voltages;
    for (const auto& policy : spec.policies) policies.push_back(policy.label());
    for (const auto& generator : spec.generators) generators.push_back(generator.label());
    for (const double voltage : spec.voltages_v) voltages.push_back(format_double(voltage));
    reject_duplicates("policy", policies);
    reject_duplicates("generator", generators);
    reject_duplicates("voltage", voltages);
    return spec;
}

std::string SweepSpec::serialize() const {
    std::string out;
    const auto join = [](const std::vector<std::string>& items) {
        std::string joined;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0) joined += ", ";
            joined += items[i];
        }
        return joined;
    };
    if (!kernels.empty()) out += "kernels = " + join(kernels) + "\n";
    if (!policies.empty()) {
        std::vector<std::string> names;
        for (const auto& policy : policies) names.push_back(policy.label());
        out += "policies = " + join(names) + "\n";
    }
    if (!generators.empty()) {
        std::vector<std::string> labels;
        for (const auto& generator : generators) labels.push_back(generator.label());
        out += "generators = " + join(labels) + "\n";
    }
    if (!voltages_v.empty()) {
        std::vector<std::string> values;
        for (const auto voltage : voltages_v) values.push_back(format_double(voltage));
        out += "voltages = " + join(values) + "\n";
    }
    out += std::string("variant = ") +
           (variant == timing::DesignVariant::kConventional ? "conventional" : "critical-range") +
           "\n";
    if (lut_guard_ps >= 0) out += "guard_ps = " + format_double(lut_guard_ps) + "\n";
    if (min_occurrences >= 0) out += "min_occurrences = " + std::to_string(min_occurrences) + "\n";
    if (jobs > 0) out += "jobs = " + std::to_string(jobs) + "\n";
    return out;
}

}  // namespace focs::runtime
