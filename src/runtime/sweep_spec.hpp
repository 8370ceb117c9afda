// Declarative description of a batch evaluation sweep.
//
// A SweepSpec names the grid the paper's methodology walks — kernels x
// policies x clock generators x voltage points, plus the characterization
// knobs (guard band, minimum occurrences) — without saying anything about
// how it executes. The SweepEngine expands the spec into independent jobs
// and runs them on a thread pool; the spec's declaration order fixes the
// order of the aggregated results, so a parallel run is byte-identical to
// a serial one.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "clock/clock_generator.hpp"
#include "core/policies.hpp"
#include "timing/design_config.hpp"

namespace focs::runtime {

/// Declarative clock-generator choice for one sweep axis point. Generators
/// are mutable (PLL dwell counters), so each job instantiates its own.
struct GeneratorSpec {
    enum class Kind { kIdeal, kQuantized, kPllBank };

    Kind kind = Kind::kIdeal;
    int num_taps = 0;                ///< quantized: taps in [static/2, static]
    std::vector<double> periods_ps;  ///< pll bank: available source periods
    int min_dwell_cycles = 0;        ///< pll bank: relock constraint

    /// Stable label, also the spec-file syntax: "ideal", "taps:N",
    /// "pll:P1/P2/...:DWELL".
    std::string label() const;
    static GeneratorSpec parse(const std::string& text);

    /// Builds a fresh generator instance for one job.
    std::unique_ptr<clocking::ClockGenerator> instantiate(double static_period_ps) const;
};

/// Parses one operating voltage (V) and checks that it lies in the cell
/// library's calibrated range; throws focs::Error otherwise. Shared by the
/// spec's `voltages` key and the CLI's --voltage.
double parse_voltage(const std::string& text);

/// The full sweep grid plus execution knobs. Empty axis vectors mean the
/// natural default (full benchmark suite, lut policy, ideal generator, the
/// design's default voltage).
struct SweepSpec {
    std::vector<std::string> kernels;
    /// Policy axis points; parameterized kinds carry their parameter
    /// ("approx-lut:0.8", "dual-cycle:3" in spec syntax). Bare PolicyKinds
    /// convert implicitly and get the kind's default parameter.
    std::vector<core::PolicySpec> policies;
    std::vector<GeneratorSpec> generators;
    std::vector<double> voltages_v;

    timing::DesignVariant variant = timing::DesignVariant::kCriticalRangeOptimized;
    double lut_guard_ps = -1;  ///< <0: analyzer default
    int min_occurrences = -1;  ///< <0: analyzer default
    int jobs = 0;              ///< worker threads; 0 = hardware concurrency

    /// Copy with every empty axis replaced by its default, so the grid shape
    /// is explicit. Kernels default to the full benchmark suite.
    SweepSpec resolved() const;

    /// Number of grid cells after resolution.
    std::size_t cell_count() const;

    /// Design config of one voltage point.
    timing::DesignConfig design_for(double voltage_v) const;

    /// Line-based "key = v1, v2, ..." format with '#' comments. Keys:
    /// kernels, policies, generators, voltages, variant, guard_ps,
    /// min_occurrences, jobs. Out-of-domain values are usage errors
    /// (focs::Error) here, before any build: voltages outside the cell
    /// library's calibrated range, taps:N or PLL source counts above a fixed
    /// cap, PLL periods that are not finite and positive, non-finite policy
    /// parameters, guard_ps outside [0, 1000] ps, integers that do not fit
    /// their field, and a repeated entry on any axis (kernel name, canonical
    /// policy or generator label, voltage value).
    static SweepSpec parse(const std::string& text);
    std::string serialize() const;
};

}  // namespace focs::runtime
