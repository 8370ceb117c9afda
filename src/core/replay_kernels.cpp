// Portable scalar implementation of the replay kernel table. These loops
// are the oracle: the SIMD implementations in replay_kernels_simd.cpp must
// be elementwise byte-identical to them (see the header for the argument,
// tests/test_replay.cpp for the proof).
#include "core/replay_kernels.hpp"

#include <algorithm>

#include "sim/cycle_record.hpp"

namespace focs::core {
namespace {

void gather_max_scalar(const GatherStage* stages, int stage_count, std::size_t begin,
                       std::size_t count, double* out) {
    std::fill(out, out + count, 0.0);
    for (int s = 0; s < stage_count; ++s) {
        const dta::OccKey* row = stages[s].keys + begin;
        const double* values = stages[s].values;
        for (std::size_t i = 0; i < count; ++i) {
            const double d = values[static_cast<std::size_t>(row[i])];
            if (d > out[i]) out[i] = d;
        }
    }
}

void scale_scalar(const double* in, double factor, std::size_t count, double* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_scalar(const double* granted, const double* unit, double scale,
                         double tolerance, std::size_t begin, std::size_t count, double* total,
                         std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    for (std::size_t i = 0; i < count; ++i) {
        total_time_ps += granted[i];
        const double required = unit[begin + i] * scale;
        if (granted[i] + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted[i]);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

constexpr ReplayKernels kScalarKernels = {
    &gather_max_scalar,
    &scale_scalar,
    &reduce_ideal_scalar,
    "scalar",
};

}  // namespace

const ReplayKernels& scalar_replay_kernels() { return kScalarKernels; }

}  // namespace focs::core
