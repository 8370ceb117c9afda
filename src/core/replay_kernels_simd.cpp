// Explicit SIMD implementations of the replay kernel table.
//
// This translation unit is the only one built with ISA-specific flags
// (CMake applies -mavx2 as a source-file property on x86-64; aarch64 has
// NEON in its baseline), so vector codegen never leaks into TUs that must
// run on the portable baseline. Selection is layered:
//   compile time — FOCS_SIMD_ENABLED (the FOCS_SIMD CMake option) plus the
//     ISA predicate (__AVX2__ / __aarch64__); anything else compiles this
//     TU down to a nullptr-returning stub, which is what the CI simd-parity
//     job byte-diffs against the default build;
//   run time — on x86 the AVX2 table is handed out only when the running
//     CPU reports AVX2 (__builtin_cpu_supports), so a generic binary is
//     safe on older cores;
//   per engine — ReplayOptions::force_scalar selects the scalar table
//     instead, the oracle the tests diff this one against.
//
// Byte-identity with the scalar kernels (the contract in
// replay_kernels.hpp) holds lane by lane: gathers read the same doubles,
// _mm256_max_pd / vmaxq_f64 over NaN-free non-negative inputs equals the
// scalar compare-and-replace, multiplies and the tolerance add are the
// same IEEE ops, and the violation count / worst-delta reductions are
// order-free. The integrated total is summed in strict cycle order from
// the same granted[] values the vector lanes see.
#include "core/replay_kernels.hpp"

#if defined(FOCS_SIMD_ENABLED) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace focs::core {
namespace {

// Four-key gather from one stage's value row, built from scalar loads:
// vgatherdpd is microcoded on the AMD cores this project benches on
// (several times the cost of four plain loads), while four vmovsd plus
// three shuffles sustain the load-port throughput on every AVX2 core.
// Identical lane values either way — these are the same doubles the
// scalar reference reads.
inline __m256d gather4_pd(const double* values, const dta::OccKey* row) {
    return _mm256_set_pd(values[static_cast<std::size_t>(row[3])],
                         values[static_cast<std::size_t>(row[2])],
                         values[static_cast<std::size_t>(row[1])],
                         values[static_cast<std::size_t>(row[0])]);
}

void gather_max_avx2(const GatherStage* stages, int stage_count, std::size_t begin,
                     std::size_t count, double* out) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (int s = 0; s < stage_count; ++s) {
            acc = _mm256_max_pd(acc, gather4_pd(stages[s].values, stages[s].keys + begin + i));
        }
        _mm256_storeu_pd(out + i, acc);
    }
    for (; i < count; ++i) {
        double m = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > m) m = d;
        }
        out[i] = m;
    }
}

void scale_avx2(const double* in, double factor, std::size_t count, double* out) {
    const __m256d vfactor = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_avx2(const double* granted, const double* unit, double scale,
                       double tolerance, std::size_t begin, std::size_t count, double* total,
                       std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vtol = _mm256_set1_pd(tolerance);
    // Worst-violation lanes accumulate by max and merge at the end
    // (order-free); seeding with the carried-in worst keeps the merge a
    // plain horizontal max.
    __m256d vworst = _mm256_set1_pd(worst_violation_ps);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d vgranted = _mm256_loadu_pd(granted + i);
        const __m256d required =
            _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i), vscale);
        const __m256d mask =
            _mm256_cmp_pd(_mm256_add_pd(vgranted, vtol), required, _CMP_LT_OQ);
        const int bits = _mm256_movemask_pd(mask);
        if (bits != 0) {
            violation_count += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
            // Violating lanes contribute required - granted; others 0.0,
            // absorbed by the max (worst is never negative).
            vworst = _mm256_max_pd(
                vworst, _mm256_and_pd(mask, _mm256_sub_pd(required, vgranted)));
        }
        // The integrated time is the one order-sensitive reduction: strict
        // cycle order, same as the scalar reference.
        total_time_ps += granted[i];
        total_time_ps += granted[i + 1];
        total_time_ps += granted[i + 2];
        total_time_ps += granted[i + 3];
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vworst);
    worst_violation_ps = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; i < count; ++i) {
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

constexpr ReplayKernels kAvx2Kernels = {
    &gather_max_avx2,
    &scale_avx2,
    &reduce_ideal_avx2,
    "avx2",
};

}  // namespace

const ReplayKernels* simd_replay_kernels() {
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    return supported ? &kAvx2Kernels : nullptr;
}

}  // namespace focs::core

#elif defined(FOCS_SIMD_ENABLED) && defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace focs::core {
namespace {

void gather_max_neon(const GatherStage* stages, int stage_count, std::size_t begin,
                     std::size_t count, double* out) {
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        float64x2_t acc = vdupq_n_f64(0.0);
        for (int s = 0; s < stage_count; ++s) {
            const dta::OccKey* row = stages[s].keys + begin + i;
            const double* values = stages[s].values;
            // No hardware gather on NEON: two scalar loads per vector.
            float64x2_t v = vdupq_n_f64(values[static_cast<std::size_t>(row[0])]);
            v = vsetq_lane_f64(values[static_cast<std::size_t>(row[1])], v, 1);
            acc = vmaxq_f64(acc, v);
        }
        vst1q_f64(out + i, acc);
    }
    for (; i < count; ++i) {
        double m = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > m) m = d;
        }
        out[i] = m;
    }
}

void scale_neon(const double* in, double factor, std::size_t count, double* out) {
    const float64x2_t vfactor = vdupq_n_f64(factor);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        vst1q_f64(out + i, vmulq_f64(vld1q_f64(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_neon(const double* granted, const double* unit, double scale,
                       double tolerance, std::size_t begin, std::size_t count, double* total,
                       std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const float64x2_t vscale = vdupq_n_f64(scale);
    const float64x2_t vtol = vdupq_n_f64(tolerance);
    float64x2_t vworst = vdupq_n_f64(worst_violation_ps);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const float64x2_t vgranted = vld1q_f64(granted + i);
        const float64x2_t required = vmulq_f64(vld1q_f64(unit + begin + i), vscale);
        const uint64x2_t mask = vcltq_f64(vaddq_f64(vgranted, vtol), required);
        if ((vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0) {
            violation_count += (vgetq_lane_u64(mask, 0) >> 63) + (vgetq_lane_u64(mask, 1) >> 63);
            const float64x2_t delta = vreinterpretq_f64_u64(
                vandq_u64(mask, vreinterpretq_u64_f64(vsubq_f64(required, vgranted))));
            vworst = vmaxq_f64(vworst, delta);
        }
        total_time_ps += granted[i];
        total_time_ps += granted[i + 1];
    }
    worst_violation_ps = std::max(vgetq_lane_f64(vworst, 0), vgetq_lane_f64(vworst, 1));
    for (; i < count; ++i) {
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

constexpr ReplayKernels kNeonKernels = {
    &gather_max_neon,
    &scale_neon,
    &reduce_ideal_neon,
    "neon",
};

}  // namespace

const ReplayKernels* simd_replay_kernels() { return &kNeonKernels; }

}  // namespace focs::core

#else  // FOCS_SIMD disabled or no SIMD implementation for this target.

namespace focs::core {

const ReplayKernels* simd_replay_kernels() { return nullptr; }

}  // namespace focs::core

#endif
