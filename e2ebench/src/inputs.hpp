// Seeded input generation of the end-to-end benchmark.
//
// Every input the library or the daemon receives is produced here from the
// workload's seed and the checked-in spec files: the same seed gives the
// same inputs. Sweep workloads permute the axis order of their grid (the
// set of cells, and so the amount of work, is seed-independent); the
// serve_mixed workload draws an open-loop request schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sweep_spec.hpp"

namespace e2ebench {

/// `spec` with each axis (kernels, policies, generators, voltages)
/// shuffled by a Fisher-Yates pass seeded from `seed`. The grid's cell set
/// is unchanged; only the declaration order (and so the execution order
/// and the canonical document's cell order) depends on the seed.
focs::runtime::SweepSpec permuted_spec(const focs::runtime::SweepSpec& spec, std::uint64_t seed);

/// Knobs of the serve_mixed request mix (config.json "serve_mixed").
struct RequestMix {
    /// Kernels in popularity order: rank 0 is drawn most often.
    std::vector<std::string> kernels;
    /// Voltage axis; each request carries two distinct points.
    std::vector<double> voltages;
    /// P(rank r) is proportional to 1 / (r + 1)^zipf_exponent.
    double zipf_exponent = 1.0;
};

/// One scheduled request of an open-loop phase.
struct Arrival {
    double due_ms = 0;      ///< offset from the phase start
    int kernel = 0;         ///< index into RequestMix::kernels
    int voltage_lo = 0;     ///< index into RequestMix::voltages
    int voltage_hi = 0;     ///< > voltage_lo
};

/// Poisson arrivals at `rate_rps` over [0, duration_ms), each with a Zipf
/// kernel draw and a uniform draw of two distinct voltages. A pure
/// function of its arguments.
std::vector<Arrival> open_loop_schedule(const RequestMix& mix, double rate_rps,
                                        double duration_ms, std::uint64_t seed);

/// `count` requests drawn from the same mix with no timing (the untimed
/// warm-up that fills the daemon's cache).
std::vector<Arrival> warmup_draws(const RequestMix& mix, int count, std::uint64_t seed);

/// The request spec text of one arrival: the template with {kernel} and
/// {voltages} filled in.
std::string request_spec(const std::string& request_template, const RequestMix& mix,
                         const Arrival& arrival);

/// Reads a whole file; throws focs::Error when it cannot.
std::string read_file(const std::string& path);

}  // namespace e2ebench
