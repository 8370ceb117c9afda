// Order statistics of the end-to-end benchmark.
//
// Timings are reported as a median and a tail: the highest percentile that
// still has at least ten samples beyond it. Each workload fixes its tail
// percentile in config.json; closed-loop phases run until they hold
// samples_for_tail() samples, and the helper refuses to report a tail from
// fewer instead of quietly reading a near-maximum.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace e2ebench {

/// Samples a tail must have strictly beyond it.
inline constexpr std::size_t kMinBeyondTail = 10;

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

/// The p-th nearest-rank percentile when at least `min_beyond` samples lie
/// beyond its rank, nullopt otherwise.
std::optional<double> tail(std::vector<double> samples, double p,
                           std::size_t min_beyond = kMinBeyondTail);

/// The fewest samples for which tail(samples, p, min_beyond) is defined
/// (p in [0, 100)).
std::size_t samples_for_tail(double p, std::size_t min_beyond = kMinBeyondTail);

}  // namespace e2ebench
