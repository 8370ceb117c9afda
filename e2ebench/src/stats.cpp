#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

namespace {

/// 1-based nearest rank of percentile p over n samples (n >= 1).
std::size_t nearest_rank(std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0;
    const std::size_t rank = nearest_rank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::optional<double> tail(std::vector<double> samples, double p, std::size_t min_beyond) {
    if (samples.empty() || samples.size() - nearest_rank(samples.size(), p) < min_beyond) {
        return std::nullopt;
    }
    return percentile(std::move(samples), p);
}

std::size_t samples_for_tail(double p, std::size_t min_beyond) {
    // n - rank(n) never decreases as n grows, so the first n that works is
    // the threshold.
    std::size_t n = std::max<std::size_t>(min_beyond, 1);
    while (n - nearest_rank(n, p) < min_beyond) ++n;
    return n;
}

}  // namespace e2ebench
