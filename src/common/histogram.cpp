#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace focs {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
    check(bins > 0, "histogram needs at least one bin");
    check(hi > lo, "histogram range must be non-empty");
    counts_.assign(static_cast<std::size_t>(bins), 0);
    width_ = (hi - lo) / bins;
    inv_width_ = 1.0 / width_;
}

void Histogram::add(double x, std::uint64_t weight) {
    // Reciprocal multiply instead of a divide: add() runs several times per
    // cycle in the batched characterization fold (figure
    // accumulators), where the divide latency dominates the bin math.
    auto bin = static_cast<std::int64_t>(std::floor((x - lo_) * inv_width_));
    bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    counts_[static_cast<std::size_t>(bin)] += weight;
    for (std::uint64_t i = 0; i < weight; ++i) stats_.add(x);
}

void Histogram::merge(const Histogram& other) {
    check(other.counts_.size() == counts_.size() && other.lo_ == lo_ && other.hi_ == hi_,
          "histogram merge requires identical binning");
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    stats_.merge(other.stats_);
}

Histogram Histogram::coarsened(int new_bins) const {
    check(new_bins > 0 && bins() % new_bins == 0,
          "coarsened bin count must divide the histogram's bin count");
    Histogram out(lo_, hi_, new_bins);
    const std::size_t group = counts_.size() / static_cast<std::size_t>(new_bins);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        out.counts_[i / group] += counts_[i];
    }
    out.stats_ = stats_;
    return out;
}

double Histogram::quantile(double q) const {
    if (total() == 0) return lo_;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total());
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cumulative + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
            return bin_lo(static_cast<int>(i)) + frac * width_;
        }
        cumulative = next;
    }
    return hi_;
}

std::string Histogram::render_ascii(int width) const {
    std::string out;
    if (total() == 0) return "(empty histogram)\n";

    int first = 0;
    int last = static_cast<int>(counts_.size()) - 1;
    while (first < last && counts_[static_cast<std::size_t>(first)] == 0) ++first;
    while (last > first && counts_[static_cast<std::size_t>(last)] == 0) --last;

    const std::uint64_t peak = *std::max_element(counts_.begin() + first, counts_.begin() + last + 1);
    char line[160];
    for (int b = first; b <= last; ++b) {
        const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
        const int bar = peak > 0 ? static_cast<int>(static_cast<double>(c) * width / static_cast<double>(peak)) : 0;
        std::snprintf(line, sizeof line, "  [%8.1f, %8.1f) %8llu |", bin_lo(b), bin_lo(b) + width_,
                      static_cast<unsigned long long>(c));
        out += line;
        out.append(static_cast<std::size_t>(bar), '#');
        out += '\n';
    }
    std::snprintf(line, sizeof line, "  n=%llu mean=%.1f min=%.1f max=%.1f p50=%.1f p99=%.1f\n",
                  static_cast<unsigned long long>(total()), stats_.mean(), stats_.min(), stats_.max(),
                  quantile(0.5), quantile(0.99));
    out += line;
    return out;
}

}  // namespace focs
