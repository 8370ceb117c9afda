// Fixed-bin histogram with summary statistics and ASCII rendering.
//
// Used for all delay/slack distributions in the reproduction (paper Figs 3,
// 5 and 7 are histograms of picosecond delays).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace focs {

/// Histogram over [lo, hi) with `bins` equal-width bins. Samples outside the
/// range are clamped into the first/last bin so no data is silently dropped.
class Histogram {
public:
    Histogram(double lo, double hi, int bins);

    void add(double x, std::uint64_t weight = 1);

    /// Merges a histogram with identical binning.
    void merge(const Histogram& other);

    /// Returns a copy with `bins` coarser bins (`bins` must divide bins()).
    /// Counts are summed groupwise; the summary statistics carry over
    /// unchanged since they describe the underlying samples, not the bins.
    /// Lets a fine-grained accumulator (e.g. the batched analyzer's
    /// figure histograms) serve figure queries at any coarser resolution.
    Histogram coarsened(int bins) const;

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    int bins() const { return static_cast<int>(counts_.size()); }
    double bin_width() const { return width_; }

    std::uint64_t count(int bin) const { return counts_.at(static_cast<std::size_t>(bin)); }
    std::uint64_t total() const { return stats_.count(); }

    /// Lower edge of bin `bin`.
    double bin_lo(int bin) const { return lo_ + width_ * bin; }

    const RunningStats& stats() const { return stats_; }

    /// Value below which `q` (in [0,1]) of the mass lies, interpolated
    /// within the containing bin.
    double quantile(double q) const;

    /// Multi-line ASCII bar chart; `width` is the maximum bar length.
    /// Empty leading/trailing bins are elided.
    std::string render_ascii(int width = 60) const;

private:
    double lo_;
    double hi_;
    double width_;
    double inv_width_;  ///< 1 / width, hoisting the divide out of add()
    std::vector<std::uint64_t> counts_;
    RunningStats stats_;
};

}  // namespace focs
