#include "clock/clock_generator.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace focs::clocking {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// std::lower_bound's index into ascending values[0..n), n >= 1, with no
/// data-dependent branch: the loop count depends on n alone.
std::size_t lower_bound_index(const double* values, std::size_t n, double value) {
    const double* base = values;
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half] < value ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - values) + (*base < value ? 1 : 0);
}

}  // namespace

void IdealClockGenerator::grant_block(const double* requested, std::size_t count,
                                      double* granted) {
    std::copy(requested, requested + count, granted);
}

QuantizedClockGenerator::QuantizedClockGenerator(double min_period_ps, double max_period_ps,
                                                 int num_taps)
    : min_period_ps_(min_period_ps) {
    check(num_taps >= 1, "need at least one tap");
    check(min_period_ps > 0 && max_period_ps >= min_period_ps, "invalid tap range");
    bounded_taps_.reserve(static_cast<std::size_t>(num_taps) + 2);
    bounded_taps_.push_back(-kInf);
    if (num_taps == 1) {
        bounded_taps_.push_back(max_period_ps);
    } else {
        const double step = (max_period_ps - min_period_ps) / (num_taps - 1);
        for (int i = 0; i < num_taps; ++i) bounded_taps_.push_back(min_period_ps + step * i);
        if (step > 0) taps_per_ps_ = 1.0 / step;
    }
    bounded_taps_.push_back(kInf);
}

QuantizedClockGenerator QuantizedClockGenerator::for_static_period(double static_period_ps,
                                                                   int num_taps) {
    return QuantizedClockGenerator(0.5 * static_period_ps, static_period_ps, num_taps);
}

double QuantizedClockGenerator::grant_period_ps(double requested_ps) {
    const std::span<const double> taps = this->taps();
    const auto it = std::lower_bound(taps.begin(), taps.end(), requested_ps);
    if (it == taps.end()) return requested_ps;  // beyond slowest tap: stretch
    return *it;
}

void QuantizedClockGenerator::grant_block(const double* requested, std::size_t count,
                                          double* granted) {
    const std::span<const double> taps = this->taps();
    const double* tap = taps.data();  // tap[-1] = -inf, tap[n] = +inf
    const auto n = static_cast<std::ptrdiff_t>(taps.size());
    const auto last = static_cast<double>(n);
    // A request in (tap[j-1], tap[j]] lies (j-1, j] spacings above the
    // fastest tap, so truncating that distance plus one guesses j. The
    // 2^-20 taken off keeps a request that rounds onto a tap on that tap.
    const double offset = 1.0 - 0x1p-20;
    for (std::size_t i = 0; i < count; ++i) {
        const double request = requested[i];
        double guess = (request - min_period_ps_) * taps_per_ps_ + offset;
        guess = guess < last ? guess : last;  // a NaN guess reads n
        guess = guess > 0 ? guess : 0;
        const auto k = static_cast<std::ptrdiff_t>(guess);
        const double ceiling = tap[k];
        if (tap[k - 1] < request && request <= ceiling && k < n) [[likely]] {
            granted[i] = ceiling;
        } else {
            // A wrong guess, a request beyond the slowest tap or a NaN
            // request: the oracle's lower_bound.
            granted[i] = grant_period_ps(request);
        }
    }
}

std::string QuantizedClockGenerator::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "ring-osc/%zu-taps", taps().size());
    return buf;
}

PllBankClockGenerator::PllBankClockGenerator(std::vector<double> periods_ps, int min_dwell_cycles)
    : periods_(std::move(periods_ps)), min_dwell_cycles_(min_dwell_cycles) {
    check(!periods_.empty(), "PLL bank needs at least one source");
    check(min_dwell_cycles >= 0, "negative dwell");
    std::sort(periods_.begin(), periods_.end());
}

void PllBankClockGenerator::reset() {
    current_ = 0;
    dwell_ = 0;
}

double PllBankClockGenerator::grant_period_ps(double requested_ps) {
    // Smallest source covering the request; beyond the slowest source we
    // stretch the slowest one.
    std::size_t want = periods_.size() - 1;
    double want_period = requested_ps;
    const auto it = std::lower_bound(periods_.begin(), periods_.end(), requested_ps);
    if (it != periods_.end()) {
        want = static_cast<std::size_t>(it - periods_.begin());
        want_period = *it;
    } else {
        want_period = std::max(requested_ps, periods_.back());
    }

    if (want >= current_) {
        // Slower or equal: always allowed.
        if (want != current_) dwell_ = 0;
        current_ = want;
        ++dwell_;
        return std::max(want_period, periods_[current_]);
    }
    // Faster: only after the dwell requirement is met.
    if (dwell_ >= min_dwell_cycles_) {
        current_ = want;
        dwell_ = 1;
        return want_period;
    }
    ++dwell_;
    return periods_[current_];
}

void PllBankClockGenerator::grant_block(const double* requested, std::size_t count,
                                        double* granted) {
    const double* periods = periods_.data();
    const std::size_t n = periods_.size();
    const int min_dwell = min_dwell_cycles_;
    std::size_t current = current_;
    int dwell = dwell_;
    for (std::size_t i = 0; i < count; ++i) {
        const double request = requested[i];
        // grant_period_ps's state machine over source indices: `want` is
        // the fastest source covering the request (the slowest beyond it).
        // A faster source waits out the dwell on the current one; any
        // other switch is immediate. The max stretches the slowest source
        // and leaves every covering source as it is.
        const std::size_t want = std::min(lower_bound_index(periods, n, request), n - 1);
        const bool hold = want < current && dwell < min_dwell;
        const std::size_t next = hold ? current : want;
        granted[i] = std::max(periods[next], request);
        dwell = next == current ? dwell + 1 : 1;
        current = next;
    }
    current_ = current;
    dwell_ = dwell;
}

std::string PllBankClockGenerator::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "pll-bank/%zu-sources", periods_.size());
    return buf;
}

}  // namespace focs::clocking
