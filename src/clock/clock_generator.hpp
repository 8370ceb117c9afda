// Tunable clock generator models.
//
// The paper assumes a cycle-by-cycle tunable clock generator (CG), e.g. a
// tunable ring oscillator with a muxed output [9][10] or a multi-PLL
// clocking unit [11], and notes its design is outside the paper's scope.
// These models capture the first-order constraint such a CG imposes on DCA:
// the granted period is the requested period rounded UP to a realizable
// one, and some CGs cannot retune to a faster clock instantly.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace focs::clocking {

/// A CG answers one request per cycle. grant_period_ps is the per-cycle
/// oracle the live engine (DcaEngine::run) calls from its pipeline
/// observer; grant_block is the fast path the replay engine calls once per
/// trace block, with no virtual call per cycle. Both advance the same
/// generator state, so any interleaving of the two grants the sequence
/// that per-cycle calls alone would.
class ClockGenerator {
public:
    virtual ~ClockGenerator() = default;

    /// Returns the period the CG actually produces for this cycle.
    /// Postcondition: granted >= requested (never unsafe).
    virtual double grant_period_ps(double requested_ps) = 0;

    /// granted[i] = what the i-th of `count` successive grant_period_ps
    /// calls over requested[0..count) would return, bit for bit, with the
    /// generator state carried across calls. `granted` must not alias
    /// `requested`.
    virtual void grant_block(const double* requested, std::size_t count, double* granted) = 0;

    /// Re-arms the CG for a new run.
    virtual void reset() = 0;

    virtual std::string name() const = 0;
};

/// Continuously tunable CG: grants exactly the requested period.
class IdealClockGenerator final : public ClockGenerator {
public:
    double grant_period_ps(double requested_ps) override { return requested_ps; }
    void grant_block(const double* requested, std::size_t count, double* granted) override;
    void reset() override {}
    std::string name() const override { return "ideal"; }
};

/// Ring-oscillator style CG with `num_taps` equally spaced periods in
/// [min_period_ps, max_period_ps]; requests are ceiled to the next tap.
/// Requests above the slowest tap are granted verbatim (cycle stretching).
class QuantizedClockGenerator final : public ClockGenerator {
public:
    QuantizedClockGenerator(double min_period_ps, double max_period_ps, int num_taps);

    /// Convenience: taps spanning [0.5 * static, static].
    static QuantizedClockGenerator for_static_period(double static_period_ps, int num_taps);

    double grant_period_ps(double requested_ps) override;
    /// Guesses each request's tap from the even spacing and checks that
    /// the request lies between that tap and the one below it; a request
    /// the check refuses (stretch and NaN among them) takes
    /// grant_period_ps.
    void grant_block(const double* requested, std::size_t count, double* granted) override;
    void reset() override {}
    std::string name() const override;

    /// The taps, ascending.
    std::span<const double> taps() const {
        return {bounded_taps_.data() + 1, bounded_taps_.size() - 2};
    }

private:
    /// The taps between two sentinels, -inf before the fastest and +inf
    /// after the slowest, so grant_block reads a tap's neighbours without
    /// a bounds branch.
    std::vector<double> bounded_taps_;
    double min_period_ps_ = 0;
    double taps_per_ps_ = 0;  ///< inverse tap spacing; 0 for a single tap
};

/// Multi-PLL CG: a small set of clock sources; switching to a *faster*
/// clock is only possible after `min_dwell_cycles` on the current source
/// (relock/mux constraints), while switching to a slower clock (stretching)
/// is always possible. Safety is preserved by staying slow when in doubt.
class PllBankClockGenerator final : public ClockGenerator {
public:
    PllBankClockGenerator(std::vector<double> periods_ps, int min_dwell_cycles);

    double grant_period_ps(double requested_ps) override;
    void grant_block(const double* requested, std::size_t count, double* granted) override;
    void reset() override;
    std::string name() const override;

private:
    std::vector<double> periods_;  ///< ascending
    int min_dwell_cycles_;
    /// Index of the selected source and cycles spent on it. The reset
    /// state (source 0, no dwell) makes the first request a switch to a
    /// slower-or-equal source, which picks the source the request wants.
    std::size_t current_ = 0;
    int dwell_ = 0;
};

}  // namespace focs::clocking
