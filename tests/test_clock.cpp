// Clock generator tests: request/grant contracts of all CG models, and the
// block fast path against the per-cycle oracle at the generator edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "clock/clock_generator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace focs::clocking {
namespace {

TEST(Ideal, GrantsExactly) {
    IdealClockGenerator cg;
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1234.5), 1234.5);
}

TEST(Quantized, CeilsToNextTap) {
    QuantizedClockGenerator cg(1000.0, 2000.0, 11);  // taps every 100 ps
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1001.0), 1100.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1399.9), 1400.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(555.0), 1000.0);  // below range: slowest-safe tap
}

TEST(Quantized, BeyondSlowestTapStretches) {
    QuantizedClockGenerator cg(1000.0, 2000.0, 3);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(2500.0), 2500.0);
}

TEST(Quantized, NeverUnsafe) {
    QuantizedClockGenerator cg = QuantizedClockGenerator::for_static_period(2026.0, 16);
    for (double request = 900.0; request < 2300.0; request += 13.7) {
        EXPECT_GE(cg.grant_period_ps(request), request);
    }
}

TEST(Quantized, SingleTapDegeneratesToStatic) {
    QuantizedClockGenerator cg = QuantizedClockGenerator::for_static_period(2026.0, 1);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1100.0), 2026.0);
}

TEST(Quantized, MoreTapsNeverWorse) {
    QuantizedClockGenerator coarse = QuantizedClockGenerator::for_static_period(2026.0, 4);
    QuantizedClockGenerator fine = QuantizedClockGenerator::for_static_period(2026.0, 64);
    for (double request = 1013.0; request <= 2026.0; request += 7.0) {
        EXPECT_LE(fine.grant_period_ps(request), coarse.grant_period_ps(request));
    }
}

TEST(Quantized, RejectsBadConfig) {
    EXPECT_THROW(QuantizedClockGenerator(0.0, 100.0, 4), Error);
    EXPECT_THROW(QuantizedClockGenerator(200.0, 100.0, 4), Error);
    EXPECT_THROW(QuantizedClockGenerator(100.0, 200.0, 0), Error);
}

TEST(PllBank, SlowingDownIsImmediate) {
    PllBankClockGenerator cg({1000.0, 1500.0, 2000.0}, /*min_dwell_cycles=*/4);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(900.0), 1000.0);
    // Request slower: granted immediately.
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1800.0), 2000.0);
}

TEST(PllBank, SpeedingUpWaitsForDwell) {
    PllBankClockGenerator cg({1000.0, 2000.0}, /*min_dwell_cycles=*/3);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(2000.0), 2000.0);  // start slow, dwell=1
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 2000.0);  // dwell 2: still slow
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 2000.0);  // dwell 3: still slow
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);  // dwell satisfied
}

TEST(PllBank, AlwaysSafeDuringDwell) {
    PllBankClockGenerator cg({1000.0, 1400.0, 2000.0}, 5);
    for (double request : {2000.0, 1000.0, 1200.0, 1900.0, 1000.0, 1000.0, 1000.0}) {
        EXPECT_GE(cg.grant_period_ps(request), request);
    }
}

TEST(PllBank, ResetRestoresInitialState) {
    PllBankClockGenerator cg({1000.0, 2000.0}, 8);
    (void)cg.grant_period_ps(2000.0);
    cg.reset();
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);  // fresh start picks fast source
}

/// Requests at the edges of a generator's `periods` (each period exactly,
/// one ulp either side, below the fastest, beyond the slowest, non-finite
/// and non-positive values), then runs of those points drawn at random so
/// that a PLL bank meets and misses its dwell.
std::vector<double> edge_requests(const std::vector<double>& periods) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> points = {std::numeric_limits<double>::quiet_NaN(), -kInf, kInf, -1.0,
                                  0.0, 1.0};
    for (const double period : periods) {
        points.insert(points.end(), {period, std::nextafter(period, 0.0),
                                     std::nextafter(period, kInf), 0.5 * period, 1.5 * period});
    }
    std::vector<double> requests = points;
    Rng rng(0xc10c);
    while (requests.size() < points.size() + 6000) {
        const double point = points[rng.next_below(points.size())];
        requests.insert(requests.end(), rng.next_range(1, 6), point);
    }
    return requests;
}

/// Bit patterns, so that NaN grants compare equal to themselves.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    out.reserve(values.size());
    for (const double value : values) out.push_back(std::bit_cast<std::uint64_t>(value));
    return out;
}

std::vector<double> per_cycle_grants(ClockGenerator& cg, const std::vector<double>& requests) {
    cg.reset();
    std::vector<double> granted;
    granted.reserve(requests.size());
    for (const double request : requests) granted.push_back(cg.grant_period_ps(request));
    return granted;
}

/// grant_block over blocks of `block` requests. With `interleave`, every
/// other block is granted one grant_period_ps call at a time instead, so
/// the state crosses from each path to the other.
std::vector<double> block_grants(ClockGenerator& cg, const std::vector<double>& requests,
                                 std::size_t block, bool interleave) {
    cg.reset();
    std::vector<double> granted(requests.size());
    bool per_cycle = false;
    for (std::size_t begin = 0; begin < requests.size(); begin += block) {
        const std::size_t count = std::min(block, requests.size() - begin);
        if (per_cycle) {
            for (std::size_t i = begin; i < begin + count; ++i) {
                granted[i] = cg.grant_period_ps(requests[i]);
            }
        } else {
            cg.grant_block(requests.data() + begin, count, granted.data() + begin);
        }
        per_cycle = interleave && !per_cycle;
    }
    return granted;
}

struct EdgeCase {
    std::string label;
    std::unique_ptr<ClockGenerator> cg;
    std::vector<double> periods;  ///< the points edge_requests probes
    bool holds = false;           ///< a dwell keeps some request on a slower source
};

std::vector<EdgeCase> edge_cases() {
    std::vector<EdgeCase> cases;
    cases.push_back({"ideal", std::make_unique<IdealClockGenerator>(), {1000.0, 2026.0}});
    for (const int taps : {1, 2, 8, 4096}) {
        auto cg = std::make_unique<QuantizedClockGenerator>(
            QuantizedClockGenerator::for_static_period(2026.0, taps));
        std::vector<double> periods(cg->taps().begin(), cg->taps().end());
        cases.push_back({"taps:" + std::to_string(taps), std::move(cg), std::move(periods)});
    }
    // Taps every 100 ps, and taps that all coincide (zero spacing).
    for (const double max_period : {2000.0, 1000.0}) {
        auto cg = std::make_unique<QuantizedClockGenerator>(1000.0, max_period, 11);
        std::vector<double> periods(cg->taps().begin(), cg->taps().end());
        cases.push_back({"taps:11/" + std::to_string(max_period), std::move(cg),
                         std::move(periods)});
    }
    const std::vector<std::pair<std::vector<double>, int>> banks = {
        {{1500.0}, 4},                         // one source
        {{1000.0, 1500.0, 2000.0}, 0},         // dwell 0
        {{1300.0, 1500.0}, 4},                 // the realistic grid's bank
        {{900.0, 1400.0, 1400.0, 2100.0}, 0},  // duplicate periods
        {{2100.0, 1400.0, 900.0, 1400.0}, 3},  // duplicates, unsorted, dwell 3
    };
    for (const auto& [periods, dwell] : banks) {
        cases.push_back({"pll/" + std::to_string(periods.size()) + ":" + std::to_string(dwell),
                         std::make_unique<PllBankClockGenerator>(periods, dwell), periods,
                         periods.size() > 1 && dwell > 0});
    }
    return cases;
}

TEST(GrantBlock, MatchesPerCycleGrantsAtEveryBlockSplit) {
    for (EdgeCase& c : edge_cases()) {
        SCOPED_TRACE(c.label);
        const std::vector<double> requests = edge_requests(c.periods);
        ASSERT_GT(requests.size(), 4096u);  // the 4096 split has a partial block
        const std::vector<double> per_cycle = per_cycle_grants(*c.cg, requests);
        const auto want = bits(per_cycle);
        for (const std::size_t block : {1, 3, 7, 4096}) {
            for (const bool interleave : {false, true}) {
                SCOPED_TRACE("block=" + std::to_string(block) +
                             (interleave ? " interleaved" : ""));
                EXPECT_EQ(bits(block_grants(*c.cg, requests, block, interleave)), want);
            }
        }
        // The sequence reaches the dwell state machine: a bank with a dwell
        // holds some request above what a freshly reset bank grants it,
        // and no other generator ever does.
        std::size_t held = 0;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            c.cg->reset();
            const double fresh = c.cg->grant_period_ps(requests[i]);
            if (std::bit_cast<std::uint64_t>(fresh) != want[i]) ++held;
        }
        EXPECT_EQ(held > 0, c.holds) << held << " held cycles";
    }
}

TEST(Names, AreDescriptive) {
    EXPECT_EQ(IdealClockGenerator().name(), "ideal");
    EXPECT_NE(QuantizedClockGenerator(1, 2, 4).name().find("4-taps"), std::string::npos);
    EXPECT_NE(PllBankClockGenerator({1.0}, 0).name().find("1-sources"), std::string::npos);
}

}  // namespace
}  // namespace focs::clocking
