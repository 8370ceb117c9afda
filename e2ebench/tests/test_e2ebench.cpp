// Tests of the end-to-end benchmark's own code: the traced re-execution
// matches SweepEngine byte for byte, the generated inputs are a pure
// function of the seed, and the tail helper refuses thin tails.
#include <gtest/gtest.h>

#include <set>

#include "inputs.hpp"
#include "orchestrate.hpp"
#include "runtime/result_io.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

namespace fr = focs::runtime;

fr::SweepSpec small_grid() {
    return fr::SweepSpec::parse(
        "kernels = crc32, fibcall\n"
        "policies = static, lut, genie, approx-lut\n"
        "generators = ideal, taps:8, pll:1300/1500:4\n"
        "voltages = 0.6, 0.8\n");
}

RequestMix mix() {
    RequestMix m;
    m.kernels = {"crc32", "fir", "matmult", "fibcall"};
    m.voltages = {0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9};
    m.zipf_exponent = 1.0;
    return m;
}

bool same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].due_ms != b[i].due_ms || a[i].kernel != b[i].kernel ||
            a[i].voltage_lo != b[i].voltage_lo || a[i].voltage_hi != b[i].voltage_hi) {
            return false;
        }
    }
    return true;
}

TEST(TracedSweep, ByteIdenticalToSweepEngine) {
    for (const fr::SweepSpec& spec :
         {small_grid(), permuted_spec(small_grid(), 7),
          fr::SweepSpec::parse("kernels = crc32, fir\npolicies = lut\ngenerators = ideal\n"
                               "voltages = 0.6, 0.8\n")}) {
        const std::string expected = fr::to_json(fr::SweepEngine(1).run(spec), false);
        LayerTrace trace;
        TracedSweep traced(trace);
        EXPECT_EQ(fr::to_json(traced.run(spec), false), expected);
        // A second run on the same recorder starts from fresh artifacts.
        EXPECT_EQ(fr::to_json(traced.run(spec), false), expected);
    }
}

TEST(TracedSweep, RecordsOneSpanPerLayerCall) {
    LayerTrace trace;
    TracedSweep traced(trace);
    traced.run(small_grid());
    const auto count = [&](const std::string& name) {
        std::size_t n = 0;
        for (const auto& event : trace.events()) n += event.name == name;
        return n;
    };
    EXPECT_EQ(count("dta.characterize"), 1u);
    EXPECT_EQ(count("dta.scale_table"), 2u);      // one per voltage
    EXPECT_EQ(count("sim.record_trace"), 2u);     // one per kernel
    EXPECT_EQ(count("timing.unit_delays"), 2u);   // one per kernel
    EXPECT_EQ(count("asm.assemble"), 3u);         // characterization suite + 2 kernels
    EXPECT_EQ(count("core.replay_fused"), 16u);   // 2 V x 2 kernels x 4 policies
    EXPECT_GT(traced.counts().trace_cycles, 0u);
    const FamilySplit split = traced.split_families();
    EXPECT_GT(split.ideal_ms, 0);
    EXPECT_GT(split.taps_ms, 0);
    EXPECT_GT(split.pll_ms, 0);
    EXPECT_EQ(count("core.replay_pll"), 16u);
}

TEST(Inputs, PermutationIsAPureFunctionOfTheSeedAndKeepsTheCellSet) {
    const fr::SweepSpec grid = small_grid();
    EXPECT_EQ(permuted_spec(grid, 3).serialize(), permuted_spec(grid, 3).serialize());
    std::set<std::string> orders;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        orders.insert(permuted_spec(grid, seed).serialize());
    }
    EXPECT_GT(orders.size(), 1u);
    const std::string a = fr::to_json(fr::SweepEngine(2).run(permuted_spec(grid, 1)), false);
    const std::string b = fr::to_json(fr::SweepEngine(2).run(permuted_spec(grid, 2)), false);
    EXPECT_EQ(cell_set_digest(a), cell_set_digest(b));
}

TEST(Inputs, ScheduleAndDrawsAreAPureFunctionOfTheSeed) {
    const auto first = open_loop_schedule(mix(), 100, 5000, 42);
    EXPECT_TRUE(same(first, open_loop_schedule(mix(), 100, 5000, 42)));
    EXPECT_FALSE(same(first, open_loop_schedule(mix(), 100, 5000, 43)));
    EXPECT_TRUE(same(warmup_draws(mix(), 50, 9), warmup_draws(mix(), 50, 9)));
    EXPECT_FALSE(same(warmup_draws(mix(), 50, 9), warmup_draws(mix(), 50, 10)));

    // Poisson at 100/s over 5 s: about 500 arrivals, due times ascending,
    // two distinct voltages per request, the most popular kernel first.
    EXPECT_GT(first.size(), 400u);
    EXPECT_LT(first.size(), 600u);
    std::vector<int> per_kernel(mix().kernels.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (i > 0) EXPECT_GE(first[i].due_ms, first[i - 1].due_ms);
        EXPECT_LT(first[i].voltage_lo, first[i].voltage_hi);
        ++per_kernel[static_cast<std::size_t>(first[i].kernel)];
    }
    EXPECT_GT(per_kernel[0], per_kernel[3]);
}

TEST(Inputs, RequestSpecFillsTheTemplate) {
    Arrival arrival;
    arrival.kernel = 1;
    arrival.voltage_lo = 0;
    arrival.voltage_hi = 7;
    const std::string text =
        request_spec("kernels = {kernel}\nvoltages = {voltages}\n", mix(), arrival);
    EXPECT_EQ(text, "kernels = fir\nvoltages = 0.55, 0.9\n");
    const fr::SweepSpec spec = fr::SweepSpec::parse(text);
    EXPECT_EQ(spec.voltages_v, (std::vector<double>{0.55, 0.9}));
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i) samples.push_back(i);
    EXPECT_EQ(tail(samples, 90), 90.0);  // ranks 91..100 lie beyond
    EXPECT_EQ(tail(samples, 91), std::nullopt);
    EXPECT_EQ(tail(samples, 90, 11), std::nullopt);
    EXPECT_EQ(tail(std::vector<double>(10, 1.0), 0), std::nullopt);
    EXPECT_EQ(tail({}, 50), std::nullopt);
    EXPECT_EQ(median(samples), 50.0);
    EXPECT_EQ(percentile(samples, 100), 100.0);
}

TEST(Stats, SamplesForTailIsTheThreshold) {
    for (const double p : {0.0, 50.0, 70.0, 75.0, 90.0}) {
        const std::size_t n = samples_for_tail(p);
        EXPECT_TRUE(tail(std::vector<double>(n, 1.0), p).has_value()) << p;
        EXPECT_FALSE(tail(std::vector<double>(n - 1, 1.0), p).has_value()) << p;
    }
    EXPECT_EQ(samples_for_tail(70), 34u);   // rank 24 of 34: ten lie beyond
    EXPECT_EQ(samples_for_tail(90), 100u);  // rank 90 of 100
}

}  // namespace
}  // namespace e2ebench
