// Tests for shared utilities: stats, histogram, strings, rng, tables,
// units, error taxonomy, cancellation tokens and fault injection.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace focs {
namespace {

TEST(Units, PeriodFrequencyInverse) {
    EXPECT_NEAR(mhz_from_period_ps(2026.0), 493.58, 0.01);
    EXPECT_NEAR(period_ps_from_mhz(494.0), 2024.29, 0.01);
    EXPECT_NEAR(period_ps_from_mhz(mhz_from_period_ps(1337.0)), 1337.0, 1e-9);
}

TEST(Units, EnergyConversion) {
    // 1000 uW for 1 ns = 1 pJ.
    EXPECT_NEAR(pj_from_uw_ps(1000.0, 1000.0), 1.0, 1e-12);
}

TEST(RunningStats, Moments) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
    RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = i * 0.37;
        (i % 2 == 0 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Histogram, BinningAndStats) {
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) h.add(i + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (int b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
    EXPECT_NEAR(h.stats().mean(), 5.0, 1e-12);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 0.51);
}

TEST(Histogram, OutOfRangeClamped) {
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, MergeRequiresIdenticalBinning) {
    Histogram a(0.0, 10.0, 5);
    Histogram b(0.0, 10.0, 6);
    EXPECT_THROW(a.merge(b), Error);
}

TEST(Histogram, CoarsenedSumsGroupsAndKeepsStats) {
    Histogram fine(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) fine.add(0.5 + i);
    const Histogram coarse = fine.coarsened(5);
    EXPECT_EQ(coarse.bins(), 5);
    EXPECT_EQ(coarse.total(), fine.total());
    for (int b = 0; b < 5; ++b) EXPECT_EQ(coarse.count(b), 2u) << b;
    // Summary statistics describe the underlying samples, not the bins.
    EXPECT_DOUBLE_EQ(coarse.stats().mean(), fine.stats().mean());
    EXPECT_THROW(fine.coarsened(3), Error);   // 3 does not divide 10
    EXPECT_THROW(fine.coarsened(0), Error);
}

TEST(Histogram, RenderContainsSummary) {
    Histogram h(0.0, 100.0, 4);
    h.add(10);
    h.add(90);
    const std::string text = h.render_ascii(20);
    EXPECT_NE(text.find("n=2"), std::string::npos);
    EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangesRespected) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next_range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const double d = rng.next_double(1.0, 2.0);
        EXPECT_GE(d, 1.0);
        EXPECT_LT(d, 2.0);
    }
}

TEST(Rng, HashUnitDoubleIsUniformish) {
    RunningStats s;
    for (std::uint64_t i = 0; i < 10000; ++i) s.add(hash_unit_double(i));
    EXPECT_NEAR(s.mean(), 0.5, 0.02);
    EXPECT_GE(s.min(), 0.0);
    EXPECT_LT(s.max(), 1.0);
}

TEST(Strings, TrimSplit) {
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    const auto parts = split("a, b ,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "b");
    const auto words = split_whitespace("  x\ty  z ");
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[2], "z");
}

TEST(Strings, ParseInt) {
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int("-17"), -17);
    EXPECT_EQ(parse_int("0x1f"), 31);
    EXPECT_EQ(parse_int("0b101"), 5);
    EXPECT_EQ(parse_int("0xFFFFFFFF"), 0xffffffffLL);
    EXPECT_FALSE(parse_int("").has_value());
    EXPECT_FALSE(parse_int("12x").has_value());
    EXPECT_FALSE(parse_int("0x").has_value());
}

TEST(TextTable, RendersAligned) {
    TextTable t({"Name", "Value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22222"});
    const std::string text = t.to_string();
    EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(text.find("| b     | 22222 |"), std::string::npos);
}

TEST(TextTable, ArityEnforced) {
    TextTable t({"A", "B"});
    EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Check, ThrowsWithLocation) {
    try {
        check(false, "boom");
        FAIL();
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
    }
}

TEST(ErrorCode, NamesRoundTrip) {
    for (const ErrorCode code :
         {ErrorCode::kUnknown, ErrorCode::kArtifactBuild, ErrorCode::kEvaluation,
          ErrorCode::kDeadline, ErrorCode::kCancelled, ErrorCode::kInjected}) {
        EXPECT_EQ(parse_error_code(error_code_name(code)), code) << error_code_name(code);
    }
    EXPECT_THROW(parse_error_code("not-a-code"), Error);
}

TEST(ErrorCode, CarriedByErrorAndCancelledError) {
    const Error plain("plain");
    EXPECT_EQ(plain.code(), ErrorCode::kUnknown);
    const Error coded("boom", ErrorCode::kArtifactBuild);
    EXPECT_EQ(coded.code(), ErrorCode::kArtifactBuild);
    const CancelledError cancelled("stop", ErrorCode::kDeadline);
    EXPECT_EQ(cancelled.code(), ErrorCode::kDeadline);
    // CancelledError stays catchable as the base Error.
    try {
        throw CancelledError("stop", ErrorCode::kCancelled);
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
}

TEST(CancellationToken, ExplicitRequestSharedAcrossCopies) {
    const CancellationToken token;
    const CancellationToken copy = token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throw_if_cancelled());
    copy.request_cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), ErrorCode::kCancelled);
    try {
        token.throw_if_cancelled();
        FAIL();
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
}

TEST(CancellationToken, DeadlineExpiresAndReportsReason) {
    const CancellationToken expired = CancellationToken::with_deadline_ms(0);
    EXPECT_TRUE(expired.cancelled());
    EXPECT_EQ(expired.reason(), ErrorCode::kDeadline);
    EXPECT_THROW(expired.throw_if_cancelled(), CancelledError);
    // A generous deadline has not fired yet; an explicit request wins the
    // reason tie-break once both hold.
    const CancellationToken soon = CancellationToken::with_deadline_ms(60000);
    EXPECT_FALSE(soon.cancelled());
    soon.request_cancel();
    EXPECT_EQ(soon.reason(), ErrorCode::kCancelled);
}

TEST(CancellationToken, DeadlineRangeIsCheckedBeforeConversion) {
    // A deadline beyond the ceiling (or NaN) would overflow the clock
    // duration it converts to; it is refused, never armed in the past.
    const double huge[] = {std::numeric_limits<double>::infinity(), 1e300,
                           CancellationToken::kMaxDeadlineMs * 2, std::nan("")};
    for (const double ms : huge) {
        EXPECT_FALSE(CancellationToken::valid_deadline_ms(ms)) << ms;
        EXPECT_THROW(CancellationToken::with_deadline_ms(ms), Error) << ms;
    }
    EXPECT_FALSE(CancellationToken::valid_deadline_ms(0));
    EXPECT_FALSE(CancellationToken::valid_deadline_ms(-5));
    EXPECT_TRUE(CancellationToken::valid_deadline_ms(CancellationToken::kMaxDeadlineMs));
    const CancellationToken longest =
        CancellationToken::with_deadline_ms(CancellationToken::kMaxDeadlineMs);
    EXPECT_FALSE(longest.cancelled());
}

TEST(FaultInjector, DisarmedByDefaultAndAfterEmptySpec) {
    fault::FaultInjector injector;
    EXPECT_FALSE(injector.armed());
    EXPECT_NO_THROW(injector.inject("build.program", "k"));
    injector.configure("build.*:1");
    EXPECT_TRUE(injector.armed());
    injector.configure("");
    EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, DecisionIsDeterministicPerSiteKeyAttemptSeed) {
    const fault::FaultInjector a("eval.cell:0.5:seed=7");
    const fault::FaultInjector b("eval.cell:0.5:seed=7");
    int fired = 0;
    for (int i = 0; i < 200; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        EXPECT_EQ(a.would_fire("eval.cell", key), b.would_fire("eval.cell", key)) << key;
        if (a.would_fire("eval.cell", key)) ++fired;
    }
    // Half-probability rule: the deterministic draw set lands near 50%.
    EXPECT_GT(fired, 60);
    EXPECT_LT(fired, 140);
    // Different attempts and seeds re-draw.
    const fault::FaultInjector reseeded("eval.cell:0.5:seed=8");
    bool any_attempt_differs = false;
    bool any_seed_differs = false;
    for (int i = 0; i < 50; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        any_attempt_differs |=
            a.would_fire("eval.cell", key, 0) != a.would_fire("eval.cell", key, 1);
        any_seed_differs |= a.would_fire("eval.cell", key) != reseeded.would_fire("eval.cell", key);
    }
    EXPECT_TRUE(any_attempt_differs);
    EXPECT_TRUE(any_seed_differs);
}

TEST(FaultInjector, SiteMatchingExactAndPrefixWildcard) {
    const fault::FaultInjector injector("build.*:1");
    EXPECT_TRUE(injector.would_fire("build.program", "k"));
    EXPECT_TRUE(injector.would_fire("build.delay_table", "k"));
    EXPECT_FALSE(injector.would_fire("eval.cell", "k"));
    const fault::FaultInjector exact("eval.cell:1");
    EXPECT_TRUE(exact.would_fire("eval.cell", "k"));
    EXPECT_FALSE(exact.would_fire("eval.cell2", "k"));
}

TEST(FaultInjector, MaxFiresCapsDeterministically) {
    fault::FaultInjector injector("build.delay_table:1:max=2");
    EXPECT_THROW(injector.inject("build.delay_table", "k", 0), Error);
    EXPECT_THROW(injector.inject("build.delay_table", "k", 1), Error);
    EXPECT_NO_THROW(injector.inject("build.delay_table", "k", 2));
    EXPECT_NO_THROW(injector.inject("build.delay_table", "other", 0));
    EXPECT_EQ(injector.fires(), 2u);
    // The thrown fault carries the injected error code and names the site.
    injector.configure("eval.cell:1");
    try {
        injector.inject("eval.cell", "crc32/lut/ideal@0.62V");
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInjected);
        EXPECT_NE(std::string(e.what()).find("eval.cell"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("crc32/lut/ideal@0.62V"), std::string::npos);
    }
}

TEST(FaultInjector, DelayRuleSleepsInsteadOfThrowing) {
    fault::FaultInjector injector("eval.cell:1:delay_ms=5");
    const auto start = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(injector.inject("eval.cell", "k"));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed_ms, 4.0);
    EXPECT_EQ(injector.fires(), 1u);
}

TEST(FaultInjector, MalformedSpecsRejected) {
    fault::FaultInjector injector;
    EXPECT_THROW(injector.configure(":0.5"), Error);               // missing site
    EXPECT_THROW(injector.configure("site:1.5"), Error);           // probability > 1
    EXPECT_THROW(injector.configure("site:abc"), Error);           // not a number
    EXPECT_THROW(injector.configure("site:0.5:0.7"), Error);       // duplicate probability
    EXPECT_THROW(injector.configure("site:1:seed=-1"), Error);     // negative seed
    EXPECT_THROW(injector.configure("site:1:max=0"), Error);       // max wants >= 1
    EXPECT_THROW(injector.configure("site:1:delay_ms=-2"), Error); // negative delay
    EXPECT_THROW(injector.configure("site:1:bogus=3"), Error);     // unknown option
    // A failed configure leaves the injector disarmed, not half-armed.
    EXPECT_FALSE(injector.armed());
    // Multi-rule specs with blank segments parse.
    injector.configure(" build.*:0.5:seed=3 ; ; eval.cell:1:max=1 ");
    EXPECT_TRUE(injector.armed());
    EXPECT_EQ(injector.rules().size(), 2u);
}

}  // namespace
}  // namespace focs
