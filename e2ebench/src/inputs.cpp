#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace e2ebench {

namespace {

// Distinct streams per use of the seed, so e.g. the low- and high-rate
// schedules of one run are independent.
constexpr std::uint64_t kPermuteStream = 0x7065726d75746531ull;
constexpr std::uint64_t kScheduleStream = 0x7363686564756c65ull;
constexpr std::uint64_t kWarmupStream = 0x7761726d75703031ull;

template <typename T>
void shuffle(std::vector<T>& items, focs::Rng& rng) {
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.next_below(i)]);
    }
}

/// Inverse-CDF sampler of the Zipf-like kernel popularity.
class ZipfDraw {
public:
    ZipfDraw(std::size_t ranks, double exponent) {
        focs::check(ranks > 0, "request mix has no kernels");
        double total = 0;
        for (std::size_t r = 0; r < ranks; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) c /= total;
    }

    int operator()(focs::Rng& rng) const {
        const double u = rng.next_double();
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<int>(std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
    }

private:
    std::vector<double> cdf_;
};

Arrival draw_request(const RequestMix& mix, const ZipfDraw& zipf, focs::Rng& rng) {
    focs::check(mix.voltages.size() >= 2, "request mix needs at least two voltages");
    Arrival arrival;
    arrival.kernel = zipf(rng);
    const int n = static_cast<int>(mix.voltages.size());
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    if (b >= a) ++b;
    arrival.voltage_lo = std::min(a, b);
    arrival.voltage_hi = std::max(a, b);
    return arrival;
}

/// Shortest "%g" form that reads back as the same double (the spec parser
/// re-reads it).
std::string voltage_text(double volts) {
    char buf[32];
    for (int digits = 6; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, volts);
        if (std::strtod(buf, nullptr) == volts) break;
    }
    return buf;
}

std::string replace_all(std::string text, const std::string& from, const std::string& to) {
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
        text.replace(at, from.size(), to);
    }
    return text;
}

}  // namespace

focs::runtime::SweepSpec permuted_spec(const focs::runtime::SweepSpec& spec, std::uint64_t seed) {
    focs::runtime::SweepSpec out = spec.resolved();
    focs::Rng rng(focs::splitmix64(seed ^ kPermuteStream));
    shuffle(out.kernels, rng);
    shuffle(out.policies, rng);
    shuffle(out.generators, rng);
    shuffle(out.voltages_v, rng);
    return out;
}

std::vector<Arrival> open_loop_schedule(const RequestMix& mix, double rate_rps,
                                        double duration_ms, std::uint64_t seed) {
    focs::check(rate_rps > 0 && duration_ms > 0, "open-loop schedule wants a positive rate");
    const ZipfDraw zipf(mix.kernels.size(), mix.zipf_exponent);
    focs::Rng rng(focs::splitmix64(seed ^ kScheduleStream));
    std::vector<Arrival> schedule;
    const double mean_gap_ms = 1000.0 / rate_rps;
    for (double t = 0;;) {
        // Exponential inter-arrival gap; 1 - u lies in (0, 1], so log is finite.
        t += -std::log(1.0 - rng.next_double()) * mean_gap_ms;
        if (t >= duration_ms) break;
        Arrival arrival = draw_request(mix, zipf, rng);
        arrival.due_ms = t;
        schedule.push_back(arrival);
    }
    return schedule;
}

std::vector<Arrival> warmup_draws(const RequestMix& mix, int count, std::uint64_t seed) {
    const ZipfDraw zipf(mix.kernels.size(), mix.zipf_exponent);
    focs::Rng rng(focs::splitmix64(seed ^ kWarmupStream));
    std::vector<Arrival> draws;
    for (int i = 0; i < count; ++i) draws.push_back(draw_request(mix, zipf, rng));
    return draws;
}

std::string request_spec(const std::string& request_template, const RequestMix& mix,
                         const Arrival& arrival) {
    const std::string voltages =
        voltage_text(mix.voltages[static_cast<std::size_t>(arrival.voltage_lo)]) + ", " +
        voltage_text(mix.voltages[static_cast<std::size_t>(arrival.voltage_hi)]);
    return replace_all(
        replace_all(request_template, "{kernel}",
                    mix.kernels[static_cast<std::size_t>(arrival.kernel)]),
        "{voltages}", voltages);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw focs::Error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace e2ebench
