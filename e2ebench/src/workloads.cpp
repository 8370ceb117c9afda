#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "inputs.hpp"
#include "orchestrate.hpp"
#include "runtime/result_io.hpp"
#include "serve_client.hpp"
#include "service/client.hpp"
#include "service/sweep_server.hpp"
#include "stats.hpp"

namespace e2ebench {

namespace fr = focs::runtime;
using focs::json::field;

namespace {

constexpr fr::ArtifactClass kClasses[] = {fr::ArtifactClass::kProgram,
                                          fr::ArtifactClass::kDelayTable,
                                          fr::ArtifactClass::kTrace,
                                          fr::ArtifactClass::kUnitDelays};

double number(const focs::json::Object& object, const char* key) {
    return field(object, key).number();
}

int integer(const focs::json::Object& object, const char* key) {
    return static_cast<int>(number(object, key));
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(Clock::time_point start) { return ms_between(start, Clock::now()) / 1000.0; }

/// Tail percentile of a sample set. When the run produced too few samples
/// for the workload's fixed percentile (a host too slow to fill even a
/// stretched phase), it reports the maximum and says so on stderr: a thin
/// tail is a weak measurement, not a wrong output.
double tail_or_max(const std::vector<double>& samples, double p, const std::string& what) {
    if (const auto value = tail(samples, p)) return *value;
    std::fprintf(stderr, "focs_e2ebench: %s: %zu samples are too few for a p%d tail\n",
                 what.c_str(), samples.size(), static_cast<int>(p));
    return percentile(samples, 100);
}

std::string canonical_digest(const fr::SweepResult& result) {
    return fr::stable_text_hash(fr::to_json(result, /*include_timing=*/false));
}

void write_trace_file(const RunArgs& args, const LayerTrace& trace,
                      const std::map<std::string, std::uint64_t>& counters) {
    if (args.trace_dir.empty()) return;
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    std::ofstream out(path, std::ios::binary);
    out << trace.chrome_json(counters);
    if (!out) throw focs::Error("cannot write " + path);
}

/// Per-layer metrics a workload does not exercise read 0.
void zero_layers(WorkloadReport& report, std::initializer_list<const char*> names) {
    for (const char* name : names) report.metrics.emplace(name, 0.0);
}

// ------------------------------------------------------------ sweep workloads

/// The workload's generated input: the checked-in grid, axis-permuted by
/// the seed and re-parsed from its text (the text is what the library
/// receives).
fr::SweepSpec sweep_input(const RunArgs& args) {
    const fr::SweepSpec grid =
        fr::SweepSpec::parse(read_file(args.bench_dir + "/" + field(args.config, "spec").string()));
    return fr::SweepSpec::parse(permuted_spec(grid, args.seed).serialize());
}

/// Set-up of a sweep workload, timed: input generation plus the reference
/// digest from a serial fresh-cache run, whose cell set must match the
/// checked-in live-path digest. Serial, not at the low phase's 4 jobs:
/// per-thread malloc arenas made a 4-job set-up's peak RSS, which
/// peak_rss_mb reads, range from 129 to 186 MB between runs.
struct SweepSetup {
    fr::SweepSpec spec;
    std::string digest;
    double seconds = 0;
};

SweepSetup set_up_sweep(const RunArgs& args, Clock::time_point start, WorkloadReport& report) {
    SweepSetup setup;
    setup.spec = sweep_input(args);
    const fr::SweepResult reference = fr::SweepEngine(1).run(setup.spec);
    const std::string canonical = fr::to_json(reference, false);
    setup.digest = fr::stable_text_hash(canonical);
    const std::string live = field(args.config, "live_cell_digest").string();
    if (!reference.complete() || cell_set_digest(canonical) != live) {
        report.problems.push_back("serial reference run does not match the live-path digest " +
                                  live);
    }
    setup.seconds = seconds_since(start);
    return setup;
}

struct SweepSample {
    double sweep_ms = 0;  ///< SweepEngine::run
    double req_ms = 0;    ///< run + canonical serialization + digest
    std::uint64_t ok_cells = 0;
    bool ok = false;
};

/// A sweep phase stretches past its share of the window by at most this
/// factor to collect the samples its tail needs on a slow host.
constexpr double kPhaseStretchMax = 2.0;

/// `concurrency` closed-loop threads, each running fresh-cache sweeps at
/// `jobs`. The phase starts no sweep once `seconds` have passed and it holds
/// `min_samples`, nor any after kPhaseStretchMax * `seconds`.
std::vector<SweepSample> sweep_phase(const fr::SweepSpec& spec, const std::string& digest,
                                     int concurrency, int jobs, double seconds,
                                     std::size_t min_samples) {
    std::mutex mutex;
    std::vector<SweepSample> samples;
    std::size_t started = 0;
    const Clock::time_point begin = Clock::now();
    const auto after = [&](double s) {
        return begin +
               std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    const Clock::time_point end = after(seconds);
    const Clock::time_point cap = after(seconds * kPhaseStretchMax);
    const auto start_another = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        const Clock::time_point now = Clock::now();
        if (now >= cap || (now >= end && started >= min_samples)) return false;
        ++started;
        return true;
    };
    const auto loop = [&] {
        while (start_another()) {
            SweepSample sample;
            const Clock::time_point start = Clock::now();
            const fr::SweepEngine engine(jobs, std::make_shared<fr::ArtifactCache>());
            const fr::SweepResult result = engine.run(spec);
            const Clock::time_point ran = Clock::now();
            sample.ok = result.complete() && canonical_digest(result) == digest;
            sample.sweep_ms = ms_between(start, ran);
            sample.req_ms = ms_between(start, Clock::now());
            sample.ok_cells = sample.ok ? result.cells_ok : 0;
            std::lock_guard<std::mutex> lock(mutex);
            samples.push_back(sample);
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < concurrency; ++i) threads.emplace_back(loop);
    for (auto& thread : threads) thread.join();
    return samples;
}

void sweep_end_to_end(const RunArgs& args, const SweepSetup& setup, WorkloadReport& report) {
    const double p = number(args.config, "tail_percentile");
    const auto& low = field(args.config, "low").object();
    const auto& high = field(args.config, "high").object();
    const std::size_t min_samples = samples_for_tail(p);
    const Clock::time_point start = Clock::now();
    const auto low_samples = sweep_phase(setup.spec, setup.digest, integer(low, "concurrency"),
                                         integer(low, "jobs"), args.seconds / 2, min_samples);
    const auto high_samples = sweep_phase(setup.spec, setup.digest, integer(high, "concurrency"),
                                          integer(high, "jobs"), args.seconds / 2, min_samples);
    const double window_s = seconds_since(start);

    std::uint64_t ok_cells = 0;
    const auto collect = [&](const std::vector<SweepSample>& samples, std::vector<double>& sweep,
                             std::vector<double>& req) {
        for (const SweepSample& sample : samples) {
            ++report.attempted;
            if (!sample.ok) ++report.failed;
            ok_cells += sample.ok_cells;
            sweep.push_back(sample.sweep_ms);
            req.push_back(sample.req_ms);
        }
    };
    std::vector<double> sweep_low, req_low, sweep_high, req_high;
    collect(low_samples, sweep_low, req_low);
    collect(high_samples, sweep_high, req_high);

    auto& m = report.metrics;
    m["sweep_ms_p50"] = median(sweep_low);
    m["sweep_ms_tail"] = tail_or_max(sweep_low, p, "sweep_ms (low)");
    m["cells_per_s"] = static_cast<double>(ok_cells) / window_s;
    m["req_ms_p50_low"] = median(req_low);
    m["req_ms_tail_low"] = tail_or_max(req_low, p, "req_ms (low)");
    m["req_ms_p50_high"] = median(req_high);
    m["req_ms_tail_high"] = tail_or_max(req_high, p, "req_ms (high)");
}

/// The traced run's layer spans must sum to the untraced 1-job wall time
/// within this share (median over the run's iterations).
constexpr double kCoverageTolerance = 0.15;

/// The traced run: per iteration an untraced 1-job SweepEngine::run, the
/// traced re-execution (byte-compared against it) and the family split.
void sweep_layers(const RunArgs& args, const SweepSetup& setup, WorkloadReport& report) {
    LayerTrace trace;
    TracedSweep traced(trace);
    static const char* kLayers[] = {"asm.assemble",        "dta.characterize",
                                    "dta.scale_table",     "sim.record_trace",
                                    "timing.unit_delays",  "timing.scale_view",
                                    "core.replay_setup",   "core.replay_fused"};
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, std::uint64_t> counters;
    LayerCounts counts;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    do {
        ++report.attempted;
        const auto cache = std::make_shared<fr::ArtifactCache>();
        const Clock::time_point start = Clock::now();
        const fr::SweepResult result = fr::SweepEngine(1, cache).run(setup.spec);
        const Clock::time_point ran = Clock::now();
        const std::string document = fr::to_json(result, /*include_timing=*/true);
        const Clock::time_point serialized = Clock::now();
        const std::string canonical = fr::to_json(result, false);
        const double sweep_ms = ms_between(start, ran);

        const Clock::time_point traced_start = Clock::now();
        const fr::SweepResult rebuilt = traced.run(setup.spec);
        const double traced_ms = ms_between(traced_start, Clock::now());
        const FamilySplit split = traced.split_families();
        counts = traced.counts();
        if (fr::stable_text_hash(canonical) != setup.digest ||
            fr::to_json(rebuilt, false) != canonical) {
            ++report.failed;
            report.problems.push_back("traced re-execution differs from SweepEngine::run");
        }

        double layer_ms = 0;
        for (const char* layer : kLayers) {
            const double ms = trace.total_ms(layer, traced_start);
            series[std::string(layer) + "_ms"].push_back(ms);
            layer_ms += ms;
        }
        series["runtime.sweep_ms"].push_back(sweep_ms);
        series["runtime.serialize_ms"].push_back(ms_between(ran, serialized));
        series["runtime.unattributed_ms"].push_back(sweep_ms - layer_ms);
        series["runtime.layer_coverage"].push_back(layer_ms / sweep_ms);
        series["bench.trace_overhead"].push_back(traced_ms / sweep_ms);
        series["core.replay_ideal_ms"].push_back(split.ideal_ms);
        series["core.replay_taps_ms"].push_back(split.taps_ms);
        series["core.replay_pll_ms"].push_back(split.pll_ms);
        series["core.replay_variant_cycles_per_s"].push_back(
            static_cast<double>(counts.replay_variant_cycles) /
            (trace.total_ms("core.replay_fused", traced_start) / 1000.0));
        report.metrics["runtime.result_bytes"] = static_cast<double>(document.size());
        report.metrics["runtime.cache_bytes_max"] = static_cast<double>(cache->cached_bytes());
        std::uint64_t evicted = 0;
        for (const fr::ArtifactClass artifact_class : kClasses) {
            const fr::ArtifactClassCounters c = cache->class_counters(artifact_class);
            const std::string name = "cache." + fr::artifact_class_name(artifact_class);
            report.metrics["runtime." + name + ".miss"] = static_cast<double>(c.miss);
            report.metrics["runtime." + name + ".served"] = static_cast<double>(c.served());
            counters[name + ".miss"] = c.miss;
            counters[name + ".hit"] = c.hit;
            counters[name + ".wait"] = c.wait;
            evicted += cache->build_stats(artifact_class).evicted_lru;
        }
        report.metrics["runtime.cache.evicted_lru"] = static_cast<double>(evicted);
    } while (Clock::now() < end);

    for (const auto& [name, values] : series) report.metrics[name] = median(values);
    auto& m = report.metrics;
    const double coverage = m["runtime.layer_coverage"];
    if (coverage < 1 - kCoverageTolerance || coverage > 1 + kCoverageTolerance) {
        report.problems.push_back("layer spans cover " + std::to_string(coverage) +
                                  " of the untraced sweep wall time");
    }
    m["dta.characterize_cycles"] = static_cast<double>(counts.characterize_cycles);
    m["sim.trace_cycles"] = static_cast<double>(counts.trace_cycles);
    m["sim.trace_bytes"] = static_cast<double>(counts.trace_bytes);
    m["timing.unit_delays_bytes"] = static_cast<double>(counts.unit_delays_bytes);
    zero_layers(report, {"service.overhead_ms_p50", "service.connect_ms_p50",
                         "service.queue_depth_max", "service.shed", "service.response_bytes",
                         "service.client_parse_ms", "bench.gen_late_ms_p99",
                         "bench.gen_late_ms_max"});
    write_trace_file(args, trace, counters);
}

// -------------------------------------------------------------- serve_mixed

RequestMix request_mix(const focs::json::Object& config) {
    RequestMix mix;
    for (const auto& kernel : field(config, "kernels_by_popularity").array()) {
        mix.kernels.push_back(kernel.string());
    }
    for (const auto& voltage : field(config, "voltages").array()) {
        mix.voltages.push_back(voltage.number());
    }
    mix.zipf_exponent = number(config, "zipf_exponent");
    return mix;
}

/// Counters, gauges and histogram sums of GET /metricsz.
struct MetricsView {
    std::map<std::string, double> counters, gauges, histogram_sums;

    static MetricsView fetch(int port) {
        focs::service::HttpRequest request;
        request.method = "GET";
        request.target = "/metricsz";
        const auto response = focs::service::http_request(port, request);
        focs::check(response.status == 200, "GET /metricsz failed");
        const focs::json::Value doc = focs::json::parse(response.body);
        MetricsView view;
        for (const auto& [name, value] : field(doc.object(), "counters").object()) {
            view.counters[name] = value.number();
        }
        for (const auto& [name, value] : field(doc.object(), "gauges").object()) {
            view.gauges[name] = value.number();
        }
        for (const auto& [name, value] : field(doc.object(), "histograms").object()) {
            view.histogram_sums[name] = field(value.object(), "sum").number();
        }
        return view;
    }

    static double delta(const std::map<std::string, double>& after,
                        const std::map<std::string, double>& before, const std::string& name) {
        const auto a = after.find(name);
        const auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
    }
};

std::unique_ptr<focs::service::SweepServer> start_server(const focs::json::Object& config) {
    focs::service::ServerConfig server_config;
    server_config.max_inflight = integer(config, "max_inflight");
    server_config.jobs = integer(config, "jobs");
    server_config.queue_depth = integer(config, "queue_depth");
    server_config.cache_budget_bytes =
        static_cast<std::uint64_t>(number(config, "cache_budget_mb") * 1024 * 1024);
    auto server = std::make_unique<focs::service::SweepServer>(server_config);
    server->start();
    return server;
}

void stop_server(focs::service::SweepServer& server) {
    server.request_drain();
    server.wait();
}

}  // namespace

std::string cell_set_digest(const std::string& canonical_json) {
    std::vector<std::string> cells;
    std::istringstream in(canonical_json);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("    {\"kernel\"", 0) != 0) continue;
        if (!line.empty() && line.back() == ',') line.pop_back();
        cells.push_back(line);
    }
    std::sort(cells.begin(), cells.end());
    std::string joined;
    for (const std::string& cell : cells) joined += cell + "\n";
    return fr::stable_text_hash(joined);
}

std::string make_reference_digests(const std::string& bench_dir,
                                   const focs::json::Object& config) {
    std::string out = "{";
    bool first = true;
    for (const char* workload : {"grid_cold", "build_cold"}) {
        const auto& section = field(config, workload).object();
        const fr::SweepSpec spec =
            fr::SweepSpec::parse(read_file(bench_dir + "/" + field(section, "spec").string()));
        const fr::SweepResult live = fr::SweepEngine(0, nullptr, fr::EvalMode::kLive).run(spec);
        focs::check(live.complete(), std::string("live reference of ") + workload + " failed");
        out += std::string(first ? "" : ",") + "\n  \"" + workload + "\": \"" +
               cell_set_digest(fr::to_json(live, false)) + "\"";
        first = false;
    }
    return out + "\n}\n";
}

WorkloadReport run_sweep_workload(const RunArgs& args) {
    WorkloadReport report;
    // Set up several times and report the median; the first set-up counts
    // from process start.
    std::vector<double> setup_s;
    SweepSetup setup;
    const int repeats = integer(args.config, "setup_repeats");
    for (int i = 0; i < repeats; ++i) {
        SweepSetup again = set_up_sweep(args, i == 0 ? args.process_start : Clock::now(), report);
        if (i > 0 && again.digest != setup.digest) {
            report.problems.push_back("serial reference runs disagree");
        }
        setup_s.push_back(again.seconds);
        setup = std::move(again);
    }
    if (args.trace) {
        sweep_layers(args, setup, report);
    } else {
        report.metrics["setup_s"] = median(setup_s);
        report.metrics["peak_rss_mb"] = peak_rss_mb();
        sweep_end_to_end(args, setup, report);
    }
    return report;
}

WorkloadReport run_serve_workload(const RunArgs& args) {
    // One malloc arena for the whole process, set before any thread
    // exists: with one arena per worker thread, where evicted cache entries
    // happen to be freed swings the daemon's peak RSS by +-30% from run to
    // run; with one, the peak follows the live cache and request data.
    ::mallopt(M_ARENA_MAX, 1);
    WorkloadReport report;
    const focs::json::Object& config = args.config;
    const RequestMix mix = request_mix(config);
    const std::string request_template =
        read_file(args.bench_dir + "/" + field(config, "request_template").string());
    const double p = number(config, "tail_percentile");

    // Set-up: daemon start plus an untimed closed-loop warm-up that fills
    // the cache to its steady state, repeated on fresh daemons; the last
    // one serves the timed window.
    std::vector<double> setup_s;
    std::unique_ptr<focs::service::SweepServer> server;
    const int repeats = integer(config, "setup_repeats");
    for (int i = 0; i < repeats; ++i) {
        const Clock::time_point start = i == 0 ? args.process_start : Clock::now();
        if (server) stop_server(*server);
        server = start_server(config);
        for (const Arrival& arrival :
             warmup_draws(mix, integer(config, "warmup_requests"), args.seed)) {
            const auto response = focs::service::post_sweep(
                server->port(), request_spec(request_template, mix, arrival));
            if (response.status != 200) report.problems.push_back("warm-up request failed");
        }
        setup_s.push_back(seconds_since(start));
    }
    const int port = server->port();
    const MetricsView before = MetricsView::fetch(port);

    // Timed window: the low-rate phase, then the high-rate phase.
    struct Phase {
        double rate = 0;
        std::vector<std::string> specs;
        std::vector<RequestOutcome> outcomes;
        Clock::time_point origin;
        double seconds = 0;
    };
    Phase phases[2];
    phases[0].rate = number(config, "rate_low_rps");
    phases[1].rate = number(config, "rate_high_rps");
    double cache_bytes_max = static_cast<double>(server->cache()->cached_bytes());
    for (std::size_t k = 0; k < 2; ++k) {
        Phase& phase = phases[k];
        std::vector<ScheduledRequest> requests;
        for (const Arrival& arrival : open_loop_schedule(mix, phase.rate, args.seconds / 2 * 1000,
                                                         args.seed * 2 + k)) {
            requests.push_back({arrival.due_ms, request_spec(request_template, mix, arrival)});
            phase.specs.push_back(requests.back().spec_text);
        }
        phase.origin = Clock::now();
        phase.outcomes = run_open_loop(port, requests, phase.origin);
        phase.seconds = seconds_since(phase.origin);
        cache_bytes_max =
            std::max(cache_bytes_max, static_cast<double>(server->cache()->cached_bytes()));
    }
    const MetricsView after = MetricsView::fetch(port);
    stop_server(*server);
    const double peak_rss = peak_rss_mb();

    // Correctness after the window: every response must be a complete 200
    // whose canonical re-serialization matches a fresh-cache reference run
    // of the same spec.
    const auto reference_cache = std::make_shared<fr::ArtifactCache>();
    const fr::SweepEngine reference_engine(0, reference_cache);
    std::map<std::string, std::string> reference_digest;
    std::uint64_t ok_cells = 0;
    std::vector<double> wall_ms, overhead_ms, connect_ms, parse_ms, serialize_ms, body_bytes,
        result_bytes, late_ms, unattributed_ms, coverage;
    LayerTrace trace(args.process_start);
    for (const Phase& phase : phases) {
        for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
            const RequestOutcome& outcome = phase.outcomes[i];
            ++report.attempted;
            late_ms.push_back(outcome.sent_ms - outcome.due_ms);
            if (outcome.status != 200) {
                ++report.failed;
                if (report.problems.size() < 5) {
                    report.problems.push_back("request got status " +
                                              std::to_string(outcome.status) + " " + outcome.error);
                }
                continue;
            }
            const Clock::time_point parse_start = Clock::now();
            const fr::SweepResult result = fr::from_json(outcome.body);
            const Clock::time_point parsed = Clock::now();
            const std::string document = fr::to_json(result, true);
            serialize_ms.push_back(ms_between(parsed, Clock::now()));
            parse_ms.push_back(ms_between(parse_start, parsed));
            result_bytes.push_back(static_cast<double>(document.size()));
            body_bytes.push_back(static_cast<double>(outcome.body.size()));

            const std::string& spec_text = phase.specs[i];
            auto ref = reference_digest.find(spec_text);
            if (ref == reference_digest.end()) {
                const fr::SweepResult expected =
                    reference_engine.run(fr::SweepSpec::parse(spec_text));
                ref = reference_digest.emplace(spec_text, canonical_digest(expected)).first;
            }
            const bool partial = outcome.body.find("\"partial\": false") == std::string::npos;
            if (partial || !result.complete() || canonical_digest(result) != ref->second) {
                ++report.failed;
                report.problems.push_back("response differs from its fresh-cache reference");
                continue;
            }
            ok_cells += result.cells_ok;
            wall_ms.push_back(result.wall_ms);
            overhead_ms.push_back(outcome.done_ms - outcome.sent_ms - result.wall_ms);
            connect_ms.push_back(outcome.connected_ms - outcome.sent_ms);

            if (args.trace) {
                // Client-side phase spans, one lane per request, built from
                // the timestamps every run takes anyway.
                const int lane = static_cast<int>(report.attempted);
                const auto at = [&](double ms) {
                    return phase.origin + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double, std::milli>(ms));
                };
                trace.add("bench.request", at(outcome.due_ms), at(outcome.done_ms), lane);
                trace.add("bench.gen_late", at(outcome.due_ms), at(outcome.sent_ms), lane);
                trace.add("service.connect", at(outcome.sent_ms), at(outcome.connected_ms), lane);
                trace.add("service.write", at(outcome.connected_ms), at(outcome.written_ms), lane);
                trace.add("service.wait", at(outcome.written_ms), at(outcome.first_byte_ms),
                          lane);
                trace.add("service.read", at(outcome.first_byte_ms), at(outcome.done_ms), lane);
            }
            // Covered: the client phases plus the daemon's SweepEngine::run;
            // the rest of the wait (HTTP read, parse, queue, serialize,
            // write) has no span of its own.
            const double spans = (outcome.written_ms - outcome.due_ms) + result.wall_ms +
                                 (outcome.done_ms - outcome.first_byte_ms);
            unattributed_ms.push_back(outcome.latency_ms() - spans);
            coverage.push_back(spans / outcome.latency_ms());
        }
    }
    double window_s = 0;
    for (const Phase& phase : phases) window_s += phase.seconds;

    auto& m = report.metrics;
    if (!args.trace) {
        const auto latencies = [](const Phase& phase) {
            std::vector<double> out;
            for (const auto& outcome : phase.outcomes) out.push_back(outcome.latency_ms());
            return out;
        };
        m["setup_s"] = median(setup_s);
        m["sweep_ms_p50"] = median(wall_ms);
        m["sweep_ms_tail"] = tail_or_max(wall_ms, p, "server wall_ms");
        m["cells_per_s"] = static_cast<double>(ok_cells) / window_s;
        m["req_ms_p50_low"] = median(latencies(phases[0]));
        m["req_ms_tail_low"] = tail_or_max(latencies(phases[0]), p, "req_ms (low)");
        m["req_ms_p50_high"] = median(latencies(phases[1]));
        m["req_ms_tail_high"] = tail_or_max(latencies(phases[1]), p, "req_ms (high)");
        m["peak_rss_mb"] = peak_rss;
        return report;
    }

    // Per-layer view of the daemon: client-side phases measured here, the
    // server side from the responses' wall_ms and /metricsz deltas.
    const auto counter = [&](const std::string& name) {
        return MetricsView::delta(after.counters, before.counters, name);
    };
    const auto build_ms = [&](const char* artifact_class) {
        return MetricsView::delta(after.histogram_sums, before.histogram_sums,
                                  std::string("cache.") + artifact_class + ".build_ms");
    };
    m["asm.assemble_ms"] = build_ms("program");
    m["dta.characterize_ms"] = build_ms("delay_table");
    m["sim.record_trace_ms"] = build_ms("trace");
    m["timing.unit_delays_ms"] = build_ms("unit_delays");
    m["runtime.sweep_ms"] = median(wall_ms);
    m["runtime.serialize_ms"] = median(serialize_ms);
    m["runtime.result_bytes"] = median(result_bytes);
    m["runtime.unattributed_ms"] = median(unattributed_ms);
    m["runtime.layer_coverage"] = median(coverage);
    double evicted = 0;
    std::map<std::string, std::uint64_t> counters;
    for (const fr::ArtifactClass artifact_class : kClasses) {
        const std::string name = fr::artifact_class_name(artifact_class);
        m["runtime.cache." + name + ".miss"] = counter("cache." + name + ".miss");
        m["runtime.cache." + name + ".served"] =
            counter("cache." + name + ".hit") + counter("cache." + name + ".wait");
        evicted += counter("cache." + name + ".evicted_lru");
        for (const char* outcome : {".miss", ".hit", ".wait"}) {
            counters["cache." + name + outcome] =
                static_cast<std::uint64_t>(counter("cache." + name + outcome));
        }
    }
    m["runtime.cache.evicted_lru"] = evicted;
    m["runtime.cache_bytes_max"] = cache_bytes_max;
    m["service.overhead_ms_p50"] = median(overhead_ms);
    m["service.connect_ms_p50"] = median(connect_ms);
    m["service.queue_depth_max"] = after.gauges.count("server.queue.depth")
                                       ? after.gauges.at("server.queue.depth")
                                       : 0;
    m["service.shed"] = counter("server.requests.shed");
    m["service.response_bytes"] = median(body_bytes);
    m["service.client_parse_ms"] = median(parse_ms);
    m["bench.gen_late_ms_p99"] = percentile(late_ms, 99);
    m["bench.gen_late_ms_max"] = percentile(late_ms, 100);
    // Spans are derived from timestamps the untraced run also takes, so
    // tracing adds no work inside the window.
    m["bench.trace_overhead"] = 1.0;
    zero_layers(report, {"dta.characterize_cycles", "dta.scale_table_ms", "sim.trace_cycles",
                         "sim.trace_bytes", "timing.unit_delays_bytes", "timing.scale_view_ms",
                         "core.replay_setup_ms", "core.replay_fused_ms", "core.replay_ideal_ms",
                         "core.replay_taps_ms", "core.replay_pll_ms",
                         "core.replay_variant_cycles_per_s"});
    write_trace_file(args, trace, counters);
    return report;
}

}  // namespace e2ebench
