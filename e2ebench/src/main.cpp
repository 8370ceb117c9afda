// focs_e2ebench: the repository's end-to-end benchmark binary.
//
//   focs_e2ebench --bench-dir DIR --workload NAME --seed N --seconds S
//                 --trace 0|1 [--trace-dir DIR]
//   focs_e2ebench --bench-dir DIR --make-reference
//
// Runs one workload (grid_cold, build_cold or serve_mixed) with inputs
// generated from the seed, checks every result, and prints as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md). --make-reference prints the live-path
// cell-set digests config.json pins for the sweep workloads.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

// Taken during static initialization, before main: the start of setup_s.
const e2ebench::Clock::time_point kProcessStart = e2ebench::Clock::now();

struct MetricDecl {
    const char* name;
    const char* unit;
};

constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},          {"sweep_ms_p50", "ms"},    {"sweep_ms_tail", "ms"},
    {"cells_per_s", "1/s"},    {"req_ms_p50_low", "ms"},  {"req_ms_tail_low", "ms"},
    {"req_ms_p50_high", "ms"}, {"req_ms_tail_high", "ms"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"asm.assemble_ms", "ms"},
    {"dta.characterize_ms", "ms"},
    {"dta.characterize_cycles", "count"},
    {"dta.scale_table_ms", "ms"},
    {"sim.record_trace_ms", "ms"},
    {"sim.trace_cycles", "count"},
    {"sim.trace_bytes", "B"},
    {"timing.unit_delays_ms", "ms"},
    {"timing.unit_delays_bytes", "B"},
    {"timing.scale_view_ms", "ms"},
    {"core.replay_setup_ms", "ms"},
    {"core.replay_fused_ms", "ms"},
    {"core.replay_ideal_ms", "ms"},
    {"core.replay_taps_ms", "ms"},
    {"core.replay_pll_ms", "ms"},
    {"core.replay_variant_cycles_per_s", "1/s"},
    {"runtime.sweep_ms", "ms"},
    {"runtime.unattributed_ms", "ms"},
    {"runtime.layer_coverage", "ratio"},
    {"runtime.cache.program.miss", "count"},
    {"runtime.cache.program.served", "count"},
    {"runtime.cache.delay_table.miss", "count"},
    {"runtime.cache.delay_table.served", "count"},
    {"runtime.cache.trace.miss", "count"},
    {"runtime.cache.trace.served", "count"},
    {"runtime.cache.unit_delays.miss", "count"},
    {"runtime.cache.unit_delays.served", "count"},
    {"runtime.cache.evicted_lru", "count"},
    {"runtime.cache_bytes_max", "B"},
    {"runtime.serialize_ms", "ms"},
    {"runtime.result_bytes", "B"},
    {"service.overhead_ms_p50", "ms"},
    {"service.connect_ms_p50", "ms"},
    {"service.queue_depth_max", "count"},
    {"service.shed", "count"},
    {"service.response_bytes", "B"},
    {"service.client_parse_ms", "ms"},
    {"bench.gen_late_ms_p99", "ms"},
    {"bench.gen_late_ms_max", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.fail_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr, "focs_e2ebench: %s\n", message.c_str());
    std::exit(2);
}

template <std::size_t N>
std::string metrics_json(const MetricDecl (&decls)[N], const e2ebench::WorkloadReport& report) {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = report.metrics.find(decls[i].name);
        if (it == report.metrics.end()) {
            throw focs::Error(std::string("workload did not produce metric ") + decls[i].name);
        }
        if (i > 0) out += ", ";
        out += focs::json::quote(decls[i].name);
        out += ": {\"value\": ";
        out += focs::json::number(it->second);
        out += ", \"unit\": ";
        out += focs::json::quote(decls[i].unit);
        out += "}";
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    e2ebench::RunArgs args;
    args.process_start = kProcessStart;
    bool make_reference = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--make-reference") {
            make_reference = true;
            continue;
        }
        if (i + 1 >= argc) usage("flag " + flag + " wants a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace wants 0 or 1");
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--bench-dir") {
            args.bench_dir = value;
        } else if (flag == "--trace-dir") {
            args.trace_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.bench_dir.empty()) usage("--bench-dir is required");

    try {
        const focs::json::Value config =
            focs::json::parse(e2ebench::read_file(args.bench_dir + "/config.json"));
        if (make_reference) {
            std::fputs(e2ebench::make_reference_digests(
                           args.bench_dir, focs::json::field(config.object(), "workloads").object())
                           .c_str(),
                       stdout);
            return 0;
        }
        if (args.workload.empty() || args.seconds <= 0 || !have_trace) {
            usage("--workload, a positive --seconds and --trace are required");
        }
        const auto& workloads = focs::json::field(config.object(), "workloads").object();
        const auto it = workloads.find(args.workload);
        if (it == workloads.end()) usage("unknown workload " + args.workload);
        args.config = it->second.object();

        e2ebench::WorkloadReport report = args.workload == "serve_mixed"
                                              ? e2ebench::run_serve_workload(args)
                                              : e2ebench::run_sweep_workload(args);
        report.metrics["bench.fail_ratio"] =
            report.attempted == 0 ? 1.0
                                  : static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted);
        for (const std::string& problem : report.problems) {
            std::fprintf(stderr, "focs_e2ebench: %s\n", problem.c_str());
        }
        const std::string metrics =
            args.trace ? metrics_json(kPerLayer, report) : metrics_json(kEndToEnd, report);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                    report.correct() ? "true" : "false",
                    static_cast<unsigned long long>(report.attempted),
                    static_cast<unsigned long long>(report.failed), metrics.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "focs_e2ebench: %s\n", e.what());
        return 1;
    }
}
