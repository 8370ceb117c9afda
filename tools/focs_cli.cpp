// focs — command-line driver for the library.
//
//   focs kernels                                list bundled kernels
//   focs asm <file.s|kernel:NAME>               assemble, print listing + symbols
//   focs run <file.s|kernel:NAME> [--trace N]   run on the cycle-accurate core
//   focs characterize [-o lut.txt] [--conventional] [--voltage V] [--jobs N]
//                     [--metrics] [--trace-out trace.json]
//                                               build the delay LUT (paper Fig. 2)
//                                               on the batched engine; --jobs
//                                               adds endpoint-kernel workers
//   focs evaluate <file.s|kernel:NAME> [--lut lut.txt] [--policy P] [--taps N]
//                 [--voltage V]
//                                               delay-annotated run; P in
//                                               static|two-class|ex-only|lut|
//                                               genie|approx-lut[:S]|
//                                               dual-cycle[:S] (approx-lut:S
//                                               scales the LUT by S in (0,1],
//                                               dual-cycle:S stretches the
//                                               slow class by S >= 1);
//                                               a --lut table (delay_table v2,
//                                               as characterize -o writes it)
//                                               must have been characterized
//                                               at the run's operating point
//   focs suite [--lut lut.txt] [--policy P] [--jobs N] [--replay|--live]
//                                               run the whole Fig. 8 suite
//   focs sweep <spec.sweep> [--jobs N] [--replay|--live] [-o results.json]
//              [--canonical] [--fail-fast] [--deadline-ms N] [--fault SPEC]
//                                               batch-evaluate a (kernel x
//                                               policy x generator x voltage)
//                                               grid on the parallel runtime.
//                                               --replay (default) records one
//                                               pipeline trace per kernel and
//                                               replays every policy/generator
//                                               cell against it; --live runs
//                                               the full simulation per cell.
//                                               Both are byte-identical;
//                                               --canonical writes the
//                                               run-independent JSON document.
//                                               --metrics prints the merged
//                                               counter/histogram table;
//                                               --trace-out writes a Chrome
//                                               trace-event JSON timeline
//                                               (Perfetto / chrome://tracing)
//                                               with the metrics embedded
//
// Exit codes: 0 = success (every cell evaluated), 2 = partial results (some
// sweep cells failed or were cancelled; survivors were still written), 1 =
// fatal error (bad usage, including any flag the command does not accept;
// malformed spec; I/O failure; or --fail-fast abort). Failed cells are
// isolated per cell by default; --fail-fast restores abort-on-first-failure,
// --deadline-ms bounds the wall clock and reports unfinished cells as
// cancelled, and --fault (or the FOCS_FAULT environment variable) arms the
// deterministic fault injector — see src/common/fault.hpp for the rule
// grammar.
//
// Programs are read from a file path, or from the bundled workloads with
// the "kernel:" prefix (e.g. kernel:crc32).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "asm/assembler.hpp"
#include "clock/clock_generator.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "common/table.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "core/mix_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "runtime/result_io.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "service/client.hpp"
#include "service/sweep_server.hpp"
#include "sim/machine.hpp"
#include "sim/trace_printer.hpp"
#include "workloads/kernel.hpp"

namespace {

using namespace focs;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: focs <command> [args]\n"
                 "  kernels\n"
                 "  asm <file.s|kernel:NAME>\n"
                 "  run <file.s|kernel:NAME> [--trace N]\n"
                 "  characterize [-o lut.txt] [--conventional] [--voltage V] [--jobs N]\n"
                 "               [--metrics] [--trace-out trace.json]\n"
                 "  evaluate <file.s|kernel:NAME> [--lut lut.txt] [--policy P] [--taps N]\n"
                 "           [--voltage V]\n"
                 "      --lut: a delay_table v2 file (characterize -o) characterized at\n"
                 "             the run's operating point; evaluate, stats and suite\n"
                 "             refuse one whose static period differs\n"
                 "  suite [--lut lut.txt] [--policy P] [--jobs N] [--replay|--live]\n"
                 "        [--metrics] [--trace-out trace.json]\n"
                 "  sweep <spec.sweep> [--jobs N] [--replay|--live] [-o results.json]\n"
                 "        [--canonical] [--metrics] [--trace-out trace.json]\n"
                 "        [--fail-fast] [--deadline-ms N] [--fault SPEC]\n"
                 "      --replay (default): simulate each kernel once, replay every\n"
                 "                          policy/generator cell from the cached trace\n"
                 "      --live:             full per-cell simulation (reference path)\n"
                 "      --canonical:        write -o JSON without run-dependent fields\n"
                 "      --metrics:          print the merged metrics table after the run\n"
                 "      --trace-out FILE:   write a Chrome trace-event JSON timeline\n"
                 "                          (open in Perfetto / chrome://tracing)\n"
                 "      --fail-fast:        abort on the first failing cell (default:\n"
                 "                          isolate failures per cell, exit 2 on partial)\n"
                 "      --deadline-ms N:    stop after N ms wall clock; unfinished cells\n"
                 "                          are reported as cancelled\n"
                 "      --fault SPEC:       arm the deterministic fault injector, e.g.\n"
                 "                          'build.delay_table:0.3:seed=7' (FOCS_FAULT\n"
                 "                          environment variable works too)\n"
                 "  stats <file.s|kernel:NAME> [--lut lut.txt]\n"
                 "  serve [--port N] [--max-inflight N] [--queue-depth N]\n"
                 "        [--deadline-default-ms X] [--cache-budget-mb N] [--jobs N]\n"
                 "        [--metrics] [--trace-out trace.json]\n"
                 "      long-lived sweep daemon on 127.0.0.1 (POST /sweep with a spec\n"
                 "      body, always replayed; GET /healthz, /metricsz). Bounded admission\n"
                 "      queue sheds excess load with 503, X-Focs-Deadline-Ms returns partial\n"
                 "      results as 206, --cache-budget-mb arms LRU eviction of shared\n"
                 "      artifacts. SIGTERM/SIGINT drains gracefully (twice: cancel in-flight).\n"
                 "  client --port N --spec FILE [-n N] [--concurrency C]\n"
                 "         [--deadline-ms X] [--canonical] [-o resp.json]\n"
                 "         [--host H] [--healthz|--metricsz]\n"
                 "      load generator: fires N concurrent sweep requests and prints the\n"
                 "      per-status outcome counts\n"
                 "exit codes: 0 success, 2 partial sweep results, 1 fatal error\n");
    std::exit(1);
}

std::string load_source(const std::string& spec) {
    if (spec.rfind("kernel:", 0) == 0) {
        return workloads::find_kernel(spec.substr(7)).source;
    }
    std::ifstream in(spec);
    if (!in) throw Error("cannot open " + spec);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// The flags one command accepts: switches stand alone, valued flags take
/// the next argument.
struct CommandFlags {
    std::vector<std::string_view> switches;
    std::vector<std::string_view> valued;
};

/// Every command's flags, or nullptr for an unknown command.
const CommandFlags* command_flags(const std::string& command) {
    static const std::map<std::string, CommandFlags> table = {
        {"kernels", {}},
        {"asm", {}},
        {"run", {{}, {"--trace"}}},
        {"characterize",
         {{"--conventional", "--metrics"}, {"-o", "--voltage", "--jobs", "--trace-out"}}},
        {"evaluate", {{}, {"--lut", "--policy", "--taps", "--voltage"}}},
        {"suite",
         {{"--replay", "--live", "--metrics", "--fail-fast"},
          {"--lut", "--policy", "--jobs", "--trace-out", "--deadline-ms", "--fault"}}},
        {"sweep",
         {{"--replay", "--live", "--canonical", "--metrics", "--fail-fast"},
          {"--jobs", "-o", "--trace-out", "--deadline-ms", "--fault"}}},
        {"stats", {{}, {"--lut"}}},
        {"serve",
         {{"--metrics"},
          {"--port", "--max-inflight", "--queue-depth", "--deadline-default-ms",
           "--cache-budget-mb", "--jobs", "--trace-out", "--fault"}}},
        {"client",
         {{"--healthz", "--metricsz", "--canonical"},
          {"--port", "--host", "--spec", "-n", "--concurrency", "--deadline-ms", "-o"}}},
    };
    const auto it = table.find(command);
    return it == table.end() ? nullptr : &it->second;
}

/// Rejects, as a usage error naming it, every argument that starts with '-'
/// but is not one of `flags` (a valued flag's argument is its value, even
/// when it starts with '-'), and a valued flag with no value after it.
void check_flags(const std::string& command, const std::vector<std::string>& args,
                 const CommandFlags& flags) {
    const auto declared = [](const std::vector<std::string_view>& names, const std::string& arg) {
        return std::find(names.begin(), names.end(), arg) != names.end();
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg.empty() || arg[0] != '-' || declared(flags.switches, arg)) continue;
        if (!declared(flags.valued, arg)) throw Error(command + ": unknown flag " + arg);
        if (++i == args.size()) throw Error(command + ": " + arg + " wants a value");
    }
}

/// Simple flag scanner: returns the value following `name`, if present.
std::optional<std::string> flag_value(const std::vector<std::string>& args, const char* name) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == name) return args[i + 1];
    }
    return std::nullopt;
}

bool flag_present(const std::vector<std::string>& args, const char* name) {
    for (const auto& a : args) {
        if (a == name) return true;
    }
    return false;
}

int parse_jobs(const std::vector<std::string>& args) {
    if (const auto n = flag_value(args, "--jobs")) {
        const auto jobs = parse_int(*n);
        if (!jobs || *jobs < 1 || *jobs > 4096) throw Error("--jobs wants an integer in [1, 4096]");
        return static_cast<int>(*jobs);
    }
    return 0;
}

/// Flips the global observability switches per --metrics / --trace-out.
/// Call before the workload so spans and counters actually record.
void obs_enable(const std::vector<std::string>& args) {
    if (flag_present(args, "--metrics")) obs::global_metrics().set_enabled(true);
    if (flag_value(args, "--trace-out")) obs::global_tracer().set_enabled(true);
}

/// Emits the observability outputs after the workload: a metrics table on
/// stdout for --metrics, a Chrome trace-event JSON file (metrics snapshot
/// embedded) for --trace-out. `cache` contributes its per-artifact-class
/// counters when the command ran one.
void obs_emit(const std::vector<std::string>& args, const runtime::ArtifactCache* cache) {
    const bool metrics_flag = flag_present(args, "--metrics");
    const auto trace_path = flag_value(args, "--trace-out");
    if (!metrics_flag && !trace_path) return;
    obs::MetricsSnapshot snapshot = obs::global_metrics().snapshot();
    if (cache != nullptr) snapshot.merge(cache->metrics_snapshot());
    if (metrics_flag) std::printf("metrics:\n%s", snapshot.to_table().c_str());
    if (trace_path) {
        std::ofstream out(*trace_path);
        if (!out) throw Error("cannot write " + *trace_path);
        out << obs::global_tracer().export_chrome_json(&snapshot);
        std::printf("trace written to %s\n", trace_path->c_str());
    }
}

/// Parses a strictly positive number flag; one-line error otherwise.
double parse_positive_double(const std::vector<std::string>& args, const char* name,
                             double fallback) {
    const auto text = flag_value(args, name);
    if (!text) return fallback;
    std::size_t pos = 0;
    double value = 0;
    try {
        value = std::stod(*text, &pos);
    } catch (const std::exception&) {
        pos = 0;
    }
    if (pos == 0 || pos != text->size() || !(value > 0)) {
        throw Error(std::string(name) + " wants a positive number");
    }
    return value;
}

/// Parses a deadline flag in milliseconds; 0 when absent. Refuses what
/// CancellationToken::valid_deadline_ms refuses (NaN, the infinities and
/// anything beyond one year) instead of arming a token that fires at once.
double parse_deadline_ms(const std::vector<std::string>& args, const char* name) {
    const double ms = parse_positive_double(args, name, 0);
    if (ms > 0 && !CancellationToken::valid_deadline_ms(ms)) {
        throw Error(std::string(name) + " wants a finite number of milliseconds, at most one year");
    }
    return ms;
}

/// Parses the fault-tolerance flags shared by suite and sweep. `deadline`
/// (caller-scoped so the token outlives the run) receives the
/// --deadline-ms token; --fault arms the process-global injector before
/// any worker spawns.
runtime::SweepRunOptions parse_run_options(const std::vector<std::string>& args,
                                           std::optional<CancellationToken>& deadline) {
    runtime::SweepRunOptions options;
    if (flag_present(args, "--fail-fast")) {
        options.failure_mode = runtime::FailureMode::kFailFast;
    }
    if (const double ms = parse_deadline_ms(args, "--deadline-ms"); ms > 0) {
        deadline = CancellationToken::with_deadline_ms(ms);
        options.cancel = &*deadline;
    }
    if (const auto spec = flag_value(args, "--fault")) {
        fault::global_injector().configure(*spec);
    }
    return options;
}

/// The exit-code contract's partial-result path: 0 when every cell
/// evaluated, otherwise a one-line summary naming the first non-ok cell on
/// stderr and exit code 2 (survivor cells were still reported/written).
int finish_partial(const runtime::SweepResult& result) {
    if (result.complete()) return 0;
    const runtime::SweepCell* first = nullptr;
    for (const auto& cell : result.cells) {
        if (!cell.ok()) {
            first = &cell;
            break;
        }
    }
    std::fprintf(stderr,
                 "focs: partial results: %llu/%zu cells ok, %llu failed, %llu cancelled"
                 " (first: %s/%s/%s@%gV %s: %s)\n",
                 static_cast<unsigned long long>(result.cells_ok), result.cells.size(),
                 static_cast<unsigned long long>(result.cells_failed),
                 static_cast<unsigned long long>(result.cells_cancelled),
                 first->kernel.c_str(), first->policy.c_str(), first->generator.c_str(),
                 first->voltage_v, error_code_name(first->error_code).c_str(),
                 first->error.c_str());
    return 2;
}

runtime::EvalMode parse_eval_mode_flags(const std::vector<std::string>& args) {
    const bool replay = flag_present(args, "--replay");
    const bool live = flag_present(args, "--live");
    if (replay && live) throw Error("--replay and --live are mutually exclusive");
    return live ? runtime::EvalMode::kLive : runtime::EvalMode::kReplay;
}

/// The --lut table, or a fresh characterization at `design`. A loaded
/// table must have been characterized at `design`'s operating point: its
/// static period is compared exactly (the file holds it at full precision,
/// and both sides compute fl(static x delay_scale(v))), so a LUT from
/// another voltage or variant is refused instead of skewing every figure.
dta::DelayTable load_or_build_table(const std::vector<std::string>& args,
                                    const timing::DesignConfig& design) {
    if (const auto path = flag_value(args, "--lut")) {
        std::ifstream in(*path);
        if (!in) throw Error("cannot open " + *path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        dta::DelayTable table = dta::DelayTable::deserialize(buffer.str());
        const double expected = timing::DelayCalculator(design).static_period_ps();
        if (table.static_period_ps() != expected) {
            char periods[160];
            std::snprintf(periods, sizeof periods,
                          "static period %.17g ps, but the %.2f V operating point has %.17g ps",
                          table.static_period_ps(), design.voltage_v, expected);
            throw Error("--lut " + *path + " has " + periods + " (characterize at that point)");
        }
        return table;
    }
    std::fprintf(stderr, "(no --lut given: characterizing from scratch)\n");
    const core::CharacterizationFlow flow(design);
    return flow.run(workloads::assemble_programs(workloads::characterization_suite())).table;
}

int cmd_kernels() {
    TextTable table({"Name", "Suite", "Description"});
    for (const auto& k : workloads::benchmark_suite()) {
        table.add_row({k.name, "benchmark", k.description});
    }
    for (const auto& k : workloads::characterization_suite()) {
        table.add_row({k.name, "characterization", k.description});
    }
    std::printf("%s", table.to_string().c_str());
    return 0;
}

int cmd_asm(const std::vector<std::string>& args) {
    if (args.empty()) usage();
    const auto program = assembler::assemble(load_source(args[0]));
    std::printf("%s\nsymbols:\n", program.listing_text().c_str());
    for (const auto& [name, value] : program.symbols()) {
        std::printf("  %-24s 0x%08x\n", name.c_str(), value);
    }
    std::printf("entry: 0x%08x, image bytes: %zu\n", program.entry(), program.image_size());
    return 0;
}

int cmd_run(const std::vector<std::string>& args) {
    if (args.empty()) usage();
    const auto program = assembler::assemble(load_source(args[0]));
    sim::Machine machine;
    machine.load(program);
    std::uint64_t trace_cycles = 0;
    if (const auto n = flag_value(args, "--trace")) trace_cycles = std::stoull(*n);
    sim::TracePrinter tracer(trace_cycles);
    const sim::RunResult result = machine.run(trace_cycles > 0 ? &tracer : nullptr);
    if (trace_cycles > 0) std::printf("%s\n", tracer.text().c_str());
    std::printf("exit code: %u\ncycles: %llu\ninstructions: %llu (IPC %.3f)\n",
                result.exit_code, static_cast<unsigned long long>(result.cycles),
                static_cast<unsigned long long>(result.instructions), result.ipc());
    for (const auto value : result.reports) std::printf("report: 0x%08x (%u)\n", value, value);
    return result.exit_code == 0 ? 0 : 1;
}

int cmd_characterize(const std::vector<std::string>& args) {
    obs_enable(args);
    timing::DesignConfig design;
    if (flag_present(args, "--conventional")) {
        design.variant = timing::DesignVariant::kConventional;
    }
    if (const auto v = flag_value(args, "--voltage")) design.voltage_v = runtime::parse_voltage(*v);

    // --jobs N adds intra-flow endpoint-kernel workers; the LUT is
    // byte-identical at every thread count.
    core::CharacterizationOptions options;
    options.threads = std::max(1, parse_jobs(args));
    if (options.threads > 256) {
        throw Error("characterize --jobs wants an integer in [1, 256]");
    }

    const core::CharacterizationFlow flow(design);
    const auto result =
        flow.run(workloads::assemble_programs(workloads::characterization_suite()), options);
    std::printf("characterized %llu cycles at %.2f V (%d thread%s)\n",
                static_cast<unsigned long long>(result.cycles), design.voltage_v,
                options.threads, options.threads == 1 ? "" : "s");
    std::printf("T_static: %.1f ps (%.1f MHz)\n", result.static_period_ps,
                focs::mhz_from_period_ps(result.static_period_ps));
    std::printf("genie mean period: %.1f ps (bound %.3fx)\n", result.genie_mean_period_ps,
                result.genie_speedup);

    if (const auto path = flag_value(args, "-o")) {
        std::ofstream out(*path);
        if (!out) throw Error("cannot write " + *path);
        out << result.table.serialize();
        std::printf("delay LUT written to %s\n", path->c_str());
    }
    obs_emit(args, nullptr);
    return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
    if (args.empty()) usage();
    timing::DesignConfig design;
    if (const auto v = flag_value(args, "--voltage")) design.voltage_v = runtime::parse_voltage(*v);
    const auto program = assembler::assemble(load_source(args[0]));
    // Parse the policy before the (potentially expensive) table build so a
    // bad parameter is rejected immediately.
    const auto spec = core::PolicySpec::parse(flag_value(args, "--policy").value_or("lut"));
    const dta::DelayTable table = load_or_build_table(args, design);

    core::DcaEngine engine(design);
    const auto policy = core::make_policy(spec, table, engine.calculator().static_period_ps());
    core::DcaRunResult result;
    if (const auto taps = flag_value(args, "--taps")) {
        clocking::QuantizedClockGenerator cg = clocking::QuantizedClockGenerator::
            for_static_period(engine.calculator().static_period_ps(), std::stoi(*taps));
        result = engine.run(program, *policy, cg);
    } else {
        result = engine.run(program, *policy);
    }
    std::printf("policy: %s, clock generator: %s\n", result.policy.c_str(),
                result.clock_generator.c_str());
    std::printf("cycles: %llu, avg period: %.1f ps, effective clock: %.1f MHz\n",
                static_cast<unsigned long long>(result.cycles), result.avg_period_ps,
                result.eff_freq_mhz);
    std::printf("speedup vs static (%.0f ps): %.3fx\n", result.static_period_ps,
                result.speedup_vs_static);
    std::printf("timing violations: %llu\nguest exit code: %u\n",
                static_cast<unsigned long long>(result.timing_violations),
                result.guest.exit_code);
    return result.guest.exit_code == 0 ? 0 : 1;
}

int cmd_stats(const std::vector<std::string>& args) {
    if (args.empty()) usage();
    const auto program = assembler::assemble(load_source(args[0]));
    const core::MixReport report = core::collect_mix(program);
    if (flag_value(args, "--lut")) {
        const dta::DelayTable table = load_or_build_table(args, timing::DesignConfig{});
        std::printf("%s", report.to_string(&table).c_str());
    } else {
        std::printf("%s", report.to_string().c_str());
    }
    return 0;
}

int cmd_suite(const std::vector<std::string>& args) {
    obs_enable(args);
    // The whole Fig. 8 suite is a one-policy sweep; running it through the
    // runtime gives --jobs parallelism with identical (spec-ordered) rows.
    runtime::SweepSpec spec;
    spec.policies.push_back(core::PolicySpec::parse(flag_value(args, "--policy").value_or("lut")));

    std::optional<CancellationToken> deadline;
    const runtime::SweepRunOptions run_options = parse_run_options(args, deadline);
    const runtime::SweepEngine engine(parse_jobs(args), nullptr, parse_eval_mode_flags(args));
    if (flag_value(args, "--lut")) {
        engine.cache()->put_delay_table(spec.design_for(timing::DesignConfig{}.voltage_v),
                                        runtime::SweepEngine::analyzer_config_for(spec),
                                        load_or_build_table(args, timing::DesignConfig{}));
    }
    const auto result = engine.run(spec, run_options);

    TextTable out({"Benchmark", "Cycles", "Eff. clock [MHz]", "Speedup", "Violations"});
    for (const auto& cell : result.cells) {
        if (!cell.ok()) {
            out.add_row({cell.kernel, runtime::cell_status_name(cell.status), "-", "-", "-"});
            continue;
        }
        out.add_row({cell.kernel, std::to_string(cell.result.cycles),
                     TextTable::num(cell.result.eff_freq_mhz, 1),
                     TextTable::num(cell.result.speedup_vs_static, 3),
                     std::to_string(cell.result.timing_violations)});
    }
    std::printf("%s", out.to_string().c_str());
    std::printf("average: %.1f MHz, %.3fx\n", result.mean_eff_freq_mhz, result.mean_speedup);
    std::printf("(%s mode, %d jobs, %.0f ms, %llu characterization%s, %llu guest simulation%s)\n",
                result.mode.c_str(), result.jobs, result.wall_ms,
                static_cast<unsigned long long>(result.characterizations),
                result.characterizations == 1 ? "" : "s",
                static_cast<unsigned long long>(result.guest_simulations),
                result.guest_simulations == 1 ? "" : "s");
    obs_emit(args, engine.cache().get());
    return finish_partial(result);
}

int cmd_sweep(const std::vector<std::string>& args) {
    if (args.empty()) usage();
    obs_enable(args);
    std::ifstream in(args[0]);
    if (!in) throw Error("cannot open " + args[0]);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const runtime::SweepSpec spec = runtime::SweepSpec::parse(buffer.str());

    std::optional<CancellationToken> deadline;
    const runtime::SweepRunOptions run_options = parse_run_options(args, deadline);
    const runtime::SweepEngine engine(parse_jobs(args), nullptr, parse_eval_mode_flags(args));
    const auto result = engine.run(spec, run_options);

    TextTable out({"Kernel", "Policy", "Generator", "V [V]", "Status", "Eff. clock [MHz]",
                   "Speedup", "Violations"});
    for (const auto& cell : result.cells) {
        out.add_row({cell.kernel, cell.policy, cell.generator, TextTable::num(cell.voltage_v, 2),
                     runtime::cell_status_name(cell.status),
                     cell.ok() ? TextTable::num(cell.result.eff_freq_mhz, 1) : "-",
                     cell.ok() ? TextTable::num(cell.result.speedup_vs_static, 3) : "-",
                     cell.ok() ? std::to_string(cell.result.timing_violations) : "-"});
    }
    std::printf("%s", out.to_string().c_str());
    std::printf("%zu cells, %s mode, %d jobs, %.0f ms wall, %llu characterization%s, "
                "%llu guest simulation%s, %llu unit delay pass%s (%llu reuse%s), "
                "%llu cache hits\n",
                result.cells.size(), result.mode.c_str(), result.jobs, result.wall_ms,
                static_cast<unsigned long long>(result.characterizations),
                result.characterizations == 1 ? "" : "s",
                static_cast<unsigned long long>(result.guest_simulations),
                result.guest_simulations == 1 ? "" : "s",
                static_cast<unsigned long long>(result.unit_delay_passes),
                result.unit_delay_passes == 1 ? "" : "es",
                static_cast<unsigned long long>(result.unit_delay_reuses),
                result.unit_delay_reuses == 1 ? "" : "s",
                static_cast<unsigned long long>(result.cache_hits));

    if (const auto path = flag_value(args, "-o")) {
        std::ofstream json_out(*path);
        if (!json_out) throw Error("cannot write " + *path);
        json_out << runtime::to_json(result, /*include_timing=*/!flag_present(args, "--canonical"));
        std::printf("results written to %s\n", path->c_str());
    }
    std::printf("cell wall ms: p50 %.2f, p95 %.2f, max %.2f\n", result.metrics.cell_wall_ms_p50,
                result.metrics.cell_wall_ms_p95, result.metrics.cell_wall_ms_max);
    obs_emit(args, engine.cache().get());
    return finish_partial(result);
}

/// Write end of the serving daemon's drain pipe, published for the signal
/// handler (the only async-signal-safe way to reach the server).
std::atomic<int> g_serve_signal_fd{-1};
std::atomic<int> g_serve_signal_count{0};

extern "C" void serve_signal_handler(int) {
    // First signal: graceful drain ('d'). Second: hard cancel ('c').
    const char cmd = g_serve_signal_count.fetch_add(1) == 0 ? 'd' : 'c';
    const int fd = g_serve_signal_fd.load();
    if (fd >= 0) {
        [[maybe_unused]] const ssize_t n = ::write(fd, &cmd, 1);
    }
}

/// Parses an integer flag into [lo, hi], defaulting when absent. The error
/// is a one-line message naming the flag and the accepted range.
int parse_bounded_int(const std::vector<std::string>& args, const char* name, int fallback,
                      int lo, int hi) {
    const auto text = flag_value(args, name);
    if (!text) return fallback;
    const auto value = parse_int(*text);
    if (!value || *value < lo || *value > hi) {
        throw Error(std::string(name) + " wants an integer in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }
    return static_cast<int>(*value);
}

int cmd_serve(const std::vector<std::string>& args) {
    obs_enable(args);
    service::ServerConfig config;
    config.port = parse_bounded_int(args, "--port", 8790, 0, 65535);
    config.max_inflight = parse_bounded_int(args, "--max-inflight", 2, 1, 256);
    config.queue_depth = parse_bounded_int(args, "--queue-depth", 8, 0, 4096);
    config.deadline_default_ms = parse_deadline_ms(args, "--deadline-default-ms");
    if (const double mb = parse_positive_double(args, "--cache-budget-mb", 0); mb > 0) {
        // A budget of 0 bytes means unbounded, so a given budget must come
        // to at least one byte, and fit the byte counter.
        const double bytes = mb * 1024 * 1024;
        if (!(bytes >= 1 && bytes < 0x1p64)) {
            throw Error("--cache-budget-mb wants a finite size of at least one byte");
        }
        config.cache_budget_bytes = static_cast<std::uint64_t>(bytes);
    }
    config.jobs = parse_jobs(args);
    if (const auto spec = flag_value(args, "--fault")) fault::global_injector().configure(*spec);

    service::SweepServer server(config);
    server.start();
    g_serve_signal_fd.store(server.signal_fd());
    struct sigaction action {};
    action.sa_handler = serve_signal_handler;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    std::printf("focs-serve: listening on 127.0.0.1:%d (max-inflight %d, queue-depth %d, "
                "cache-budget %llu bytes, replay mode)\n",
                server.port(), config.max_inflight, config.queue_depth,
                static_cast<unsigned long long>(config.cache_budget_bytes));
    std::fflush(stdout);

    server.wait();
    g_serve_signal_fd.store(-1);

    const service::ServerStats stats = server.stats();
    std::printf("focs-serve: drained: accepted=%llu shed=%llu served_ok=%llu "
                "served_partial=%llu bad_request=%llu error=%llu lru_evictions=%llu\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.served_ok),
                static_cast<unsigned long long>(stats.served_partial),
                static_cast<unsigned long long>(stats.bad_request),
                static_cast<unsigned long long>(stats.error),
                static_cast<unsigned long long>(server.cache()->lru_evictions()));
    // The drain contract ends with the observability flush: --metrics /
    // --trace-out see the final counters (server + shared cache merged).
    obs::MetricsSnapshot merged = server.metrics_snapshot();
    if (flag_present(args, "--metrics")) {
        obs::MetricsSnapshot snapshot = obs::global_metrics().snapshot();
        snapshot.merge(merged);
        std::printf("metrics:\n%s", snapshot.to_table().c_str());
    }
    if (const auto trace_path = flag_value(args, "--trace-out")) {
        obs::MetricsSnapshot snapshot = obs::global_metrics().snapshot();
        snapshot.merge(merged);
        std::ofstream out(*trace_path);
        if (!out) throw Error("cannot write " + *trace_path);
        out << obs::global_tracer().export_chrome_json(&snapshot);
        std::printf("trace written to %s\n", trace_path->c_str());
    }
    return 0;
}

int cmd_client(const std::vector<std::string>& args) {
    const int port = parse_bounded_int(args, "--port", 0, 1, 65535);
    if (port == 0) throw Error("client wants --port");
    const std::string host = flag_value(args, "--host").value_or("127.0.0.1");

    // Probe modes: one GET, body to stdout, exit 0 on 200.
    for (const char* probe : {"--healthz", "--metricsz"}) {
        if (!flag_present(args, probe)) continue;
        service::HttpRequest request;
        request.method = "GET";
        request.target = std::string("/") + (probe + 2);  // "--healthz" -> "/healthz"
        const auto response = service::http_request(port, request, host);
        std::printf("%s", response.body.c_str());
        return response.status == 200 ? 0 : 1;
    }

    service::LoadOptions options;
    options.port = port;
    options.host = host;
    const auto spec_path = flag_value(args, "--spec");
    if (!spec_path) throw Error("client wants --spec FILE (or --healthz/--metricsz)");
    std::ifstream in(*spec_path);
    if (!in) throw Error("cannot open " + *spec_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    options.spec_text = buffer.str();
    options.requests = parse_bounded_int(args, "-n", 1, 1, 100000);
    options.concurrency =
        parse_bounded_int(args, "--concurrency", std::min(options.requests, 8), 1, 256);
    options.deadline_ms = parse_deadline_ms(args, "--deadline-ms");
    options.canonical = flag_present(args, "--canonical");

    const service::LoadReport report = service::run_load(options);
    std::printf("client: n=%d ok=%llu partial=%llu shed=%llu client_error=%llu "
                "server_error=%llu transport_error=%llu\n",
                options.requests, static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.partial),
                static_cast<unsigned long long>(report.shed),
                static_cast<unsigned long long>(report.client_error),
                static_cast<unsigned long long>(report.server_error),
                static_cast<unsigned long long>(report.transport_error));

    if (const auto out_path = flag_value(args, "-o")) {
        // First successful (200/206) body — the sole response under -n 1.
        const std::string* body = nullptr;
        for (std::size_t i = 0; i < report.statuses.size(); ++i) {
            if (report.statuses[i] == 200 || report.statuses[i] == 206) {
                body = &report.bodies[i];
                break;
            }
        }
        if (body == nullptr) throw Error("no successful response to write to " + *out_path);
        std::ofstream out(*out_path);
        if (!out) throw Error("cannot write " + *out_path);
        out << *body;
        std::printf("response written to %s\n", out_path->c_str());
    }
    // Shed/partial are successful protocol outcomes; only a missing HTTP
    // response (or a 4xx/5xx surprise) fails the generator.
    return report.transport_error == 0 && report.client_error == 0 && report.server_error == 0
               ? 0
               : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string command = argv[1];
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
    const CommandFlags* flags = command_flags(command);
    if (flags == nullptr) usage();
    try {
        check_flags(command, args, *flags);
        if (command == "kernels") return cmd_kernels();
        if (command == "asm") return cmd_asm(args);
        if (command == "run") return cmd_run(args);
        if (command == "characterize") return cmd_characterize(args);
        if (command == "evaluate") return cmd_evaluate(args);
        if (command == "suite") return cmd_suite(args);
        if (command == "sweep") return cmd_sweep(args);
        if (command == "stats") return cmd_stats(args);
        if (command == "serve") return cmd_serve(args);
        if (command == "client") return cmd_client(args);
        usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "focs: %s\n", e.what());
        return 1;
    }
}
