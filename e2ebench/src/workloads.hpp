// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "layer_trace.hpp"

namespace e2ebench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    /// Directory holding config.json (spec paths in it are relative to it).
    std::string bench_dir;
    focs::json::Object config;  ///< this workload's config.json section
    /// Where the traced run writes its Chrome trace file.
    std::string trace_dir;
    Clock::time_point process_start;
};

/// Outcome of one benchmark run: the operations attempted and failed, the
/// metrics by name (values in the units main.cpp declares), and a line per
/// correctness problem found.
struct WorkloadReport {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> problems;

    bool correct() const { return problems.empty() && failed == 0 && attempted > 0; }
};

/// grid_cold and build_cold: SweepEngine::run on a fresh cache per sweep.
WorkloadReport run_sweep_workload(const RunArgs& args);

/// serve_mixed: open-loop load against an in-process SweepServer.
WorkloadReport run_serve_workload(const RunArgs& args);

/// Order-independent digest of a canonical sweep document: the hash of its
/// sorted cell lines. Equal for every axis permutation of one grid, so one
/// checked-in digest per grid covers every seed.
std::string cell_set_digest(const std::string& canonical_json);

/// Canonical digests of the live (reference-path) evaluation of the sweep
/// workloads' grids, as reference_digests.json stores them.
std::string make_reference_digests(const std::string& bench_dir, const focs::json::Object& config);

}  // namespace e2ebench
