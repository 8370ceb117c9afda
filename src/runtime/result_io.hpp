// JSON serialization of sweep results.
//
// Results are written as a stable, dependency-free JSON document.
// Formatting is deterministic (fixed key order, "%.17g" doubles, i.e.
// shortest round-trippable form), which makes byte-comparison of two runs a
// valid determinism check. from_json parses exactly the documents to_json
// emits (plus whitespace): the daemon's clients and the benches read
// responses back through it.
#pragma once

#include <string>

#include "runtime/sweep_engine.hpp"

namespace focs::runtime {

/// Deterministic JSON scalar formatting shared by every artifact emitter
/// (sweep results, bench reports): "%.17g" doubles (shortest round-
/// trippable form) and fully escaped strings. Throws focs::Error on
/// non-finite numbers — JSON has no inf/nan, and silently clamping would
/// hide bugs.
std::string json_number(double value);
std::string json_string(const std::string& value);

/// Serializes a sweep result (schema "focs-sweep-v6"). The originating spec
/// text and its stable hash are always stamped into the header so cached
/// results.json files stay traceable. Failure fields (header cells_ok /
/// cells_failed / cells_cancelled counts, per-cell status / error_code /
/// error) are emitted only when some cell is not ok, so canonical byte-
/// comparison of successful runs across job counts and evaluation modes
/// stays valid. `include_timing` controls the run-dependent fields
/// (wall_ms, jobs, mode, the characterization / cache counters, the
/// metrics block and the per-cell timing); switch it off to obtain the
/// canonical document.
std::string to_json(const SweepResult& result, bool include_timing = true);

/// Parses a focs-sweep-v6 document produced by to_json, in either flavour.
/// Throws focs::Error on malformed input, any other schema, or a missing
/// spec stamp. Timing fields absent from a canonical document are left
/// zero/empty; per-status cell counts are derived from the cells when the
/// header lacks them (all-ok documents).
SweepResult from_json(const std::string& text);

}  // namespace focs::runtime
