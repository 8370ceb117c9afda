// Open-loop HTTP client of the serve_mixed workload.
//
// One thread multiplexes every in-flight request over non-blocking sockets
// (ppoll), so the number of outstanding requests is never capped by a
// thread count: a request is sent when it is due whether or not earlier
// ones have been answered. Each request records the timestamps the
// benchmark derives its latency and client-side phase spans from.
#pragma once

#include <string>
#include <vector>

#include "layer_trace.hpp"

namespace e2ebench {

/// One request of an open-loop run: when it is due and the spec it posts.
struct ScheduledRequest {
    double due_ms = 0;  ///< offset from the run's origin
    std::string spec_text;
};

/// What the client saw of one request. Times are ms from the run origin.
struct RequestOutcome {
    double due_ms = 0;
    double sent_ms = 0;       ///< connect() issued
    double connected_ms = 0;  ///< connection established
    double written_ms = 0;    ///< request fully written
    double first_byte_ms = 0; ///< first response byte read
    double done_ms = 0;       ///< response complete (peer closed)
    int status = 0;           ///< HTTP status; 0 = transport error
    std::string error;        ///< transport error description
    std::string body;

    double latency_ms() const { return done_ms - due_ms; }
};

/// Sends every request at its due time (relative to `origin`) to
/// 127.0.0.1:`port` and waits for all responses. A request still open
/// `timeout_ms` after it was due fails as a transport error.
std::vector<RequestOutcome> run_open_loop(int port, const std::vector<ScheduledRequest>& requests,
                                          Clock::time_point origin, double timeout_ms = 20000);

}  // namespace e2ebench
