// Cooperative cancellation for long-running runtime work.
//
// A CancellationToken is a copyable handle onto shared cancellation state:
// the caller either requests a stop explicitly (request_cancel) or arms a
// wall-clock deadline at construction, and the worker side polls
// `cancelled()` at natural batch boundaries (sweep cells, replay blocks,
// characterization batches) — cooperative, never pre-emptive, so every
// check point sits outside the per-cycle hot loops. A fired token reports
// *why* it fired (ErrorCode::kDeadline vs kCancelled), which the sweep
// runtime uses to mark cells `cancelled` rather than `failed`.
//
// Cost model: a dormant check is one relaxed atomic load; a deadline-armed
// check adds one steady_clock read. Both are paid per *block* (thousands
// of cycles), so a token threaded through the replay engine is free on the
// hot path (enforced by the robustness series in BENCH_sim_throughput).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "common/error.hpp"

namespace focs {

class CancellationToken {
public:
    /// A token with no deadline: fires only via request_cancel().
    CancellationToken() : state_(std::make_shared<State>()) {}

    /// Longest deadline a token arms: one year, far inside what the steady
    /// clock's nanosecond ticks hold past now().
    static constexpr double kMaxDeadlineMs = 365.0 * 24 * 3600 * 1000;

    /// The check of every caller-supplied deadline: positive and at most
    /// kMaxDeadlineMs (so never NaN or infinite).
    static bool valid_deadline_ms(double ms) { return ms > 0 && ms <= kMaxDeadlineMs; }

    /// A token that fires once `ms` milliseconds of wall clock elapse
    /// (steady clock; `ms` <= 0 means already expired). Throws focs::Error
    /// for NaN or `ms` > kMaxDeadlineMs, whose conversion would overflow.
    static CancellationToken with_deadline_ms(double ms) {
        if (!(ms <= kMaxDeadlineMs)) {
            throw Error("deadline must be a number of milliseconds no larger than one year");
        }
        CancellationToken token;
        token.state_->has_deadline = true;
        token.state_->deadline = std::chrono::steady_clock::now() +
                                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                     std::chrono::duration<double, std::milli>(ms));
        return token;
    }

    /// Requests cancellation; every copy of this token observes it. Safe to
    /// call from any thread, idempotent.
    void request_cancel() const { state_->requested.store(true, std::memory_order_relaxed); }

    /// True once cancellation was requested or the deadline expired.
    bool cancelled() const {
        if (state_->requested.load(std::memory_order_relaxed)) return true;
        return state_->has_deadline && std::chrono::steady_clock::now() >= state_->deadline;
    }

    /// Why the token fired: kCancelled for an explicit request, kDeadline
    /// for an expired deadline (explicit requests win when both hold).
    /// Only meaningful when cancelled() is true.
    ErrorCode reason() const {
        return state_->requested.load(std::memory_order_relaxed) ? ErrorCode::kCancelled
                                                                 : ErrorCode::kDeadline;
    }

    /// Throws CancelledError (code = reason()) when the token has fired;
    /// otherwise returns. The standard check point form.
    void throw_if_cancelled() const {
        if (!cancelled()) return;
        const ErrorCode code = reason();
        throw CancelledError(
            code == ErrorCode::kDeadline ? "deadline exceeded" : "cancelled by caller", code);
    }

private:
    struct State {
        std::atomic<bool> requested{false};
        bool has_deadline = false;  ///< immutable after construction
        std::chrono::steady_clock::time_point deadline{};
    };

    std::shared_ptr<State> state_;
};

}  // namespace focs
