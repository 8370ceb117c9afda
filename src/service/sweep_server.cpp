#include "service/sweep_server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#include <utility>

#include "common/error.hpp"
#include "runtime/result_io.hpp"
#include "runtime/sweep_spec.hpp"

namespace focs::service {

namespace {

/// Receive timeout on accepted connections: bounds how long a stalled or
/// dead client can occupy the single-threaded acceptor.
constexpr int kRecvTimeoutSeconds = 5;

void close_quietly(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

std::string sweep_response_body(const runtime::SweepResult& result, bool include_timing) {
    std::string json = runtime::to_json(result, include_timing);
    // to_json's document opens with "{\n"; the service's partial flag slots
    // in as the first key so the rest of the document stays byte-identical
    // to the offline artifact (and from_json skips unknown keys).
    check(json.rfind("{\n", 0) == 0, "unexpected sweep JSON framing");
    json.insert(2, std::string("  \"partial\": ") + (result.complete() ? "false" : "true") +
                       ",\n");
    return json;
}

std::string error_body(const std::string& message, ErrorCode code) {
    return "{\n  \"error\": " + runtime::json_string(message) +
           ",\n  \"error_code\": " + runtime::json_string(error_code_name(code)) + "\n}\n";
}

SweepServer::SweepServer(ServerConfig config)
    : config_(std::move(config)), cache_(std::make_shared<runtime::ArtifactCache>()) {
    check(config_.max_inflight >= 1, "server max_inflight wants >= 1");
    check(config_.queue_depth >= 0, "server queue_depth wants >= 0");
    check(config_.deadline_default_ms == 0 ||
              CancellationToken::valid_deadline_ms(config_.deadline_default_ms),
          "server deadline_default_ms wants 0 (none) or a deadline of at most one year");
    if (config_.cache_budget_bytes > 0) cache_->set_byte_budget(config_.cache_budget_bytes);
    active_.resize(static_cast<std::size_t>(config_.max_inflight));

    ids_.accepted = metrics_.counter("server.requests.accepted");
    ids_.shed = metrics_.counter("server.requests.shed");
    ids_.served_ok = metrics_.counter("server.requests.served_ok");
    ids_.served_partial = metrics_.counter("server.requests.served_partial");
    ids_.bad_request = metrics_.counter("server.requests.bad_request");
    ids_.error = metrics_.counter("server.requests.error");
    ids_.queue_depth = metrics_.gauge("server.queue.depth");
    ids_.request_ms = metrics_.histogram("server.request_ms", obs::latency_ms_bounds());
}

SweepServer::~SweepServer() {
    if (started_) {
        request_hard_cancel();
        wait();
    }
    close_quietly(drain_pipe_[0]);
    close_quietly(drain_pipe_[1]);
    close_quietly(listen_fd_);
}

void SweepServer::start() {
    check(!started_, "SweepServer::start called twice");

    if (::pipe(drain_pipe_) != 0) throw Error("cannot create drain pipe");
    // Non-blocking read end: the acceptor drains every pending command in
    // one pass. The write end stays blocking — a pipe buffer holds far more
    // single-byte commands than signals can queue.
    ::fcntl(drain_pipe_[0], F_SETFL, O_NONBLOCK);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw Error("cannot create listen socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        throw Error("cannot bind 127.0.0.1:" + std::to_string(config_.port) + ": " +
                    std::strerror(errno));
    }
    if (::listen(listen_fd_, 64) != 0) throw Error("cannot listen");

    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = static_cast<int>(ntohs(addr.sin_port));

    started_ = true;
    acceptor_ = std::thread([this] { accept_loop(); });
    workers_.reserve(static_cast<std::size_t>(config_.max_inflight));
    for (int slot = 0; slot < config_.max_inflight; ++slot) {
        workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
}

void SweepServer::wait() {
    if (!started_ || joined_) return;
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
    joined_ = true;
}

void SweepServer::request_drain() {
    const char cmd = 'd';
    [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &cmd, 1);
}

void SweepServer::request_hard_cancel() {
    const char cmd = 'c';
    [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &cmd, 1);
}

bool SweepServer::draining() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

ServerStats SweepServer::stats() const {
    return {metrics_.counter_value(ids_.accepted),       metrics_.counter_value(ids_.shed),
            metrics_.counter_value(ids_.served_ok),      metrics_.counter_value(ids_.served_partial),
            metrics_.counter_value(ids_.bad_request),    metrics_.counter_value(ids_.error)};
}

obs::MetricsSnapshot SweepServer::metrics_snapshot() const {
    obs::MetricsSnapshot snapshot = metrics_.snapshot();
    snapshot.merge(cache_->metrics_snapshot());
    return snapshot;
}

void SweepServer::begin_drain_locked(bool hard) {
    draining_ = true;
    if (!hard) return;
    // Hard cancel: fire every in-flight token; queued-but-unstarted
    // requests are answered 503 right here so the workers only ever see an
    // empty queue afterwards.
    for (auto& token : active_) {
        if (token.has_value()) token->request_cancel();
    }
    std::deque<Pending> flushed;
    flushed.swap(queue_);
    for (auto& pending : flushed) {
        metrics_.add(ids_.shed);
        respond_and_close(pending.fd,
                          {503, {}, error_body("server draining", ErrorCode::kOverloaded)});
    }
}

void SweepServer::accept_loop() {
    bool accepting = true;
    for (;;) {
        pollfd fds[2];
        fds[0] = {drain_pipe_[0], POLLIN, 0};
        fds[1] = {listen_fd_, POLLIN, 0};
        // While draining, poll only the pipe (a 'c' may still arrive) with
        // a short timeout so the loop notices the last worker finishing.
        const int rc = ::poll(fds, accepting ? 2 : 1, accepting ? -1 : 50);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[0].revents & POLLIN) {
            char cmd = 0;
            bool hard = false;
            while (::read(drain_pipe_[0], &cmd, 1) == 1) {
                if (cmd == 'c') hard = true;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                begin_drain_locked(hard);
            }
            cv_.notify_all();
            if (accepting) {
                // Refuse new connects at the socket layer from here on.
                close_quietly(listen_fd_);
                accepting = false;
            }
        }
        if (accepting && (fds[1].revents & POLLIN)) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd >= 0) handle_connection(fd);
        }
        if (!accepting) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty() && inflight_ == 0) break;
        }
    }
    cv_.notify_all();
}

void SweepServer::handle_connection(int fd) {
    timeval timeout{kRecvTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

    HttpRequest request;
    std::string error;
    const ReadOutcome outcome = read_http_request(fd, request, error);
    if (outcome == ReadOutcome::kClosed) {
        close_quietly(fd);
        return;
    }
    if (outcome != ReadOutcome::kOk) {
        metrics_.add(ids_.bad_request);
        respond_and_close(fd, {400, {}, error_body(error, ErrorCode::kUnknown)});
        return;
    }

    if (request.target == "/healthz") {
        const bool draining = this->draining();
        respond_and_close(
            fd, {200, {}, std::string("{\n  \"status\": \"ok\",\n  \"draining\": ") +
                              (draining ? "true" : "false") + "\n}\n"});
        return;
    }
    if (request.target == "/metricsz") {
        respond_and_close(fd, {200, {}, metrics_snapshot().to_json()});
        return;
    }
    if (request.target != "/sweep") {
        metrics_.add(ids_.bad_request);
        respond_and_close(
            fd, {404, {}, error_body("unknown target " + request.target, ErrorCode::kUnknown)});
        return;
    }
    if (request.method != "POST") {
        metrics_.add(ids_.bad_request);
        respond_and_close(fd, {405, {}, error_body("/sweep wants POST", ErrorCode::kUnknown)});
        return;
    }
    admit_or_shed(fd, std::move(request));
}

void SweepServer::admit_or_shed(int fd, HttpRequest request) {
    // The deadline arms at admission so queue wait counts against it, and
    // so a malformed header is rejected before the request occupies a slot.
    Pending pending;
    pending.fd = fd;
    double deadline_ms = config_.deadline_default_ms;
    if (const std::string* value = request.header("x-focs-deadline-ms")) {
        char* end = nullptr;
        deadline_ms = std::strtod(value->c_str(), &end);
        if (end == value->c_str() || *end != '\0' ||
            !CancellationToken::valid_deadline_ms(deadline_ms)) {
            metrics_.add(ids_.bad_request);
            respond_and_close(
                fd, {400, {},
                     error_body("X-Focs-Deadline-Ms wants a positive number of milliseconds, "
                                "at most one year, got '" + *value + "'",
                                ErrorCode::kUnknown)});
            return;
        }
    }
    if (deadline_ms > 0) pending.cancel = CancellationToken::with_deadline_ms(deadline_ms);
    if (const std::string* value = request.header("x-focs-canonical")) {
        pending.canonical = (*value == "1" || *value == "true");
    }
    pending.request = std::move(request);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Admission window = max_inflight + queue_depth requests open at
        // once. Counting queued + in-flight (not queue length alone) makes
        // the shed count independent of how fast workers pop the queue.
        const std::size_t open = queue_.size() + static_cast<std::size_t>(inflight_);
        const std::size_t window =
            static_cast<std::size_t>(config_.max_inflight + config_.queue_depth);
        if (draining_ || open >= window) {
            metrics_.add(ids_.shed);
            respond_and_close(
                pending.fd,
                {503, {},
                 error_body(draining_ ? "server draining"
                                      : "server overloaded: admission queue full (depth " +
                                            std::to_string(config_.queue_depth) + ")",
                            ErrorCode::kOverloaded)});
            return;
        }
        queue_.push_back(std::move(pending));
        metrics_.add(ids_.accepted);
        metrics_.gauge_max(ids_.queue_depth, static_cast<std::int64_t>(queue_.size()));
    }
    cv_.notify_one();
}

void SweepServer::worker_loop(int slot) {
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
            if (queue_.empty()) return;  // draining and nothing left
            pending = std::move(queue_.front());
            queue_.pop_front();
            ++inflight_;
            active_[static_cast<std::size_t>(slot)] = pending.cancel;
        }
        process(std::move(pending));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inflight_;
            active_[static_cast<std::size_t>(slot)].reset();
        }
        cv_.notify_all();
    }
}

void SweepServer::process(Pending pending) {
    const auto start = std::chrono::steady_clock::now();
    HttpResponse response;
    try {
        const runtime::SweepSpec spec = runtime::SweepSpec::parse(pending.request.body);
        runtime::SweepRunOptions options;
        if (pending.cancel.has_value()) options.cancel = &*pending.cancel;
        const runtime::SweepEngine engine(config_.jobs, cache_);
        const runtime::SweepResult result = engine.run(spec, options);
        response.status = result.complete() ? 200 : 206;
        response.body = sweep_response_body(result, /*include_timing=*/!pending.canonical);
        metrics_.add(result.complete() ? ids_.served_ok : ids_.served_partial);
    } catch (const Error& e) {
        // Spec parse errors and cache-poisoning failures surface here; the
        // request is answered, never dropped.
        response.status = 400;
        response.body = error_body(e.what(), e.code());
        metrics_.add(ids_.bad_request);
    } catch (const std::exception& e) {
        response.status = 500;
        response.body = error_body(e.what(), ErrorCode::kUnknown);
        metrics_.add(ids_.error);
    }
    respond_and_close(pending.fd, response);
    metrics_.observe(ids_.request_ms, ms_since(start));
}

void SweepServer::respond_and_close(int fd, const HttpResponse& response) {
    if (fd < 0) return;
    if (!write_all(fd, serialize_response(response))) {
        // The peer gave up (EPIPE); nothing sensible to do but log.
        std::fprintf(stderr, "focs-serve: client went away before the response\n");
    }
    ::close(fd);
}

}  // namespace focs::service
