#include "serve_client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>

namespace e2ebench {

namespace {

enum class Phase { kConnecting, kWriting, kReading };

struct Connection {
    std::size_t index = 0;
    int fd = -1;
    Phase phase = Phase::kConnecting;
    std::string out;  ///< serialized request
    std::size_t written = 0;
    std::string in;   ///< raw response
};

std::string serialize_post(const std::string& body) {
    return "POST /sweep HTTP/1.1\r\nHost: focs\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\nConnection: close\r\n\r\n" + body;
}

/// Splits a Connection: close response into status and body; false when
/// the status line is malformed.
bool parse_response(const std::string& raw, int& status, std::string& body) {
    const auto line_end = raw.find("\r\n");
    const auto sp = raw.find(' ');
    if (line_end == std::string::npos || sp == std::string::npos || sp > line_end) return false;
    status = std::atoi(raw.c_str() + sp + 1);
    const auto head_end = raw.find("\r\n\r\n");
    if (status < 100 || status > 599 || head_end == std::string::npos) return false;
    body = raw.substr(head_end + 4);
    return true;
}

}  // namespace

std::vector<RequestOutcome> run_open_loop(int port, const std::vector<ScheduledRequest>& requests,
                                          Clock::time_point origin, double timeout_ms) {
    std::vector<RequestOutcome> outcomes(requests.size());
    std::vector<Connection> open;
    const auto now_ms = [&] { return ms_between(origin, Clock::now()); };

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

    const auto fail = [&](Connection& connection, const std::string& what) {
        RequestOutcome& outcome = outcomes[connection.index];
        outcome.status = 0;
        outcome.error = what + ": " + std::strerror(errno);
        outcome.done_ms = now_ms();
        ::close(connection.fd);
        connection.fd = -1;
    };
    const auto write_some = [&](Connection& connection) {
        while (connection.written < connection.out.size()) {
            const ssize_t n =
                ::send(connection.fd, connection.out.data() + connection.written,
                       connection.out.size() - connection.written, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                if (errno == EINTR) continue;
                fail(connection, "send");
                return;
            }
            connection.written += static_cast<std::size_t>(n);
        }
        outcomes[connection.index].written_ms = now_ms();
        connection.phase = Phase::kReading;
    };
    const auto read_some = [&](Connection& connection) {
        char chunk[16384];
        for (;;) {
            const ssize_t n = ::recv(connection.fd, chunk, sizeof chunk, 0);
            if (n > 0) {
                RequestOutcome& outcome = outcomes[connection.index];
                if (connection.in.empty()) outcome.first_byte_ms = now_ms();
                connection.in.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            if (n < 0 && errno == EINTR) continue;
            if (n < 0) {
                fail(connection, "recv");
                return;
            }
            RequestOutcome& outcome = outcomes[connection.index];
            outcome.done_ms = now_ms();
            if (!parse_response(connection.in, outcome.status, outcome.body)) {
                outcome.status = 0;
                outcome.error = "malformed response";
            }
            ::close(connection.fd);
            connection.fd = -1;
            return;
        }
    };
    const auto start_request = [&](std::size_t index) {
        RequestOutcome& outcome = outcomes[index];
        outcome.due_ms = requests[index].due_ms;
        outcome.sent_ms = now_ms();
        Connection connection;
        connection.index = index;
        connection.out = serialize_post(requests[index].spec_text);
        connection.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
        if (connection.fd < 0) {
            outcome.error = std::string("socket: ") + std::strerror(errno);
            outcome.done_ms = now_ms();
            return;
        }
        if (::connect(connection.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
            outcome.connected_ms = now_ms();
            connection.phase = Phase::kWriting;
            write_some(connection);
        } else if (errno != EINPROGRESS) {
            fail(connection, "connect");
            return;
        }
        if (connection.fd >= 0) open.push_back(std::move(connection));
    };

    std::size_t next = 0;
    std::vector<pollfd> fds;
    while (next < requests.size() || !open.empty()) {
        while (next < requests.size() && requests[next].due_ms <= now_ms()) start_request(next++);

        // Expire requests that outlived the timeout.
        const double now = now_ms();
        for (Connection& connection : open) {
            if (connection.fd >= 0 && now - outcomes[connection.index].due_ms > timeout_ms) {
                errno = ETIMEDOUT;
                fail(connection, "timeout");
            }
        }
        open.erase(std::remove_if(open.begin(), open.end(),
                                  [](const Connection& c) { return c.fd < 0; }),
                   open.end());
        if (next >= requests.size() && open.empty()) break;

        fds.clear();
        for (const Connection& connection : open) {
            fds.push_back(
                {connection.fd,
                 static_cast<short>(connection.phase == Phase::kReading ? POLLIN : POLLOUT), 0});
        }
        // Sleep until the next request is due (or 50 ms at most, so the
        // timeout sweep above still runs when nothing is due).
        double wait_ms = 50;
        if (next < requests.size()) wait_ms = std::min(wait_ms, requests[next].due_ms - now_ms());
        wait_ms = std::max(wait_ms, 0.0);
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(wait_ms / 1000);
        timeout.tv_nsec = static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6);
        const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready <= 0) continue;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0) continue;
            Connection& connection = open[i];
            if (connection.phase == Phase::kConnecting) {
                int error = 0;
                socklen_t len = sizeof error;
                ::getsockopt(connection.fd, SOL_SOCKET, SO_ERROR, &error, &len);
                if (error != 0) {
                    errno = error;
                    fail(connection, "connect");
                    continue;
                }
                outcomes[connection.index].connected_ms = now_ms();
                connection.phase = Phase::kWriting;
            }
            if (connection.phase == Phase::kWriting) {
                write_some(connection);
            } else {
                read_some(connection);
            }
        }
    }
    return outcomes;
}

}  // namespace e2ebench
