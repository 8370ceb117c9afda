// Sweep-daemon tests over real loopback sockets: request/response framing,
// cross-request artifact reuse (warm requests perform zero builds),
// deterministic admission-window shedding, deadline-bounded partial
// results, malformed-input rejection, and the graceful-drain contract.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/result_io.hpp"
#include "service/client.hpp"
#include "service/sweep_server.hpp"

namespace focs::service {
namespace {

/// One-cell spec: cheap enough to serve in tens of milliseconds, expensive
/// enough (cold characterization) that a concurrent burst lands while the
/// first request is still in flight.
constexpr const char* kSmallSpec = "kernels = crc32\npolicies = lut\nvoltages = 0.70\n";

/// A wider grid for deadline tests: 2 kernels x 2 policies x 3 voltages =
/// 12 cells and 3 characterizations.
constexpr const char* kWideSpec =
    "kernels = crc32, fibcall\npolicies = lut, static\nvoltages = 0.60, 0.65, 0.70\n";

ServerConfig test_config() {
    ServerConfig config;
    config.port = 0;  // ephemeral
    config.max_inflight = 2;
    config.queue_depth = 4;
    config.jobs = 1;
    return config;
}

/// Starts, runs `body(server)`, then drains and joins — every test exits
/// through the graceful-drain path.
template <typename Body>
void with_server(ServerConfig config, Body&& body) {
    SweepServer server(std::move(config));
    server.start();
    ASSERT_GT(server.port(), 0);
    body(server);
    server.request_drain();
    server.wait();
}

TEST(SweepService, ServesSweepOverLoopbackHttp) {
    with_server(test_config(), [](SweepServer& server) {
        const ClientResponse response = post_sweep(server.port(), kSmallSpec);
        ASSERT_EQ(response.status, 200);
        // The body is the standard result document plus the partial flag —
        // and the standard parser must not notice the extra key.
        EXPECT_NE(response.body.find("\"partial\": false"), std::string::npos);
        const runtime::SweepResult result = runtime::from_json(response.body);
        ASSERT_EQ(result.cells.size(), 1u);
        EXPECT_TRUE(result.complete());
        EXPECT_EQ(result.cells[0].kernel, "crc32");
        EXPECT_EQ(result.characterizations, 1u);
    });
}

TEST(SweepService, WarmRepeatPerformsZeroBuilds) {
    with_server(test_config(), [](SweepServer& server) {
        const ClientResponse cold = post_sweep(server.port(), kSmallSpec);
        ASSERT_EQ(cold.status, 200);
        const ClientResponse warm = post_sweep(server.port(), kSmallSpec);
        ASSERT_EQ(warm.status, 200);
        const runtime::SweepResult result = runtime::from_json(warm.body);
        // The headline serving contract: the shared cache answers a warm
        // repeat without a single characterization or guest simulation.
        EXPECT_EQ(result.characterizations, 0u);
        EXPECT_EQ(result.guest_simulations, 0u);
        EXPECT_EQ(result.unit_delay_passes, 0u);
        EXPECT_GT(result.cache_hits, 0u);
    });
    // Cells themselves must be byte-identical cold vs warm — checked via
    // the runtime's own determinism tests; here the status codes suffice.
}

TEST(SweepService, HealthAndMetricsEndpointsRespond) {
    with_server(test_config(), [](SweepServer& server) {
        HttpRequest health;
        health.method = "GET";
        health.target = "/healthz";
        const ClientResponse h = http_request(server.port(), health);
        EXPECT_EQ(h.status, 200);
        EXPECT_NE(h.body.find("\"status\": \"ok\""), std::string::npos);
        EXPECT_NE(h.body.find("\"draining\": false"), std::string::npos);

        post_sweep(server.port(), kSmallSpec);
        HttpRequest metrics;
        metrics.method = "GET";
        metrics.target = "/metricsz";
        const ClientResponse m = http_request(server.port(), metrics);
        EXPECT_EQ(m.status, 200);
        // Server counters and the shared cache's counters, one document.
        EXPECT_NE(m.body.find("server.requests.served_ok"), std::string::npos);
        EXPECT_NE(m.body.find("cache.delay_table.miss"), std::string::npos);
    });
}

TEST(SweepService, ShedsLoadBeyondAdmissionWindowWithOverloadedCode) {
    ServerConfig config = test_config();
    config.max_inflight = 1;
    config.queue_depth = 1;  // admission window = 2
    with_server(config, [](SweepServer& server) {
        LoadOptions options;
        options.port = server.port();
        options.spec_text = kWideSpec;  // slow enough to hold the window open
        options.requests = 5;
        options.concurrency = 5;
        const LoadReport report = run_load(options);
        EXPECT_EQ(report.responses(), 5u);
        EXPECT_EQ(report.ok, 2u);
        EXPECT_EQ(report.shed, 3u);
        EXPECT_EQ(report.transport_error, 0u);
        // Shed responses carry the machine-readable overload code.
        for (std::size_t i = 0; i < report.statuses.size(); ++i) {
            if (report.statuses[i] != 503) continue;
            EXPECT_NE(report.bodies[i].find("\"error_code\": \"overloaded\""),
                      std::string::npos);
        }
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.accepted, 2u);
        EXPECT_EQ(stats.shed, 3u);
    });
}

TEST(SweepService, DeadlineReturnsPartialResultsAs206) {
    ServerConfig config = test_config();
    with_server(config, [](SweepServer& server) {
        // A 1 ms deadline against a cold 12-cell grid: the token fires
        // before the first characterization finishes, so every cell drains
        // as cancelled and the finished prefix (possibly empty) comes back
        // as a partial document — never an error, never a hang.
        const ClientResponse response = post_sweep(server.port(), kWideSpec,
                                                   /*deadline_ms=*/1);
        ASSERT_EQ(response.status, 206);
        EXPECT_NE(response.body.find("\"partial\": true"), std::string::npos);
        const runtime::SweepResult result = runtime::from_json(response.body);
        EXPECT_EQ(result.cells.size(), 12u);
        EXPECT_FALSE(result.complete());
        EXPECT_GT(result.cells_cancelled, 0u);
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.served_partial, 1u);
        EXPECT_EQ(stats.served_ok, 0u);
    });
}

TEST(SweepService, RejectsMalformedRequests) {
    with_server(test_config(), [](SweepServer& server) {
        // Malformed spec body -> 400 with a classified error document.
        const ClientResponse bad_spec = post_sweep(server.port(), "kernels = \x01nope\nwat\n");
        EXPECT_EQ(bad_spec.status, 400);
        EXPECT_NE(bad_spec.body.find("\"error\""), std::string::npos);
        // Out-of-range voltage -> 400 at parse time, never a computed grid.
        const ClientResponse bad_voltage =
            post_sweep(server.port(), "kernels = crc32\nvoltages = 1e308\n");
        EXPECT_EQ(bad_voltage.status, 400);
        EXPECT_NE(bad_voltage.body.find("calibrated"), std::string::npos);
        // A non-finite guard band -> 400, never a run with the default guard.
        EXPECT_EQ(post_sweep(server.port(), "kernels = crc32\nguard_ps = nan\n").status, 400);
        // A repeated axis entry -> 400, never copies of one cell.
        for (const char* body :
             {"kernels = fibcall, fibcall\n", "kernels = crc32\npolicies = lut, lut\n",
              "kernels = crc32\ngenerators = taps:8, taps:8\n",
              "kernels = crc32\nvoltages = 0.7, 0.70\n"}) {
            const ClientResponse duplicate = post_sweep(server.port(), body);
            EXPECT_EQ(duplicate.status, 400) << body;
            EXPECT_NE(duplicate.body.find("duplicate"), std::string::npos) << body;
        }

        // Malformed deadline header -> 400 before admission. A non-finite
        // or out-of-range one is refused too, never armed in the past.
        for (const char* deadline : {"-5", "inf", "1e300", "nan"}) {
            HttpRequest bad_deadline;
            bad_deadline.method = "POST";
            bad_deadline.target = "/sweep";
            bad_deadline.body = kSmallSpec;
            bad_deadline.headers["X-Focs-Deadline-Ms"] = deadline;
            EXPECT_EQ(http_request(server.port(), bad_deadline).status, 400) << deadline;
        }

        // Unknown target -> 404; wrong method -> 405.
        HttpRequest unknown;
        unknown.method = "GET";
        unknown.target = "/nope";
        EXPECT_EQ(http_request(server.port(), unknown).status, 404);
        HttpRequest wrong_method;
        wrong_method.method = "GET";
        wrong_method.target = "/sweep";
        EXPECT_EQ(http_request(server.port(), wrong_method).status, 405);

        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.bad_request, 13u);
        EXPECT_EQ(stats.served(), 0u);
    });
}

TEST(SweepService, DrainFinishesInFlightThenRefusesConnections) {
    SweepServer server(test_config());
    server.start();
    const int port = server.port();

    // Launch a request, then drain while it is (very likely) in flight.
    // Three legitimate outcomes, all bounded: admitted before the drain ->
    // served; reached the acceptor during the drain -> shed with 503; lost
    // the race entirely -> the closed listen socket refuses the connect.
    bool refused = false;
    std::thread client([&] {
        try {
            const ClientResponse response = post_sweep(port, kSmallSpec);
            EXPECT_TRUE(response.status == 200 || response.status == 503)
                << "status " << response.status;
        } catch (const Error&) {
            refused = true;
        }
    });
    server.request_drain();
    client.join();
    server.wait();

    // Post-drain the listen socket is closed: connects are refused.
    EXPECT_THROW(post_sweep(port, kSmallSpec), Error);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.served() + stats.shed + (refused ? 1u : 0u), 1u);
}

TEST(SweepService, HardCancelAnswersEverythingQuickly) {
    ServerConfig config = test_config();
    config.max_inflight = 1;
    config.queue_depth = 4;
    SweepServer server(config);
    server.start();
    const int port = server.port();

    // Three slow requests: one in flight, two queued. A hard cancel fires
    // the in-flight token (partial 206) and sheds the queued ones (503) —
    // nobody waits for the grid to finish.
    std::vector<std::thread> clients;
    std::vector<int> statuses(3, 0);
    for (int i = 0; i < 3; ++i) {
        clients.emplace_back([&, i] {
            try {
                statuses[static_cast<std::size_t>(i)] = post_sweep(port, kWideSpec).status;
            } catch (const Error&) {
                statuses[static_cast<std::size_t>(i)] = -1;
            }
        });
    }
    // Give the burst a moment to land, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.request_hard_cancel();
    for (auto& client : clients) client.join();
    server.wait();

    for (const int status : statuses) {
        EXPECT_TRUE(status == 200 || status == 206 || status == 503) << "status " << status;
    }
    EXPECT_TRUE(server.draining());
}

TEST(SweepService, SweepResponseBodyKeepsCanonicalDocumentIntact) {
    // The partial-flag injection must leave the rest of the document
    // byte-identical to the offline artifact, so stripping the first key
    // recovers to_json exactly.
    runtime::SweepResult result;
    result.cells_ok = 1;
    result.cells.emplace_back();
    result.spec_text = "kernels = crc32\n";
    result.spec_hash = "fnv1a:0";
    const std::string offline = runtime::to_json(result, /*include_timing=*/false);
    const std::string body = sweep_response_body(result, /*include_timing=*/false);
    ASSERT_NE(body.find("\"partial\": false,\n"), std::string::npos);
    std::string stripped = body;
    const std::string flag = "  \"partial\": false,\n";
    stripped.erase(stripped.find(flag), flag.size());
    EXPECT_EQ(stripped, offline);
    // And the parser round-trips the decorated body.
    EXPECT_NO_THROW(runtime::from_json(body));
}

}  // namespace
}  // namespace focs::service
