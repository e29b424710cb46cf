// net::server + net::client over a loopback socket: the networked answers
// are bit-identical to direct run_sweep, and their miss counts to the CIPAR
// oracle (under concurrent clients too), the failure taxonomy crosses the
// wire, malformed frames are rejected precisely without killing the
// server, and the warm-cache handoff round-trips.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dew/result_io.hpp"
#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;

trace::mem_trace workload(trace::mediabench_app app =
                              trace::mediabench_app::cjpeg,
                          std::size_t records = 4000) {
    return trace::make_mediabench_trace(app, records);
}

serve::service_request small_request(unsigned max_set_exp = 4) {
    serve::service_request request;
    request.sweep.max_set_exp = max_set_exp;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    return request;
}

// Canonical image for bit-identity comparison.  The wall-clock `seconds`
// field is zeroed first: it is a measurement of the run, not part of the
// answer, and (alone in the format) legitimately differs between a served
// and a direct computation of the same question.
std::string sweep_bytes(core::sweep_result result) {
    result.seconds = 0.0;
    std::ostringstream out;
    core::write_binary_result(out, result);
    return out.str();
}

TEST(Loopback, PingRegisterAndHasTrace) {
    server srv{{}};
    ASSERT_NE(srv.port(), 0);
    client cli{"127.0.0.1", srv.port()};
    cli.ping();

    const trace::mem_trace records = workload();
    const trace::trace_digest expected = trace::compute_digest(records);
    EXPECT_FALSE(cli.has_trace(expected));
    EXPECT_EQ(cli.register_trace(records), expected);
    EXPECT_TRUE(cli.has_trace(expected));
    // Registration is content-addressed: sending the same records again is
    // a dedupe, not a conflict.
    EXPECT_EQ(cli.register_trace(records), expected);
    EXPECT_TRUE(srv.local_service().has_trace(to_string(expected)));
}

TEST(Loopback, ServedAnswersAreBitIdenticalToRunSweepAndTheCiparOracle) {
    server srv{{}};
    client cli{"127.0.0.1", srv.port()};
    const trace::mem_trace records = workload();
    const trace::trace_digest digest = cli.register_trace(records);

    const serve::service_request request = small_request();
    const serve::service_result result = cli.submit(digest, request).get();
    ASSERT_NE(result.sweep, nullptr);
    const core::sweep_result direct =
        core::run_sweep(records, serve::canonical(request).sweep);
    EXPECT_EQ(sweep_bytes(*result.sweep), sweep_bytes(direct));

    // The CIPAR engine stays a library oracle: its miss counts agree with
    // every served configuration.
    core::sweep_request oracle = request.sweep;
    oracle.engine = core::sweep_engine::cipar;
    const core::sweep_result cipar = core::run_sweep(records, oracle);
    for (const core::config_outcome& outcome : result.sweep->outcomes()) {
        EXPECT_EQ(cipar.misses_of(outcome.config), outcome.misses);
    }

    // A counted sweep is refused before anything is sent; the connection
    // keeps serving.
    serve::service_request counted = request;
    counted.sweep.instrumentation = core::sweep_instrumentation::full_counters;
    EXPECT_THROW((void)cli.submit(digest, counted), std::invalid_argument);
    EXPECT_TRUE(cli.submit(digest, request).get().cache_hit);
}

TEST(Loopback, ConcurrentClientStormStaysBitIdentical) {
    server_options options;
    options.service.workers = 3;
    server srv{options};

    const trace::mem_trace cjpeg = workload(trace::mediabench_app::cjpeg);
    const trace::mem_trace mpeg = workload(trace::mediabench_app::mpeg2_enc);
    trace::trace_digest cjpeg_digest, mpeg_digest;
    {
        client registrar{"127.0.0.1", srv.port()};
        cjpeg_digest = registrar.register_trace(cjpeg);
        mpeg_digest = registrar.register_trace(mpeg);
    }

    // Expected images, computed directly.
    const auto expected = [&](const trace::mem_trace& records,
                              const serve::service_request& request) {
        return sweep_bytes(
            core::run_sweep(records, serve::canonical(request).sweep));
    };

    constexpr std::size_t client_count = 4;
    constexpr std::size_t per_client = 6;
    std::vector<std::string> failures;
    std::mutex failures_mutex;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < client_count; ++c) {
        clients.emplace_back([&, c] {
            try {
                client cli{"127.0.0.1", srv.port()};
                std::vector<submission> pending;
                std::vector<std::string> want;
                for (std::size_t i = 0; i < per_client; ++i) {
                    const bool use_mpeg = (c + i) % 2 == 0;
                    // Two distinct depths so the storm mixes cache hits,
                    // coalesces and fresh computations.
                    const serve::service_request request =
                        small_request(i % 3 == 0 ? 3 : 4);
                    pending.push_back(cli.submit(
                        use_mpeg ? mpeg_digest : cjpeg_digest, request));
                    want.push_back(
                        expected(use_mpeg ? mpeg : cjpeg, request));
                }
                for (std::size_t i = 0; i < pending.size(); ++i) {
                    const serve::service_result result = pending[i].get();
                    ASSERT_NE(result.sweep, nullptr);
                    if (sweep_bytes(*result.sweep) != want[i]) {
                        const std::lock_guard lock{failures_mutex};
                        failures.push_back(
                            "client " + std::to_string(c) + " request " +
                            std::to_string(i) + " answer differs");
                    }
                }
            } catch (const std::exception& fault) {
                const std::lock_guard lock{failures_mutex};
                failures.push_back(fault.what());
            }
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    EXPECT_TRUE(failures.empty())
        << failures.size() << " failures; first: " << failures.front();

    const serve::service_stats stats = srv.local_service().stats();
    EXPECT_EQ(stats.submitted, client_count * per_client);
    EXPECT_EQ(stats.completed, client_count * per_client);
    // 2 traces x 2 depths = at most 4 distinct questions; everything else
    // was answered without a fresh computation.
    EXPECT_LE(stats.computations, 4u);
    EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.computations,
              stats.submitted);
}

TEST(Loopback, ServiceFaultsCrossTheWireTyped) {
    server srv{{}};
    client cli{"127.0.0.1", srv.port()};

    // Unknown digest: rejected like the in-process unknown trace name.
    submission unknown =
        cli.submit(trace::trace_digest{{1, 2}}, small_request());
    EXPECT_THROW((void)unknown.get(), std::invalid_argument);

    // Ill-formed grid: a non-power-of-two block size.
    const trace::trace_digest digest = cli.register_trace(workload());
    serve::service_request bad = small_request();
    bad.sweep.block_sizes = {24};
    submission malformed = cli.submit(digest, bad);
    EXPECT_THROW((void)malformed.get(), std::invalid_argument);

    // The server survived both; the connection is still usable.
    cli.ping();
    EXPECT_EQ(srv.local_service().stats().completed, 0u);
}

TEST(Loopback, DeadlineTimeoutAndCancelCrossTheWire) {
    server srv{{}};
    client cli{"127.0.0.1", srv.port()};
    const trace::trace_digest digest = cli.register_trace(workload());

    // Stage: hold the workers so submissions sit in the queue.
    cli.pause();

    serve::service_request with_deadline = small_request();
    with_deadline.deadline = std::chrono::milliseconds{5};
    submission timed = cli.submit(digest, with_deadline);

    submission withdrawn = cli.submit(digest, small_request(3));
    EXPECT_TRUE(withdrawn.cancel());

    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    cli.resume();

    EXPECT_THROW((void)timed.get(), serve::service_timeout);
    EXPECT_THROW((void)withdrawn.get(), serve::service_cancelled);

    const serve::service_stats stats = cli.stats();
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_GE(stats.cancellations, 1u);
}

TEST(Loopback, MalformedHeaderGetsPreciseErrorAndOnlyThatConnectionDies) {
    server srv{{}};
    client healthy{"127.0.0.1", srv.port()};
    const trace::trace_digest digest = healthy.register_trace(workload());

    {
        // Raw garbage where a frame header belongs.
        socket_fd raw = connect_to("127.0.0.1", srv.port());
        const std::string garbage(frame_header_bytes, 'X');
        write_all(raw, garbage.data(), garbage.size());

        std::string header_bytes(frame_header_bytes, '\0');
        ASSERT_EQ(read_exact(raw, header_bytes.data(), header_bytes.size()),
                  header_bytes.size());
        const frame_header header = parse_header(header_bytes);
        EXPECT_EQ(header.type, message_type::error);
        EXPECT_EQ(header.id, 0u); // no request id is trustworthy
        std::string payload(header.payload_bytes, '\0');
        ASSERT_EQ(read_exact(raw, payload.data(), payload.size()),
                  payload.size());
        const error_message fault = decode_error(payload);
        EXPECT_EQ(fault.code, fault_code::protocol);
        EXPECT_NE(fault.what.find("byte"), std::string::npos) << fault.what;

        // Framing is lost: the server closes THIS connection.
        char byte = 0;
        EXPECT_EQ(read_exact(raw, &byte, 1), 0u);
    }

    // ... but not the service or other connections.
    healthy.ping();
    submission pending =
        healthy.submit(digest, small_request());
    EXPECT_NE(pending.get().sweep, nullptr);
}

TEST(Loopback, MalformedPayloadUnderValidHeaderKeepsConnectionServing) {
    server srv{{}};
    socket_fd raw = connect_to("127.0.0.1", srv.port());

    // Well-framed has_trace whose payload is 3 bytes instead of 16.
    const std::string bad =
        encode_frame(message_type::has_trace, 77, "abc");
    write_all(raw, bad.data(), bad.size());

    std::string header_bytes(frame_header_bytes, '\0');
    ASSERT_EQ(read_exact(raw, header_bytes.data(), header_bytes.size()),
              header_bytes.size());
    frame_header header = parse_header(header_bytes);
    EXPECT_EQ(header.type, message_type::error);
    EXPECT_EQ(header.id, 77u); // the id is trustworthy; echo it
    std::string payload(header.payload_bytes, '\0');
    ASSERT_EQ(read_exact(raw, payload.data(), payload.size()),
              payload.size());
    EXPECT_EQ(decode_error(payload).code, fault_code::protocol);

    // Same connection, next request: still served.
    const std::string ping_bytes = encode_frame(message_type::ping, 78, {});
    write_all(raw, ping_bytes.data(), ping_bytes.size());
    ASSERT_EQ(read_exact(raw, header_bytes.data(), header_bytes.size()),
              header_bytes.size());
    header = parse_header(header_bytes);
    EXPECT_EQ(header.type, message_type::pong);
    EXPECT_EQ(header.id, 78u);
}

TEST(Loopback, CacheImageHandsOffBetweenServers) {
    const trace::mem_trace records = workload();
    std::string image;
    std::string expected_image;
    {
        server warm{{}};
        client cli{"127.0.0.1", warm.port()};
        const trace::trace_digest digest = cli.register_trace(records);
        const serve::service_request request = small_request();
        expected_image = sweep_bytes(*cli.submit(digest, request).get().sweep);
        image = cli.save_cache();
        EXPECT_FALSE(image.empty());
    }

    server cold{{}};
    client cli{"127.0.0.1", cold.port()};
    const trace::trace_digest digest = cli.register_trace(records);
    const serve::cache_load_report report =
        cli.load_cache(serve::load_mode::strict, image);
    EXPECT_EQ(report.loaded, 4u); // one column per (B, A) of the 2 x 2 grid
    EXPECT_TRUE(report.checksum_ok);

    // The warmed server answers from cache, bit-identically.
    const serve::service_result result =
        cli.submit(digest, small_request()).get();
    EXPECT_TRUE(result.cache_hit);
    EXPECT_EQ(sweep_bytes(*result.sweep), expected_image);

    // A corrupted image in strict mode is rejected server-side and the
    // typed fault comes back.
    std::string damaged = image;
    damaged[damaged.size() / 2] ^= 0x01;
    EXPECT_THROW((void)cli.load_cache(serve::load_mode::strict, damaged),
                 std::runtime_error);
}

TEST(Loopback, CorpusHydratesTracesAcrossServerRestarts) {
    const std::string corpus_dir =
        testing::TempDir() + "dew_loopback_corpus";
    std::filesystem::remove_all(corpus_dir);

    const trace::mem_trace records = workload();
    trace::trace_digest digest{};
    {
        server_options options;
        options.corpus_dir = corpus_dir;
        server srv{options};
        client cli{"127.0.0.1", srv.port()};
        digest = cli.register_trace(records);
    }

    // A fresh server over the same corpus serves the digest without a new
    // registration: the registry hydrates it on first submit.
    server_options options;
    options.corpus_dir = corpus_dir;
    server srv{options};
    client cli{"127.0.0.1", srv.port()};
    EXPECT_TRUE(cli.has_trace(digest));
    const serve::service_result result =
        cli.submit(digest, small_request()).get();
    ASSERT_NE(result.sweep, nullptr);
    EXPECT_EQ(sweep_bytes(*result.sweep),
              sweep_bytes(core::run_sweep(
                  records, serve::canonical(small_request()).sweep)));
    std::filesystem::remove_all(corpus_dir);
}

} // namespace
