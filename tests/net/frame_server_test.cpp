// The frame-serving core's resource bounds under long-lived and hostile
// clients: finished connections are reaped, payload buffers grow only with
// the bytes that arrive, one connection's submit storm costs no thread or
// mapping per answer (directly and through a router), and a peer that
// never reads holds up other connections' answers by at most the send
// timeout.
//
// Thread and mapping counts are read from /proc/self/task and
// /proc/self/maps: a thread that is never joined keeps its stack mapped,
// so a per-answer or per-connection thread shows up as steady growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "dew/result_io.hpp"
#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "net/frame_server.hpp"
#include "net/router_server.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;
using namespace std::chrono_literals;

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 4000);
}

serve::service_request small_request() {
    serve::service_request request;
    request.sweep.max_set_exp = 4;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    return request;
}

// Canonical image for bit-identity comparison; wall-clock seconds zeroed
// (a measurement of the run, not part of the answer).
std::string sweep_bytes(core::sweep_result result) {
    result.seconds = 0.0;
    std::ostringstream out;
    core::write_binary_result(out, result);
    return out.str();
}

struct process_counts {
    std::size_t threads{0};
    std::size_t maps{0};
};

process_counts sample_counts() {
    process_counts counts;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator{"/proc/self/task"}) {
        ++counts.threads;
    }
    std::ifstream maps{"/proc/self/maps"};
    std::string line;
    while (std::getline(maps, line)) {
        ++counts.maps;
    }
    return counts;
}

// Peak resident set (VmHWM) in KiB.
std::size_t peak_rss_kib() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stoul(line.substr(6));
        }
    }
    return 0;
}

// Growth allowed over the baseline: a few unjoined-but-finished readers
// awaiting the next reap, and allocator arenas settling — never a count
// that scales with the number of answers or connections.
constexpr std::size_t thread_slack = 8;
constexpr std::size_t map_slack = 16;

// Tracks the maximum counts seen after a warm-up baseline.
class flat_counts {
public:
    void sample(std::size_t step, std::size_t warmup, std::size_t every) {
        if (step == warmup) {
            baseline_ = sample_counts();
            peak_ = baseline_;
        } else if (step > warmup && step % every == 0) {
            const process_counts now = sample_counts();
            peak_.threads = std::max(peak_.threads, now.threads);
            peak_.maps = std::max(peak_.maps, now.maps);
        }
    }

    void expect_flat() const {
        EXPECT_LE(peak_.threads, baseline_.threads + thread_slack)
            << "baseline " << baseline_.threads << " threads";
        EXPECT_LE(peak_.maps, baseline_.maps + map_slack)
            << "baseline " << baseline_.maps << " mappings";
    }

private:
    process_counts baseline_;
    process_counts peak_;
};

TEST(FrameServer, DeclaredPayloadIsNotAllocatedBeforeItArrives) {
    server srv{{}};
    client healthy{"127.0.0.1", srv.port()};
    healthy.ping();
    const std::size_t before_kib = peak_rss_kib();
    {
        // One header promising the largest legal payload, a few bytes of
        // it, then silence and a close.
        socket_fd raw = connect_to("127.0.0.1", srv.port());
        const std::string header =
            encode_frame(message_type::register_trace, 1, {})
                .substr(0, frame_header_bytes - 8);
        std::string bytes = header;
        for (int shift = 0; shift < 64; shift += 8) {
            bytes.push_back(
                static_cast<char>((max_frame_payload >> shift) & 0xFF));
        }
        bytes += "a few payload bytes";
        write_all(raw, bytes.data(), bytes.size());
        std::this_thread::sleep_for(200ms);
    }
    // The server keeps serving other connections, old and new.
    healthy.ping();
    client fresh{"127.0.0.1", srv.port()};
    const trace::trace_digest digest = fresh.register_trace(workload());
    EXPECT_NE(fresh.submit(digest, small_request()).get().sweep, nullptr);

    const std::size_t grown_kib = peak_rss_kib() - before_kib;
    EXPECT_LT(grown_kib, std::size_t{64} << 10)
        << "peak RSS grew by " << (grown_kib >> 10) << " MiB";
}

TEST(FrameServer, FinishedConnectionsAreReapedAndAcceptingContinues) {
    server srv{{}};
    constexpr std::size_t connections = 2000;
    constexpr std::size_t warmup = 100;
    flat_counts counts;
    for (std::size_t i = 1; i <= connections; ++i) {
        client cli{"127.0.0.1", srv.port()};
        cli.ping();
        cli.close();
        counts.sample(i, warmup, 100);
    }
    counts.expect_flat();
    // Still accepting after all of that.
    client last{"127.0.0.1", srv.port()};
    last.ping();
}

TEST(FrameServer, FortyThousandWarmSubmitsOnOneConnectionKeepCountsFlat) {
    server srv{{}};
    client cli{"127.0.0.1", srv.port()};
    const trace::mem_trace records = workload();
    const trace::trace_digest digest = cli.register_trace(records);
    const serve::service_request request = small_request();
    const std::string expected = sweep_bytes(
        core::run_sweep(records, serve::canonical(request).sweep));

    // Past the 32,733 sequential submits after which a thread-per-answer
    // server exhausted vm.max_map_count and dropped the connection.
    constexpr std::size_t submits = 40'000;
    constexpr std::size_t warmup = 100;
    flat_counts counts;
    for (std::size_t i = 1; i <= submits; ++i) {
        const serve::service_result result =
            cli.submit(digest, request).get();
        ASSERT_NE(result.sweep, nullptr) << "submit " << i;
        ASSERT_EQ(sweep_bytes(*result.sweep), expected) << "submit " << i;
        counts.sample(i, warmup, 1000);
    }
    counts.expect_flat();
    const serve::service_stats stats = srv.local_service().stats();
    EXPECT_EQ(stats.submitted, submits);
    EXPECT_EQ(stats.completed, submits);
    EXPECT_EQ(stats.computations, 1u);
}

TEST(FrameServer, RoutedSubmitsThroughOneBackendKeepCountsFlat) {
    server backend{{}};
    router_server_options options;
    options.route.backends = {{"127.0.0.1", backend.port()}};
    router_server front{options};
    client cli{"127.0.0.1", front.port()};
    const trace::mem_trace records = workload();
    const trace::trace_digest digest = cli.register_trace(records);
    const serve::service_request request = small_request();
    const std::string expected = sweep_bytes(
        core::run_sweep(records, serve::canonical(request).sweep));

    constexpr std::size_t submits = 2000;
    constexpr std::size_t warmup = 100;
    flat_counts counts;
    for (std::size_t i = 1; i <= submits; ++i) {
        const serve::service_result result =
            cli.submit(digest, request).get();
        ASSERT_NE(result.sweep, nullptr) << "submit " << i;
        ASSERT_EQ(sweep_bytes(*result.sweep), expected) << "submit " << i;
        counts.sample(i, warmup, 100);
    }
    counts.expect_flat();
    EXPECT_EQ(front.route().inflight(0), 0u);
    EXPECT_EQ(backend.local_service().stats().completed, submits);
}

TEST(FrameServer, PeerThatNeverReadsDelaysOtherAnswersByAtMostTheSendTimeout) {
    // One worker: whatever blocks it blocks every answer behind it.
    server_options options;
    options.service.workers = 1;
    server srv{options};
    client other{"127.0.0.1", srv.port()};
    const trace::mem_trace records = workload();
    const trace::trace_digest digest = other.register_trace(records);

    // A question with a large answer, asked many times over a connection
    // that never reads: far more answer bytes than the socket buffers of
    // both ends can hold.
    serve::service_request big;
    big.sweep.max_set_exp = 12;
    big.sweep.block_sizes = {4, 8, 16, 32, 64, 128};
    big.sweep.associativities = {1, 2, 4, 8, 16};
    serve::service_result local;
    local.sweep = std::make_shared<const core::sweep_result>(
        core::run_sweep(records, serve::canonical(big).sweep));
    const std::size_t answer_bytes = encode_result(local).size();
    const std::size_t copies = (std::size_t{64} << 20) / answer_bytes + 1;

    serve::service& service = srv.local_service();
    service.pause();
    socket_fd stalled = connect_to("127.0.0.1", srv.port());
    const std::string submit_payload = encode_submit({digest, big});
    for (std::size_t i = 0; i < copies; ++i) {
        const std::string frame_bytes =
            encode_frame(message_type::submit, i + 1, submit_payload);
        write_all(stalled, frame_bytes.data(), frame_bytes.size());
    }
    // Every copy coalesced onto one flight; this connection's answer
    // queues behind it on the only worker.
    while (service.stats().submitted < copies) {
        std::this_thread::sleep_for(1ms);
    }
    serve::submission mine = other.submit(digest, small_request());
    while (service.stats().submitted < copies + 1) {
        std::this_thread::sleep_for(1ms);
    }
    const auto resumed = std::chrono::steady_clock::now();
    service.resume();
    const serve::service_result answer = mine.get();
    const auto waited = std::chrono::steady_clock::now() - resumed;
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_EQ(sweep_bytes(*answer.sweep),
              sweep_bytes(core::run_sweep(
                  records, serve::canonical(small_request()).sweep)));
    EXPECT_LT(waited, send_timeout + 4s);

    // The stalled peer really did stall the worker: it was dropped with
    // most of its answers undelivered.
    std::size_t delivered = 0;
    std::string sink(1 << 16, '\0');
    try {
        for (;;) {
            const std::size_t got =
                read_exact(stalled, sink.data(), sink.size());
            delivered += got;
            if (got < sink.size()) {
                break;
            }
        }
    } catch (const socket_error&) {
        // A reset ends the count just as an EOF does.
    }
    EXPECT_LT(delivered, copies * answer_bytes / 2);
    other.ping();
}

} // namespace
