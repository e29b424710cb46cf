// net::client — the caller's side of the wire, shaped like the in-process
// service.  submit() returns the very serve::submission type the service
// hands out (get / wait / wait_for / valid / cancel), or calls a
// serve::completion, and either way the answer is the
// serve::service_result the server computed or the same exception a local
// submit would have produced — the error-frame fault mapping
// (net/wire.hpp) reproduces exception types across the process boundary,
// so retry logic written against serve::classify_fault works unchanged
// against a remote service.
//
// One client is one connection.  A writer mutex serialises request frames;
// a single reader thread settles each response frame's pending completion
// by correlation id (futures are adapters over those completions), so any
// number of threads can submit/ping/query through one client concurrently
// and submissions overlap on the wire.  If the transport dies, every
// outstanding and future call fails with socket_error (transient under
// classify_fault — connection loss is retryable, unlike a protocol
// violation).
#ifndef DEW_NET_CLIENT_HPP
#define DEW_NET_CLIENT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/record.hpp"

namespace dew::net {

class client_core; // shared connection state (net/client.cpp)

// The remote handle is the in-process one; its cancel() is a cancel-frame
// round trip, and get() throws socket_error if the connection died first.
using submission = serve::submission;

class client {
public:
    // Connects (TCP, IPv4) and starts the reader thread.  Throws
    // socket_error when the server is unreachable.
    client(const std::string& host, std::uint16_t port);
    ~client();

    client(const client&) = delete;
    client& operator=(const client&) = delete;

    // Round-trip no-op; proves the conversation works.
    void ping();

    // Ships the records, returns their content digest (computed
    // server-side; also ingested into the server's corpus when it has one).
    trace::trace_digest register_trace(const trace::mem_trace& records);
    [[nodiscard]] bool has_trace(const trace::trace_digest& digest);

    // Asynchronous remote submit.  Throws only on transport failure; a
    // service-side rejection (unknown digest, ill-formed request,
    // overload) surfaces through the submission's get(), matching the
    // in-process API's async fault path.
    [[nodiscard]] submission submit(const trace::trace_digest& digest,
                                    const serve::service_request& request);

    // The completion form, which the future form adapts: `done` runs on
    // the reader thread once the answer arrives (after the net.client.submit
    // span is recorded), or with socket_error on the thread that closes the
    // connection; no client lock held, throws trapped.  It must not wait on
    // another answer from this client: it occupies the thread that delivers
    // them.
    [[nodiscard]] serve::cancel_lever
    submit(const trace::trace_digest& digest,
           const serve::service_request& request, serve::completion done);

    [[nodiscard]] serve::service_stats stats();

    // The server's obs::registry snapshot (counters, gauges, stage-latency
    // percentiles), stable name order.
    [[nodiscard]] std::vector<obs::metric> metrics();

    // The server's wide per-request event ring, oldest first
    // (docs/OBSERVABILITY.md, Fleet).  Render with obs::events_jsonl.
    [[nodiscard]] std::vector<obs::request_event> events();

    // Warm-cache handoff: the server's cache as a "DSCF" image, and the
    // inverse (load_mode semantics are the service's — strict faults are
    // rethrown here as the server saw them).
    [[nodiscard]] std::string save_cache();
    serve::cache_load_report load_cache(serve::load_mode mode,
                                        std::string_view cache_file);

    void pause();
    void resume();

    // Closes the connection; outstanding calls fail with socket_error.
    // Idempotent; also run by the destructor.
    void close();

private:
    std::shared_ptr<client_core> core_;
};

} // namespace dew::net

#endif // DEW_NET_CLIENT_HPP
