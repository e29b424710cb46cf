// The DEW serving wire protocol: length-prefixed binary frames carrying
// typed messages between a net::client and a net::server (and between the
// router and its backends).
//
// Frame layout (all integers little-endian):
//   magic         4 bytes  "DSNW"
//   version       u32      currently 2 (1 carried the engine,
//                          instrumentation and dew_options in submit)
//   type          u8       message_type
//   id            u64      correlation id — echoed by the response frame(s)
//   payload_bytes u64      bytes following this field (<= max_frame_payload)
//   payload       payload_bytes bytes, layout per message type (wire.cpp)
//
// The decode path follows the hardened "DSWR"/"DSCF" discipline of
// dew::result_io and serve::cache: a truncated buffer, a bad magic or
// version, an unknown type, an implausible field, or a payload whose size
// disagrees with its decoded structure — short *or* over-long — throws
// net::wire_error naming the byte offset of the fault (payload offsets are
// frame-relative: payload byte 0 is frame byte 25).  A decoder never
// returns a partial message.  The test suite truncates every message type
// at every byte cut point and expects a precise reject at each.
//
// Fault mapping: a request that fails server-side is answered by an `error`
// frame whose fault_code round-trips the exception's type, so
// client.submit(...).get() throws the same exception a local
// serve::service::submit would — and serve::classify_fault() classifies the
// rethrown fault exactly as the server did (the PR-6 transient/permanent
// taxonomy crosses the process boundary intact).
#ifndef DEW_NET_WIRE_HPP
#define DEW_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/record.hpp"

namespace dew::net {

// A malformed frame or payload.  Distinct from socket_error (transport) and
// from the service's domain exceptions (which travel as `error` frames):
// wire_error means the bytes themselves are not a protocol conversation.
class wire_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline constexpr char frame_magic[4] = {'D', 'S', 'N', 'W'};
inline constexpr std::uint32_t wire_version = 2;
// magic + version + type + id + payload_bytes.
inline constexpr std::size_t frame_header_bytes = 4 + 4 + 1 + 8 + 8;
// Upper bound a receiver enforces before allocating: a 1 GiB payload holds
// a ~119M-record trace registration, far beyond any sane frame, and a
// declared size above it is certainly garbage framing, not a big message.
inline constexpr std::uint64_t max_frame_payload = std::uint64_t{1} << 30;

// One entry per line: dewlint's wire-completeness rule reads the per-entry
// codec annotation (`wire <codec>` names the encode_/decode_ pair, `none`
// an empty payload, `raw` an opaque byte payload) and fails the build
// unless the codec exists, the entry has a to_string case, and the decoder
// keeps its cut-point truncation coverage in tests/net/wire_test.cpp.
// dewlint: wire-enum
enum class message_type : std::uint8_t {
    // Requests (client -> server), interleaved with their responses
    // (server -> client).
    ping = 0,            // dewlint: wire none
    pong = 1,            // dewlint: wire none
    register_trace = 2,  // dewlint: wire records
    register_ok = 3,     // dewlint: wire digest
    has_trace = 4,       // dewlint: wire digest
    has_ok = 5,          // dewlint: wire flag
    submit = 6,          // dewlint: wire submit
    result = 7,          // dewlint: wire result
    cancel = 8,          // dewlint: wire cancel_target
    cancel_ok = 9,       // dewlint: wire flag
    stats = 10,          // dewlint: wire none
    stats_ok = 11,       // dewlint: wire stats
    cache_save = 12,     // dewlint: wire none
    cache_contents = 13, // dewlint: wire raw
    cache_load = 14,     // dewlint: wire cache_load
    cache_loaded = 15,   // dewlint: wire load_report
    pause = 16,          // dewlint: wire none
    resume = 17,         // dewlint: wire none
    // Ack of pause/resume.
    ok = 18,             // dewlint: wire none
    // Failure response to any request; payload = error_message.
    error = 19,          // dewlint: wire error
    // Observability: the server's obs::registry snapshot (counters,
    // gauges, stage-latency percentiles) in stable name order.
    get_metrics = 20,    // dewlint: wire none
    metrics_ok = 21,     // dewlint: wire metrics
    // Observability: the server's wide per-request event ring (one
    // structured record per settled request), oldest first.
    get_events = 22,     // dewlint: wire none
    events_ok = 23,      // dewlint: wire events
};

// The highest assigned entry — parse_header's unknown-type bound.  Keep in
// step when the enum grows.
inline constexpr std::uint8_t max_message_type =
    static_cast<std::uint8_t>(message_type::events_ok);

[[nodiscard]] const char* to_string(message_type type) noexcept;

struct frame_header {
    message_type type{message_type::ping};
    std::uint64_t id{0};
    std::uint64_t payload_bytes{0};
};

struct frame {
    frame_header header{};
    std::string payload;
};

// --- Framing ----------------------------------------------------------------

[[nodiscard]] std::string encode_frame(message_type type, std::uint64_t id,
                                       std::string_view payload);

// Parses exactly the 25 header bytes; rejects short buffers, bad magic /
// version, unknown type and an over-limit payload_bytes with byte-offset-
// naming wire_error.
[[nodiscard]] frame_header parse_header(std::string_view bytes);

// Parses one whole frame from an in-memory buffer: the header plus exactly
// payload_bytes of payload must be present (no more, no less) — the
// all-at-once form the tests and the cache handoff use.  Socket paths read
// the header and payload separately with parse_header.
[[nodiscard]] frame parse_frame(std::string_view bytes);

// --- Fault taxonomy over the wire -------------------------------------------

// Which exception an `error` frame reproduces client-side.  protocol is the
// server rejecting *our* frame (rethrown as wire_error); the rest mirror
// the service's domain exceptions so classify_fault agrees across the wire.
enum class fault_code : std::uint8_t {
    protocol = 0,         // wire_error — malformed frame or payload
    invalid_argument = 1, // std::invalid_argument (permanent)
    overloaded = 2,       // serve::service_overloaded (transient)
    timeout = 3,          // serve::service_timeout
    cancelled = 4,        // serve::service_cancelled
    io = 5,               // trace::io_fault (transient)
    logic = 6,            // other std::logic_error (permanent)
    runtime = 7,          // anything else (permanent by classify_fault)
};

struct error_message {
    fault_code code{fault_code::runtime};
    std::string what;
};

// Maps a caught exception onto the code that reproduces it (by dynamic
// type, most specific first).
[[nodiscard]] error_message describe_fault(const std::exception_ptr& error);

// Throws the exception `message` describes — the client's side of the
// mapping.
[[noreturn]] void rethrow_fault(const error_message& message);

std::string encode_error(const error_message& message);
[[nodiscard]] error_message decode_error(std::string_view payload);

// --- Typed payload codecs ---------------------------------------------------
// Every decode_* consumes the whole payload and throws wire_error (frame-
// relative byte offsets, see above) on truncation, implausible fields, or
// trailing bytes.

// register_trace: the record sequence.
std::string encode_records(const trace::mem_trace& records);
[[nodiscard]] trace::mem_trace decode_records(std::string_view payload);

// register_ok / has_trace / cache-handoff addressing: one trace digest.
std::string encode_digest(const trace::trace_digest& digest);
[[nodiscard]] trace::trace_digest decode_digest(std::string_view payload);

// has_ok / cancel_ok: one boolean.
std::string encode_flag(bool value);
[[nodiscard]] bool decode_flag(std::string_view payload);

// cancel: the id of the submit frame to withdraw.
std::string encode_cancel_target(std::uint64_t submit_id);
[[nodiscard]] std::uint64_t decode_cancel_target(std::string_view payload);

// submit: which trace (by digest), what question.  Payload layout:
//   digest           2 x u64
//   mode             u8      serve::service_mode
//   deadline         u64     ns, two's complement
//   max_set_exp      u32
//   block sizes      u32 count, count x u32
//   associativities  u32 count, count x u32
//   phase knobs      u64 interval_records, u32 signature_block_size,
//                    u32 signature_width, u32 max_phases,
//                    u32 kmeans_iterations, u64 chunk_records
//   warmup_records   u64
//   error_budget_pp  f64
//   trace context    u64 obs_trace_hi, u64 obs_trace_lo,
//                    u64 obs_parent_span
// The sweep's `threads`, engine, instrumentation and dew_options are not
// carried: the service answers fast miss counts only and serve::canonical
// resets the rest, so a decoded request has their defaults.
// encode_submit throws std::invalid_argument on a counted sweep.  The
// trailing trace-context words are pure telemetry: identity-exempt in
// serve::key, never folded into the fingerprint, forwarded verbatim by the
// router's backend hop.
struct submit_message {
    trace::trace_digest digest{};
    serve::service_request request{};
};
std::string encode_submit(const submit_message& message);
[[nodiscard]] submit_message decode_submit(std::string_view payload);

// result: the service_result, flags and payloads.  The exact sweep travels
// as a self-delimiting "DSWR" record; a representative estimate travels as
// its per-configuration numbers and accuracy statement (the phase-analysis
// internals — signatures, clustering — stay server-side; they are analysis
// state, not the answer).
std::string encode_result(const serve::service_result& result);
[[nodiscard]] serve::service_result decode_result(std::string_view payload);

// stats_ok: every service_stats field, in service_stats_fields order.
std::string encode_stats(const serve::service_stats& stats);
[[nodiscard]] serve::service_stats decode_stats(std::string_view payload);

// metrics_ok: the obs::registry snapshot — per entry the name
// (length-prefixed), kind, counter/gauge value, latency reduction
// (count + p50/p95/p99 ns) and the 65 raw histogram buckets.  The buckets
// make cross-backend aggregation exact: the router re-merges scraped
// snapshots bucket-wise (histogram_snapshot::merge), it never averages
// percentiles.  The stable name-sorted order the registry produces
// travels as-is.
std::string encode_metrics(const std::vector<obs::metric>& metrics);
[[nodiscard]] std::vector<obs::metric>
decode_metrics(std::string_view payload);

// events_ok: the wide per-request event ring, oldest first — per entry the
// trace context, correlation, request key words, node id, tier,
// disposition, retry count and the four stage timestamps/durations
// (start/queue/run/total ns).  JSONL rendering is client-side
// (obs::events_jsonl); the wire carries the structured record.
std::string encode_events(const std::vector<obs::request_event>& events);
[[nodiscard]] std::vector<obs::request_event>
decode_events(std::string_view payload);

// cache_load: load mode + the "DSCF" cache-file image (the image itself is
// validated by serve::result_cache::load, checksums and all).
std::string encode_cache_load(serve::load_mode mode,
                              std::string_view cache_file);
struct cache_load_message {
    serve::load_mode mode{serve::load_mode::strict};
    std::string cache_file;
};
[[nodiscard]] cache_load_message decode_cache_load(std::string_view payload);

// cache_loaded: the load report.
std::string encode_load_report(const serve::cache_load_report& report);
[[nodiscard]] serve::cache_load_report
decode_load_report(std::string_view payload);

} // namespace dew::net

#endif // DEW_NET_WIRE_HPP
