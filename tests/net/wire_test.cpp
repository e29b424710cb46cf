// The "DSNW" wire codec: every message type round-trips bit-exactly, and a
// frame or payload truncated at EVERY byte cut point — or extended with
// trailing bytes — is rejected with a byte-offset-naming wire_error, the
// same hardened-reader contract as the "DSWR"/"DSCF" codecs.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dew/result_io.hpp"

#include "dew/sweep.hpp"
#include "net/wire.hpp"
#include "phase/representative_sweep.hpp"
#include "serve/service.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;

// --- Sample messages ---------------------------------------------------------

trace::mem_trace sample_trace() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 600);
}

trace::trace_digest sample_digest() {
    return trace::compute_digest(sample_trace());
}

serve::service_request sample_request() {
    serve::service_request request;
    request.sweep.max_set_exp = 5;
    request.sweep.block_sizes = {8, 32};
    request.sweep.associativities = {2, 4};
    request.mode = serve::service_mode::representative;
    request.phase.interval_records = 512;
    request.phase.signature_width = 32;
    request.warmup_records = 777;
    request.error_budget_pp = 1.25;
    request.deadline = std::chrono::nanoseconds{123456789};
    return request;
}

core::sweep_result sample_sweep() {
    core::sweep_request request;
    request.max_set_exp = 3;
    request.block_sizes = {16, 32};
    request.associativities = {2};
    return core::run_sweep(sample_trace(), request);
}

serve::service_result sample_result(bool with_sweep, bool with_estimate) {
    serve::service_result result;
    result.coalesced = true;
    result.flight_retries = 2;
    result.max_abs_error_pp = 0.5;
    if (with_sweep) {
        result.sweep =
            std::make_shared<const core::sweep_result>(sample_sweep());
    }
    if (with_estimate) {
        phase::representative_sweep_result estimate;
        estimate.total_records = 600;
        estimate.simulated_records = 128;
        estimate.analysis_seconds = 0.25;
        estimate.calibrated = true;
        estimate.max_abs_error_pp = 0.5;
        phase::config_estimate config;
        config.config = {8, 2, 16};
        config.estimated_misses = 41;
        config.estimated_miss_rate = 0.068;
        config.exact_misses = 40;
        config.exact_miss_rate = 0.066;
        config.abs_error_pp = 0.2;
        estimate.configs = {config, config};
        result.estimate = std::make_shared<
            const phase::representative_sweep_result>(std::move(estimate));
        result.estimated = true;
    }
    return result;
}

serve::service_stats sample_stats() {
    serve::service_stats stats;
    stats.submitted = 1;
    stats.completed = 2;
    stats.cache_hits = 3;
    stats.coalesced = 4;
    stats.computations = 5;
    stats.shard_jobs = 6;
    stats.stream_builds = 7;
    stats.stream_reuses = 8;
    stats.rejected = 9;
    stats.representative_served = 10;
    stats.exact_fallbacks = 11;
    stats.cache_evictions = 12;
    stats.timeouts = 13;
    stats.cancellations = 14;
    stats.retries = 15;
    stats.retry_successes = 16;
    stats.transient_faults = 17;
    stats.permanent_faults = 18;
    stats.degraded_served = 19;
    stats.expired_flights = 20;
    stats.queue_depth = 21;
    stats.inflight_flights = 22;
    return stats;
}

std::vector<obs::metric> sample_metrics() {
    obs::metric submitted;
    submitted.name = "serve.submitted";
    submitted.kind = obs::metric_kind::counter;
    submitted.value = 42;
    obs::metric depth;
    depth.name = "serve.queue_depth";
    depth.kind = obs::metric_kind::gauge;
    depth.value = 3;
    obs::metric latency;
    latency.name = "serve.submit_ns";
    latency.kind = obs::metric_kind::latency;
    latency.count = 1000;
    latency.p50_ns = 1024;
    latency.p95_ns = 65536;
    latency.p99_ns = 262144;
    // The raw buckets travel too (the aggregated scrape re-merges them
    // exactly); make them asymmetric so a transposed read cannot pass.
    for (std::size_t i = 0; i < latency.hist.counts.size(); ++i) {
        latency.hist.counts[i] = i * i + 1;
    }
    return {submitted, depth, latency};
}

std::vector<obs::request_event> sample_events() {
    obs::request_event computed;
    computed.trace_hi = 0x0123456789ABCDEFull;
    computed.trace_lo = 0xFEDCBA9876543210ull;
    computed.correlation = 41;
    computed.key_hi = 42;
    computed.key_lo = 43;
    computed.node = 44;
    computed.start_ns = 45;
    computed.queue_ns = 46;
    computed.run_ns = 47;
    computed.total_ns = 48;
    computed.tier = 1;
    computed.disposition = obs::event_disposition::computed;
    computed.retries = 2;
    obs::request_event rejected; // all-defaults except the terminal state
    rejected.disposition = obs::event_disposition::rejected;
    return {computed, rejected};
}

std::string sweep_bytes(const core::sweep_result& result) {
    std::ostringstream out;
    core::write_binary_result(out, result);
    return out.str();
}

// --- Round trips -------------------------------------------------------------

TEST(Wire, FrameRoundTrips) {
    const frame parsed = parse_frame(
        encode_frame(message_type::submit, 42, "payload-bytes"));
    EXPECT_EQ(parsed.header.type, message_type::submit);
    EXPECT_EQ(parsed.header.id, 42u);
    EXPECT_EQ(parsed.header.payload_bytes, 13u);
    EXPECT_EQ(parsed.payload, "payload-bytes");

    const frame empty = parse_frame(encode_frame(message_type::ping, 0, {}));
    EXPECT_EQ(empty.header.type, message_type::ping);
    EXPECT_TRUE(empty.payload.empty());
}

TEST(Wire, RecordsRoundTrip) {
    const trace::mem_trace records = sample_trace();
    EXPECT_EQ(decode_records(encode_records(records)), records);
    EXPECT_EQ(decode_records(encode_records({})), trace::mem_trace{});
}

TEST(Wire, DigestFlagAndCancelRoundTrip) {
    const trace::trace_digest digest = sample_digest();
    EXPECT_EQ(decode_digest(encode_digest(digest)), digest);
    EXPECT_TRUE(decode_flag(encode_flag(true)));
    EXPECT_FALSE(decode_flag(encode_flag(false)));
    EXPECT_EQ(decode_cancel_target(encode_cancel_target(0xDEADBEEFull)),
              0xDEADBEEFull);
}

TEST(Wire, SubmitRoundTripsEveryRequestField) {
    const submit_message message{sample_digest(), sample_request()};
    const submit_message back = decode_submit(encode_submit(message));
    EXPECT_EQ(back.digest, message.digest);
    const serve::service_request& a = message.request;
    const serve::service_request& b = back.request;
    EXPECT_EQ(b.mode, a.mode);
    EXPECT_EQ(b.deadline, a.deadline);
    EXPECT_EQ(b.sweep.max_set_exp, a.sweep.max_set_exp);
    EXPECT_EQ(b.sweep.block_sizes, a.sweep.block_sizes);
    EXPECT_EQ(b.sweep.associativities, a.sweep.associativities);
    EXPECT_EQ(b.phase.interval_records, a.phase.interval_records);
    EXPECT_EQ(b.phase.signature_block_size, a.phase.signature_block_size);
    EXPECT_EQ(b.phase.signature_width, a.phase.signature_width);
    EXPECT_EQ(b.phase.max_phases, a.phase.max_phases);
    EXPECT_EQ(b.phase.kmeans_iterations, a.phase.kmeans_iterations);
    EXPECT_EQ(b.phase.chunk_records, a.phase.chunk_records);
    EXPECT_EQ(b.warmup_records, a.warmup_records);
    EXPECT_EQ(b.error_budget_pp, a.error_budget_pp);
    // The fingerprint is the real equality oracle: the request identity
    // must survive the wire bit-exactly.
    EXPECT_EQ(serve::fingerprint(b), serve::fingerprint(a));
    // The layout wire.hpp documents: 125 bytes for two block sizes and two
    // associativities.
    EXPECT_EQ(encode_submit(message).size(), 125u);
}

TEST(Wire, SubmitCarriesNoEngineInstrumentationOrDewOptions) {
    // A counted sweep is not a served question: rejected before encoding.
    serve::service_request counted = sample_request();
    counted.sweep.instrumentation = core::sweep_instrumentation::full_counters;
    EXPECT_THROW((void)encode_submit({sample_digest(), counted}),
                 std::invalid_argument);

    // A fast request naming CIPAR or an ablation travels without them and
    // arrives with the defaults, which serve::canonical would set anyway.
    serve::service_request ablated = sample_request();
    ablated.sweep.engine = core::sweep_engine::cipar;
    ablated.sweep.options.use_mra_stop = false;
    ablated.sweep.options.use_wave = false;
    ablated.sweep.options.use_mre = false;
    ablated.sweep.options.mre_depth = 3;
    const std::string bytes = encode_submit({sample_digest(), ablated});
    EXPECT_EQ(bytes, encode_submit({sample_digest(), sample_request()}));
    const serve::service_request back = decode_submit(bytes).request;
    EXPECT_EQ(back.sweep.engine, core::sweep_engine::dew);
    EXPECT_EQ(back.sweep.instrumentation, core::sweep_instrumentation::fast);
    EXPECT_EQ(back.sweep.options.use_mra_stop,
              core::dew_options{}.use_mra_stop);
    EXPECT_EQ(back.sweep.options.use_wave, core::dew_options{}.use_wave);
    EXPECT_EQ(back.sweep.options.use_mre, core::dew_options{}.use_mre);
    EXPECT_EQ(back.sweep.options.mre_depth, core::dew_options{}.mre_depth);
    EXPECT_EQ(serve::fingerprint(back), serve::fingerprint(ablated));
}

TEST(Wire, ResultRoundTripsBitExactly) {
    for (const bool with_sweep : {false, true}) {
        for (const bool with_estimate : {false, true}) {
            const serve::service_result result =
                sample_result(with_sweep, with_estimate);
            const serve::service_result back =
                decode_result(encode_result(result));
            EXPECT_EQ(back.cache_hit, result.cache_hit);
            EXPECT_EQ(back.coalesced, result.coalesced);
            EXPECT_EQ(back.estimated, result.estimated);
            EXPECT_EQ(back.fell_back_exact, result.fell_back_exact);
            EXPECT_EQ(back.degraded, result.degraded);
            EXPECT_EQ(back.flight_retries, result.flight_retries);
            EXPECT_EQ(back.max_abs_error_pp, result.max_abs_error_pp);
            ASSERT_EQ(back.sweep != nullptr, with_sweep);
            if (with_sweep) {
                // Bit identity, literally: the canonical binary image.
                EXPECT_EQ(sweep_bytes(*back.sweep),
                          sweep_bytes(*result.sweep));
            }
            ASSERT_EQ(back.estimate != nullptr, with_estimate);
            if (with_estimate) {
                EXPECT_EQ(back.estimate->total_records,
                          result.estimate->total_records);
                EXPECT_EQ(back.estimate->simulated_records,
                          result.estimate->simulated_records);
                EXPECT_EQ(back.estimate->calibrated,
                          result.estimate->calibrated);
                ASSERT_EQ(back.estimate->configs.size(),
                          result.estimate->configs.size());
                EXPECT_EQ(back.estimate->configs[0].estimated_misses,
                          result.estimate->configs[0].estimated_misses);
                EXPECT_EQ(back.estimate->configs[0].exact_miss_rate,
                          result.estimate->configs[0].exact_miss_rate);
            }
        }
    }
}

TEST(Wire, StatsRoundTripAllTwentyCounters) {
    const serve::service_stats stats = sample_stats();
    const serve::service_stats back = decode_stats(encode_stats(stats));
    EXPECT_EQ(back.submitted, stats.submitted);
    EXPECT_EQ(back.completed, stats.completed);
    EXPECT_EQ(back.cache_hits, stats.cache_hits);
    EXPECT_EQ(back.coalesced, stats.coalesced);
    EXPECT_EQ(back.computations, stats.computations);
    EXPECT_EQ(back.shard_jobs, stats.shard_jobs);
    EXPECT_EQ(back.stream_builds, stats.stream_builds);
    EXPECT_EQ(back.stream_reuses, stats.stream_reuses);
    EXPECT_EQ(back.rejected, stats.rejected);
    EXPECT_EQ(back.representative_served, stats.representative_served);
    EXPECT_EQ(back.exact_fallbacks, stats.exact_fallbacks);
    EXPECT_EQ(back.cache_evictions, stats.cache_evictions);
    EXPECT_EQ(back.timeouts, stats.timeouts);
    EXPECT_EQ(back.cancellations, stats.cancellations);
    EXPECT_EQ(back.retries, stats.retries);
    EXPECT_EQ(back.retry_successes, stats.retry_successes);
    EXPECT_EQ(back.transient_faults, stats.transient_faults);
    EXPECT_EQ(back.permanent_faults, stats.permanent_faults);
    EXPECT_EQ(back.degraded_served, stats.degraded_served);
    EXPECT_EQ(back.expired_flights, stats.expired_flights);
    EXPECT_EQ(back.queue_depth, stats.queue_depth);
    EXPECT_EQ(back.inflight_flights, stats.inflight_flights);
}

TEST(Wire, MetricsRoundTripEveryKindAndOrder) {
    const std::vector<obs::metric> metrics = sample_metrics();
    const std::vector<obs::metric> back =
        decode_metrics(encode_metrics(metrics));
    // obs::metric is equality-comparable; the registry's stable name order
    // must travel as-is.
    EXPECT_EQ(back, metrics);
    EXPECT_TRUE(decode_metrics(encode_metrics({})).empty());
}

TEST(Wire, MetricsRejectsImplausibleFields) {
    // An unknown kind byte: corrupt the encoded kind of the first entry
    // (u32 count, u32 name length, name bytes, then the kind).
    std::string bytes = encode_metrics(sample_metrics());
    const std::size_t kind_at =
        4 + 4 + std::string{"serve.submitted"}.size();
    bytes[kind_at] = 7;
    EXPECT_THROW((void)decode_metrics(bytes), wire_error);
}

TEST(Wire, EventsRoundTripEveryField) {
    const std::vector<obs::request_event> events = sample_events();
    EXPECT_EQ(decode_events(encode_events(events)), events);
    EXPECT_TRUE(decode_events(encode_events({})).empty());
}

TEST(Wire, EventsRejectImplausibleTierAndDisposition) {
    // Entry layout: u32 count, six u64 identity words, then tier u8 and
    // disposition u8 (wire.cpp).  Corrupt each in place.
    const std::size_t tier_at = 4 + 6 * 8;
    std::string bad_tier = encode_events(sample_events());
    bad_tier[tier_at] = 2; // only exact (0) / representative (1) exist
    EXPECT_THROW((void)decode_events(bad_tier), wire_error);
    std::string bad_disposition = encode_events(sample_events());
    bad_disposition[tier_at + 1] =
        static_cast<char>(obs::max_event_disposition + 1);
    EXPECT_THROW((void)decode_events(bad_disposition), wire_error);
}

TEST(Wire, CacheLoadAndReportRoundTrip) {
    const cache_load_message message = decode_cache_load(
        encode_cache_load(serve::load_mode::salvage, "dscf-image-bytes"));
    EXPECT_EQ(message.mode, serve::load_mode::salvage);
    EXPECT_EQ(message.cache_file, "dscf-image-bytes");

    serve::cache_load_report report;
    report.loaded = 7;
    report.skipped = 2;
    report.salvaged = true;
    report.salvaged_at = 12345;
    report.checksum_ok = false;
    const serve::cache_load_report back =
        decode_load_report(encode_load_report(report));
    EXPECT_EQ(back.loaded, report.loaded);
    EXPECT_EQ(back.skipped, report.skipped);
    EXPECT_EQ(back.salvaged, report.salvaged);
    EXPECT_EQ(back.salvaged_at, report.salvaged_at);
    EXPECT_EQ(back.checksum_ok, report.checksum_ok);
}

// --- Fault taxonomy ----------------------------------------------------------

TEST(Wire, FaultMappingRoundTripsExceptionTypes) {
    const auto check = [](const std::exception_ptr& error,
                          fault_code expected_code) {
        const error_message described = describe_fault(error);
        EXPECT_EQ(described.code, expected_code);
        const error_message decoded =
            decode_error(encode_error(described));
        EXPECT_EQ(decoded.code, described.code);
        EXPECT_EQ(decoded.what, described.what);
        std::exception_ptr reproduced;
        try {
            rethrow_fault(decoded);
        } catch (...) {
            reproduced = std::current_exception();
        }
        // classify_fault must agree before and after the wire: the PR-6
        // retry taxonomy crosses the process boundary intact.
        EXPECT_EQ(serve::classify_fault(reproduced),
                  serve::classify_fault(error));
        return reproduced;
    };

    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(wire_error{"bad frame"}),
                     fault_code::protocol)),
                 wire_error);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         std::invalid_argument{"bad grid"}),
                     fault_code::invalid_argument)),
                 std::invalid_argument);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_overloaded{"queue full"}),
                     fault_code::overloaded)),
                 serve::service_overloaded);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_timeout{"deadline"}),
                     fault_code::timeout)),
                 serve::service_timeout);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_cancelled{"withdrawn"}),
                     fault_code::cancelled)),
                 serve::service_cancelled);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(trace::io_fault{"disk"}),
                     fault_code::io)),
                 trace::io_fault);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(std::logic_error{"contract"}),
                     fault_code::logic)),
                 std::logic_error);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(std::runtime_error{"engine"}),
                     fault_code::runtime)),
                 std::runtime_error);
}

// --- Malformed frames: every byte cut point ----------------------------------

// Truncates `payload` at every cut point and expects the decoder to throw a
// wire_error naming a byte offset; then appends one byte and expects the
// trailing-byte reject.
void expect_hardened(const std::string& name, const std::string& payload,
                     const std::function<void(std::string_view)>& decode) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        SCOPED_TRACE(name + " cut at " + std::to_string(cut));
        try {
            decode(payload.substr(0, cut));
            FAIL() << "accepted a truncated payload";
        } catch (const wire_error& fault) {
            EXPECT_NE(std::string{fault.what()}.find("byte"),
                      std::string::npos)
                << fault.what();
        }
    }
    SCOPED_TRACE(name + " with a trailing byte");
    EXPECT_THROW(decode(payload + '\0'), wire_error);
}

TEST(Wire, EveryMessagePayloadRejectsEveryTruncation) {
    expect_hardened("error",
                    encode_error({fault_code::timeout, "deadline passed"}),
                    [](std::string_view b) { (void)decode_error(b); });
    expect_hardened("register_trace",
                    encode_records(trace::make_mediabench_trace(
                        trace::mediabench_app::cjpeg, 3)),
                    [](std::string_view b) { (void)decode_records(b); });
    expect_hardened("digest", encode_digest(sample_digest()),
                    [](std::string_view b) { (void)decode_digest(b); });
    expect_hardened("flag", encode_flag(true),
                    [](std::string_view b) { (void)decode_flag(b); });
    expect_hardened("cancel", encode_cancel_target(7),
                    [](std::string_view b) { (void)decode_cancel_target(b); });
    expect_hardened("submit",
                    encode_submit({sample_digest(), sample_request()}),
                    [](std::string_view b) { (void)decode_submit(b); });
    expect_hardened("stats", encode_stats(sample_stats()),
                    [](std::string_view b) { (void)decode_stats(b); });
    expect_hardened("metrics", encode_metrics(sample_metrics()),
                    [](std::string_view b) { (void)decode_metrics(b); });
    expect_hardened("cache_load",
                    encode_cache_load(serve::load_mode::salvage, "dscf-image"),
                    [](std::string_view b) { (void)decode_cache_load(b); });
    expect_hardened("events", encode_events(sample_events()),
                    [](std::string_view bytes) { (void)decode_events(bytes); });
    expect_hardened("cache_loaded", encode_load_report({}),
                    [](std::string_view b) { (void)decode_load_report(b); });
}

TEST(Wire, ResultPayloadRejectsEveryTruncation) {
    // The heavyweight one — sweep record and estimate block included, so
    // cuts land inside the embedded "DSWR" record too.
    expect_hardened("result", encode_result(sample_result(true, true)),
                    [](std::string_view b) { (void)decode_result(b); });
}

TEST(Wire, FrameRejectsEveryHeaderTruncationAndOverrun) {
    const std::string bytes =
        encode_frame(message_type::has_trace, 9, encode_digest(sample_digest()));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("frame cut at " + std::to_string(cut));
        EXPECT_THROW((void)parse_frame(bytes.substr(0, cut)), wire_error);
    }
    EXPECT_THROW((void)parse_frame(bytes + '\0'), wire_error);
    EXPECT_NO_THROW((void)parse_frame(bytes));
}

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndSize) {
    const std::string good = encode_frame(message_type::ping, 1, {});

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_THROW((void)parse_header(bad_magic), wire_error);

    std::string bad_version = good;
    bad_version[4] = 99;
    EXPECT_THROW((void)parse_header(bad_version), wire_error);
    // A version 1 peer, whose submit payload carried the engine,
    // instrumentation and dew_options, fails at the header.
    bad_version[4] = 1;
    EXPECT_THROW((void)parse_header(bad_version), wire_error);

    std::string bad_type = good;
    bad_type[8] = 24; // one past message_type::events_ok
    EXPECT_THROW((void)parse_header(bad_type), wire_error);
    bad_type[8] = static_cast<char>(0xFF);
    EXPECT_THROW((void)parse_header(bad_type), wire_error);

    std::string huge = good;
    for (std::size_t i = 17; i < 25; ++i) {
        huge[i] = static_cast<char>(0xFF); // payload_bytes = 2^64 - 1
    }
    EXPECT_THROW((void)parse_header(huge), wire_error);
}

TEST(Wire, PayloadValidationNamesImplausibleFields) {
    // A bad enum value inside an otherwise well-framed payload.
    std::string bad_mode = encode_submit({sample_digest(), sample_request()});
    bad_mode[16] = 7; // mode byte follows the 16 digest bytes
    EXPECT_THROW((void)decode_submit(bad_mode), wire_error);

    std::string bad_type = encode_records(trace::mem_trace{
        {0x1000, trace::access_type::read}});
    bad_type[8 + 8] = 9; // access type after count u64 + address u64
    EXPECT_THROW((void)decode_records(bad_type), wire_error);

    std::string bad_flag = encode_flag(true);
    bad_flag[0] = 2;
    EXPECT_THROW((void)decode_flag(bad_flag), wire_error);

    std::string bad_load = encode_cache_load(serve::load_mode::strict, "x");
    bad_load[0] = 5;
    EXPECT_THROW((void)decode_cache_load(bad_load), wire_error);

    std::string bad_fault = encode_error({fault_code::runtime, "x"});
    bad_fault[0] = 100;
    EXPECT_THROW((void)decode_error(bad_fault), wire_error);
}

} // namespace
