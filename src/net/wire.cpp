#include "net/wire.hpp"

#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dew/result_io.hpp"
#include "phase/representative_sweep.hpp"
#include "trace/fault.hpp"

namespace dew::net {

namespace {

// --- Little-endian writers (string-building; the socket layer sends the
// --- finished frame in one write) -------------------------------------------

void put_u8(std::string& out, std::uint8_t value) {
    out.push_back(static_cast<char>(value));
}

void put_u32(std::string& out, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
}

void put_u64(std::string& out, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
}

void put_f64(std::string& out, double value) {
    put_u64(out, std::bit_cast<std::uint64_t>(value));
}

// --- Bounds-checked payload cursor ------------------------------------------
// Offsets are frame-relative: payload byte 0 sits at frame byte
// frame_header_bytes, and every fault names the absolute frame offset —
// the same discipline as dew::result_io's payload_reader.

class cursor {
public:
    cursor(std::string_view bytes, const char* message_name)
        : bytes_{bytes}, name_{message_name} {}

    [[nodiscard]] std::uint64_t offset() const noexcept {
        return frame_header_bytes + position_;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return bytes_.size() - position_;
    }

    [[nodiscard]] std::string_view rest() const noexcept {
        return bytes_.substr(position_);
    }

    void advance(std::size_t bytes) noexcept { position_ += bytes; }

    std::uint8_t get_u8(const char* field) {
        return static_cast<std::uint8_t>(get_le(1, field));
    }

    std::uint32_t get_u32(const char* field) {
        return static_cast<std::uint32_t>(get_le(4, field));
    }

    std::uint64_t get_u64(const char* field) { return get_le(8, field); }

    double get_f64(const char* field) {
        return std::bit_cast<double>(get_le(8, field));
    }

    bool get_bool(const char* field) {
        const std::uint8_t value = get_u8(field);
        if (value > 1) {
            throw wire_error{std::string{name_} + " payload: " + field +
                             " must be 0 or 1, got " + std::to_string(value) +
                             " at byte offset " +
                             std::to_string(offset() - 1)};
        }
        return value != 0;
    }

    // Every decoder's last step: the declared payload and the decoded
    // structure must agree exactly (trailing bytes are corruption, same as
    // the "DSWR" reader).
    void finish() const {
        if (position_ != bytes_.size()) {
            throw wire_error{std::string{name_} + " payload is " +
                             std::to_string(bytes_.size()) +
                             " bytes but its structure decodes " +
                             std::to_string(position_) +
                             ": trailing bytes at byte offset " +
                             std::to_string(offset())};
        }
    }

private:
    std::uint64_t get_le(std::size_t width, const char* field) {
        if (remaining() < width) {
            throw wire_error{"truncated " + std::string{name_} +
                             " payload: " + field + " needs " +
                             std::to_string(width) + " bytes at byte offset " +
                             std::to_string(offset()) +
                             " but the payload ends at byte offset " +
                             std::to_string(frame_header_bytes +
                                            bytes_.size())};
        }
        std::uint64_t value = 0;
        for (std::size_t i = width; i-- > 0;) {
            value = (value << 8) |
                    static_cast<unsigned char>(bytes_[position_ + i]);
        }
        position_ += width;
        return value;
    }

    std::string_view bytes_;
    const char* name_;
    std::size_t position_{0};
};

// A grid list longer than this is not a sweep request, it is garbage
// framing (the paper's whole Table-1 space uses 7 x 4).
constexpr std::uint32_t max_grid_values = 4096;
// Likewise for per-configuration estimate lists.
constexpr std::uint32_t max_estimate_configs = 1u << 20;

} // namespace

const char* to_string(message_type type) noexcept {
    switch (type) {
    case message_type::ping: return "ping";
    case message_type::pong: return "pong";
    case message_type::register_trace: return "register_trace";
    case message_type::register_ok: return "register_ok";
    case message_type::has_trace: return "has_trace";
    case message_type::has_ok: return "has_ok";
    case message_type::submit: return "submit";
    case message_type::result: return "result";
    case message_type::cancel: return "cancel";
    case message_type::cancel_ok: return "cancel_ok";
    case message_type::stats: return "stats";
    case message_type::stats_ok: return "stats_ok";
    case message_type::cache_save: return "cache_save";
    case message_type::cache_contents: return "cache_contents";
    case message_type::cache_load: return "cache_load";
    case message_type::cache_loaded: return "cache_loaded";
    case message_type::pause: return "pause";
    case message_type::resume: return "resume";
    case message_type::ok: return "ok";
    case message_type::error: return "error";
    case message_type::get_metrics: return "get_metrics";
    case message_type::metrics_ok: return "metrics_ok";
    case message_type::get_events: return "get_events";
    case message_type::events_ok: return "events_ok";
    }
    return "unknown";
}

// --- Framing ----------------------------------------------------------------

std::string encode_frame(message_type type, std::uint64_t id,
                         std::string_view payload) {
    std::string out;
    out.reserve(frame_header_bytes + payload.size());
    out.append(frame_magic, sizeof(frame_magic));
    put_u32(out, wire_version);
    put_u8(out, static_cast<std::uint8_t>(type));
    put_u64(out, id);
    put_u64(out, payload.size());
    out.append(payload);
    return out;
}

frame_header parse_header(std::string_view bytes) {
    if (bytes.size() < frame_header_bytes) {
        throw wire_error{"truncated frame header: needs " +
                         std::to_string(frame_header_bytes) +
                         " bytes, stream ended at byte offset " +
                         std::to_string(bytes.size())};
    }
    if (std::memcmp(bytes.data(), frame_magic, sizeof(frame_magic)) != 0) {
        throw wire_error{
            "bad frame magic at byte offset 0 (want \"DSNW\")"};
    }
    std::uint32_t version = 0;
    for (std::size_t i = 8; i-- > 4;) {
        version = (version << 8) | static_cast<unsigned char>(bytes[i]);
    }
    if (version != wire_version) {
        throw wire_error{"unsupported wire version " +
                         std::to_string(version) + " at byte offset 4"};
    }
    const auto raw_type = static_cast<unsigned char>(bytes[8]);
    if (raw_type > max_message_type) {
        throw wire_error{"unknown message type " + std::to_string(raw_type) +
                         " at byte offset 8"};
    }
    frame_header header;
    header.type = static_cast<message_type>(raw_type);
    for (std::size_t i = 17; i-- > 9;) {
        header.id = (header.id << 8) | static_cast<unsigned char>(bytes[i]);
    }
    for (std::size_t i = 25; i-- > 17;) {
        header.payload_bytes =
            (header.payload_bytes << 8) | static_cast<unsigned char>(bytes[i]);
    }
    if (header.payload_bytes > max_frame_payload) {
        throw wire_error{"implausible payload size " +
                         std::to_string(header.payload_bytes) +
                         " at byte offset 17 (limit " +
                         std::to_string(max_frame_payload) + ")"};
    }
    return header;
}

frame parse_frame(std::string_view bytes) {
    const frame_header header = parse_header(bytes);
    const std::string_view body = bytes.substr(frame_header_bytes);
    if (body.size() < header.payload_bytes) {
        throw wire_error{
            "truncated frame: payload declares " +
            std::to_string(header.payload_bytes) +
            " bytes but the buffer ends at byte offset " +
            std::to_string(bytes.size())};
    }
    if (body.size() > header.payload_bytes) {
        throw wire_error{"over-long frame: trailing bytes at byte offset " +
                         std::to_string(frame_header_bytes +
                                        header.payload_bytes)};
    }
    return {header, std::string{body}};
}

// --- Fault taxonomy ---------------------------------------------------------

error_message describe_fault(const std::exception_ptr& error) {
    // Most specific type first: the service's own exceptions, then the
    // standard hierarchy the classifier keys on.
    try {
        std::rethrow_exception(error);
    } catch (const wire_error& fault) {
        return {fault_code::protocol, fault.what()};
    } catch (const serve::service_overloaded& fault) {
        return {fault_code::overloaded, fault.what()};
    } catch (const serve::service_timeout& fault) {
        return {fault_code::timeout, fault.what()};
    } catch (const serve::service_cancelled& fault) {
        return {fault_code::cancelled, fault.what()};
    } catch (const trace::io_fault& fault) {
        return {fault_code::io, fault.what()};
    } catch (const std::invalid_argument& fault) {
        return {fault_code::invalid_argument, fault.what()};
    } catch (const std::logic_error& fault) {
        return {fault_code::logic, fault.what()};
    } catch (const std::exception& fault) {
        return {fault_code::runtime, fault.what()};
    } catch (...) {
        return {fault_code::runtime, "unknown fault"};
    }
}

void rethrow_fault(const error_message& message) {
    switch (message.code) {
    case fault_code::protocol:
        throw wire_error{message.what};
    case fault_code::invalid_argument:
        throw std::invalid_argument{message.what};
    case fault_code::overloaded:
        throw serve::service_overloaded{message.what};
    case fault_code::timeout:
        throw serve::service_timeout{message.what};
    case fault_code::cancelled:
        throw serve::service_cancelled{message.what};
    case fault_code::io:
        throw trace::io_fault{message.what};
    case fault_code::logic:
        throw std::logic_error{message.what};
    case fault_code::runtime:
        break;
    }
    throw std::runtime_error{message.what};
}

std::string encode_error(const error_message& message) {
    std::string out;
    put_u8(out, static_cast<std::uint8_t>(message.code));
    put_u32(out, static_cast<std::uint32_t>(message.what.size()));
    out.append(message.what);
    return out;
}

error_message decode_error(std::string_view payload) {
    cursor in{payload, "error"};
    error_message message;
    const std::uint8_t code = in.get_u8("fault code");
    if (code > static_cast<std::uint8_t>(fault_code::runtime)) {
        throw wire_error{"error payload: unknown fault code " +
                         std::to_string(code) + " at byte offset " +
                         std::to_string(in.offset() - 1)};
    }
    message.code = static_cast<fault_code>(code);
    const std::uint32_t length = in.get_u32("message length");
    if (in.remaining() < length) {
        throw wire_error{
            "truncated error payload: message declares " +
            std::to_string(length) + " bytes at byte offset " +
            std::to_string(in.offset()) + " but the payload ends at byte "
            "offset " +
            std::to_string(in.offset() + in.remaining())};
    }
    message.what = std::string{in.rest().substr(0, length)};
    in.advance(length);
    in.finish();
    return message;
}

// --- Records ----------------------------------------------------------------

std::string encode_records(const trace::mem_trace& records) {
    std::string out;
    out.reserve(8 + records.size() * 9);
    put_u64(out, records.size());
    for (const trace::mem_access& record : records) {
        put_u64(out, record.address);
        put_u8(out, static_cast<std::uint8_t>(record.type));
    }
    return out;
}

trace::mem_trace decode_records(std::string_view payload) {
    cursor in{payload, "register_trace"};
    const std::uint64_t count = in.get_u64("record count");
    if (count * 9 != in.remaining()) {
        throw wire_error{
            "register_trace payload: record count " + std::to_string(count) +
            " at byte offset " + std::to_string(frame_header_bytes) +
            " disagrees with the " + std::to_string(in.remaining()) +
            " payload bytes that follow (want " + std::to_string(count * 9) +
            ")"};
    }
    trace::mem_trace records;
    records.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        trace::mem_access record;
        record.address = in.get_u64("record address");
        const std::uint8_t type = in.get_u8("record type");
        if (type > 2) {
            throw wire_error{"register_trace payload: bad access type " +
                             std::to_string(type) + " at byte offset " +
                             std::to_string(in.offset() - 1)};
        }
        record.type = static_cast<trace::access_type>(type);
        records.push_back(record);
    }
    in.finish();
    return records;
}

// --- Digest / flag / cancel --------------------------------------------------

std::string encode_digest(const trace::trace_digest& digest) {
    std::string out;
    put_u64(out, digest.words[0]);
    put_u64(out, digest.words[1]);
    return out;
}

trace::trace_digest decode_digest(std::string_view payload) {
    cursor in{payload, "digest"};
    trace::trace_digest digest;
    digest.words[0] = in.get_u64("digest word 0");
    digest.words[1] = in.get_u64("digest word 1");
    in.finish();
    return digest;
}

std::string encode_flag(bool value) {
    std::string out;
    put_u8(out, value ? 1 : 0);
    return out;
}

bool decode_flag(std::string_view payload) {
    cursor in{payload, "flag"};
    const bool value = in.get_bool("flag");
    in.finish();
    return value;
}

std::string encode_cancel_target(std::uint64_t submit_id) {
    std::string out;
    put_u64(out, submit_id);
    return out;
}

std::uint64_t decode_cancel_target(std::string_view payload) {
    cursor in{payload, "cancel"};
    const std::uint64_t id = in.get_u64("submit id");
    in.finish();
    return id;
}

// --- Submit -----------------------------------------------------------------

std::string encode_submit(const submit_message& message) {
    const serve::service_request& request = message.request;
    if (request.sweep.instrumentation != core::sweep_instrumentation::fast) {
        throw std::invalid_argument{
            "submit: the sweep service answers fast miss counts only; run a "
            "counted sweep with core::run_sweep"};
    }
    std::string out;
    put_u64(out, message.digest.words[0]);
    put_u64(out, message.digest.words[1]);
    put_u8(out, static_cast<std::uint8_t>(request.mode));
    put_u64(out, static_cast<std::uint64_t>(request.deadline.count()));
    put_u32(out, request.sweep.max_set_exp);
    put_u32(out, static_cast<std::uint32_t>(request.sweep.block_sizes.size()));
    for (const std::uint32_t block : request.sweep.block_sizes) {
        put_u32(out, block);
    }
    put_u32(out,
            static_cast<std::uint32_t>(request.sweep.associativities.size()));
    for (const std::uint32_t assoc : request.sweep.associativities) {
        put_u32(out, assoc);
    }
    put_u64(out, request.phase.interval_records);
    put_u32(out, request.phase.signature_block_size);
    put_u32(out, request.phase.signature_width);
    put_u32(out, request.phase.max_phases);
    put_u32(out, request.phase.kmeans_iterations);
    put_u64(out, request.phase.chunk_records);
    put_u64(out, request.warmup_records);
    put_f64(out, request.error_budget_pp);
    // Trace context last: telemetry-only fields extend the payload, they
    // never reshuffle the identity-bearing prefix.
    put_u64(out, request.obs_trace_hi);
    put_u64(out, request.obs_trace_lo);
    put_u64(out, request.obs_parent_span);
    return out;
}

submit_message decode_submit(std::string_view payload) {
    cursor in{payload, "submit"};
    submit_message message;
    message.digest.words[0] = in.get_u64("trace digest word 0");
    message.digest.words[1] = in.get_u64("trace digest word 1");
    const std::uint8_t mode = in.get_u8("service mode");
    if (mode > 1) {
        throw wire_error{"submit payload: unknown service mode " +
                         std::to_string(mode) + " at byte offset " +
                         std::to_string(in.offset() - 1)};
    }
    message.request.mode = static_cast<serve::service_mode>(mode);
    message.request.deadline = std::chrono::nanoseconds{
        static_cast<std::int64_t>(in.get_u64("deadline"))};
    message.request.sweep.max_set_exp = in.get_u32("max_set_exp");
    const auto read_grid = [&in](const char* count_field,
                                 const char* value_field) {
        const std::uint32_t count = in.get_u32(count_field);
        if (count > max_grid_values) {
            throw wire_error{"submit payload: implausible " +
                             std::string{count_field} + " " +
                             std::to_string(count) + " at byte offset " +
                             std::to_string(in.offset() - 4) + " (limit " +
                             std::to_string(max_grid_values) + ")"};
        }
        std::vector<std::uint32_t> values;
        values.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            values.push_back(in.get_u32(value_field));
        }
        return values;
    };
    message.request.sweep.block_sizes =
        read_grid("block size count", "block size");
    message.request.sweep.associativities =
        read_grid("associativity count", "associativity");
    message.request.phase.interval_records = in.get_u64("interval_records");
    message.request.phase.signature_block_size =
        in.get_u32("signature_block_size");
    message.request.phase.signature_width = in.get_u32("signature_width");
    message.request.phase.max_phases = in.get_u32("max_phases");
    message.request.phase.kmeans_iterations = in.get_u32("kmeans_iterations");
    message.request.phase.chunk_records = static_cast<std::size_t>(
        in.get_u64("chunk_records"));
    message.request.warmup_records = in.get_u64("warmup_records");
    message.request.error_budget_pp = in.get_f64("error_budget_pp");
    message.request.obs_trace_hi = in.get_u64("obs_trace_hi");
    message.request.obs_trace_lo = in.get_u64("obs_trace_lo");
    message.request.obs_parent_span = in.get_u64("obs_parent_span");
    in.finish();
    return message;
}

// --- Result -----------------------------------------------------------------

namespace {

void encode_estimate(std::string& out,
                     const phase::representative_sweep_result& estimate) {
    put_u64(out, estimate.total_records);
    put_u64(out, estimate.simulated_records);
    put_f64(out, estimate.analysis_seconds);
    put_f64(out, estimate.simulation_seconds);
    put_f64(out, estimate.calibration_seconds);
    put_u8(out, estimate.calibrated ? 1 : 0);
    put_f64(out, estimate.max_abs_error_pp);
    put_u32(out, static_cast<std::uint32_t>(estimate.configs.size()));
    for (const phase::config_estimate& config : estimate.configs) {
        put_u32(out, config.config.set_count);
        put_u32(out, config.config.associativity);
        put_u32(out, config.config.block_size);
        put_u64(out, config.estimated_misses);
        put_f64(out, config.estimated_miss_rate);
        put_u64(out, config.exact_misses);
        put_f64(out, config.exact_miss_rate);
        put_f64(out, config.abs_error_pp);
    }
}

phase::representative_sweep_result decode_estimate(cursor& in) {
    phase::representative_sweep_result estimate;
    estimate.total_records = in.get_u64("estimate total_records");
    estimate.simulated_records = in.get_u64("estimate simulated_records");
    estimate.analysis_seconds = in.get_f64("estimate analysis_seconds");
    estimate.simulation_seconds = in.get_f64("estimate simulation_seconds");
    estimate.calibration_seconds = in.get_f64("estimate calibration_seconds");
    estimate.calibrated = in.get_bool("estimate calibrated");
    estimate.max_abs_error_pp = in.get_f64("estimate max_abs_error_pp");
    const std::uint32_t count = in.get_u32("estimate config count");
    if (count > max_estimate_configs) {
        throw wire_error{"result payload: implausible estimate config "
                         "count " +
                         std::to_string(count) + " at byte offset " +
                         std::to_string(in.offset() - 4)};
    }
    estimate.configs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        phase::config_estimate config;
        config.config.set_count = in.get_u32("estimate set count");
        config.config.associativity = in.get_u32("estimate associativity");
        config.config.block_size = in.get_u32("estimate block size");
        config.estimated_misses = in.get_u64("estimated misses");
        config.estimated_miss_rate = in.get_f64("estimated miss rate");
        config.exact_misses = in.get_u64("exact misses");
        config.exact_miss_rate = in.get_f64("exact miss rate");
        config.abs_error_pp = in.get_f64("abs error");
        estimate.configs.push_back(config);
    }
    return estimate;
}

} // namespace

std::string encode_result(const serve::service_result& result) {
    std::string out;
    put_u8(out, result.cache_hit ? 1 : 0);
    put_u8(out, result.coalesced ? 1 : 0);
    put_u8(out, result.estimated ? 1 : 0);
    put_u8(out, result.fell_back_exact ? 1 : 0);
    put_u8(out, result.degraded ? 1 : 0);
    put_u32(out, result.flight_retries);
    put_f64(out, result.max_abs_error_pp);
    put_u8(out, result.sweep ? 1 : 0);
    if (result.sweep) {
        std::ostringstream sweep;
        core::write_binary_result(sweep, *result.sweep);
        out.append(sweep.str());
    }
    put_u8(out, result.estimate ? 1 : 0);
    if (result.estimate) {
        encode_estimate(out, *result.estimate);
    }
    return out;
}

serve::service_result decode_result(std::string_view payload) {
    cursor in{payload, "result"};
    serve::service_result result;
    result.cache_hit = in.get_bool("cache_hit");
    result.coalesced = in.get_bool("coalesced");
    result.estimated = in.get_bool("estimated");
    result.fell_back_exact = in.get_bool("fell_back_exact");
    result.degraded = in.get_bool("degraded");
    result.flight_retries = in.get_u32("flight_retries");
    result.max_abs_error_pp = in.get_f64("max_abs_error_pp");
    if (in.get_bool("has sweep")) {
        // The "DSWR" record is self-delimiting; its reader reports offsets
        // relative to the record, so re-anchor them to the frame.
        const std::uint64_t record_at = in.offset();
        std::istringstream sweep_in{std::string{in.rest()}};
        try {
            result.sweep = std::make_shared<const core::sweep_result>(
                core::read_binary_result(sweep_in));
        } catch (const std::runtime_error& fault) {
            throw wire_error{
                "result payload: sweep record starting at byte offset " +
                std::to_string(record_at) + ": " + fault.what()};
        }
        in.advance(static_cast<std::size_t>(sweep_in.tellg()));
    }
    if (in.get_bool("has estimate")) {
        result.estimate =
            std::make_shared<const phase::representative_sweep_result>(
                decode_estimate(in));
    }
    in.finish();
    return result;
}

// --- Stats ------------------------------------------------------------------

std::string encode_stats(const serve::service_stats& stats) {
    std::string out;
    for (const auto& [name, field] : serve::service_stats_fields) {
        put_u64(out, stats.*field);
    }
    return out;
}

serve::service_stats decode_stats(std::string_view payload) {
    cursor in{payload, "stats_ok"};
    serve::service_stats stats;
    for (const auto& [name, field] : serve::service_stats_fields) {
        stats.*field = in.get_u64(name);
    }
    in.finish();
    return stats;
}

// --- Metrics ----------------------------------------------------------------

namespace {

// A registry snapshot holds tens of entries; thousands would already be a
// misconfigured provider, and anything past these bounds is garbage
// framing, not a big snapshot.
constexpr std::uint32_t max_metric_entries = 1u << 16;
constexpr std::uint32_t max_metric_name_bytes = 1u << 12;

} // namespace

std::string encode_metrics(const std::vector<obs::metric>& metrics) {
    std::string out;
    out.reserve(4 + metrics.size() * 64);
    put_u32(out, static_cast<std::uint32_t>(metrics.size()));
    for (const obs::metric& m : metrics) {
        put_u32(out, static_cast<std::uint32_t>(m.name.size()));
        out.append(m.name);
        put_u8(out, static_cast<std::uint8_t>(m.kind));
        // Fixed shape for every kind: value for counters/gauges, the
        // latency reduction for histograms, zeros for the other half —
        // self-delimiting without a per-kind branch in the cut-point
        // tests.
        put_u64(out, m.value);
        put_u64(out, m.count);
        put_u64(out, m.p50_ns);
        put_u64(out, m.p95_ns);
        put_u64(out, m.p99_ns);
        // The raw buckets travel too (zeros for counters/gauges): the
        // router's aggregated scrape re-merges them bucket-wise, which is
        // exact where re-merging percentiles would not be.
        for (const std::uint64_t bucket : m.hist.counts) {
            put_u64(out, bucket);
        }
    }
    return out;
}

std::vector<obs::metric> decode_metrics(std::string_view payload) {
    cursor in{payload, "metrics"};
    const std::uint32_t count = in.get_u32("metric count");
    if (count > max_metric_entries) {
        throw wire_error{"metrics payload: implausible metric count " +
                         std::to_string(count) + " at byte offset " +
                         std::to_string(frame_header_bytes)};
    }
    std::vector<obs::metric> metrics;
    metrics.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        obs::metric m;
        const std::uint32_t name_bytes = in.get_u32("metric name length");
        if (name_bytes > max_metric_name_bytes) {
            throw wire_error{
                "metrics payload: implausible name length " +
                std::to_string(name_bytes) + " at byte offset " +
                std::to_string(in.offset() - 4)};
        }
        if (in.remaining() < name_bytes) {
            throw wire_error{
                "truncated metrics payload: name declares " +
                std::to_string(name_bytes) + " bytes at byte offset " +
                std::to_string(in.offset()) +
                " but the payload ends at byte offset " +
                std::to_string(in.offset() + in.remaining())};
        }
        m.name = std::string{in.rest().substr(0, name_bytes)};
        in.advance(name_bytes);
        const std::uint8_t kind = in.get_u8("metric kind");
        if (kind > static_cast<std::uint8_t>(obs::metric_kind::latency)) {
            throw wire_error{"metrics payload: unknown metric kind " +
                             std::to_string(kind) + " at byte offset " +
                             std::to_string(in.offset() - 1)};
        }
        m.kind = static_cast<obs::metric_kind>(kind);
        m.value = in.get_u64("metric value");
        m.count = in.get_u64("metric count");
        m.p50_ns = in.get_u64("metric p50");
        m.p95_ns = in.get_u64("metric p95");
        m.p99_ns = in.get_u64("metric p99");
        for (std::uint64_t& bucket : m.hist.counts) {
            bucket = in.get_u64("metric bucket");
        }
        metrics.push_back(std::move(m));
    }
    in.finish();
    return metrics;
}

// --- Events -----------------------------------------------------------------

namespace {

// The server-side ring is bounded (serve::event_ring_capacity = 1024);
// a count past this is garbage framing, not a big ring.
constexpr std::uint32_t max_event_entries = 1u << 20;

} // namespace

std::string encode_events(const std::vector<obs::request_event>& events) {
    std::string out;
    out.reserve(4 + events.size() * 88);
    put_u32(out, static_cast<std::uint32_t>(events.size()));
    for (const obs::request_event& e : events) {
        put_u64(out, e.trace_hi);
        put_u64(out, e.trace_lo);
        put_u64(out, e.correlation);
        put_u64(out, e.key_hi);
        put_u64(out, e.key_lo);
        put_u64(out, e.node);
        put_u8(out, e.tier);
        put_u8(out, static_cast<std::uint8_t>(e.disposition));
        put_u32(out, e.retries);
        put_u64(out, e.start_ns);
        put_u64(out, e.queue_ns);
        put_u64(out, e.run_ns);
        put_u64(out, e.total_ns);
    }
    return out;
}

std::vector<obs::request_event> decode_events(std::string_view payload) {
    cursor in{payload, "events"};
    const std::uint32_t count = in.get_u32("event count");
    if (count > max_event_entries) {
        throw wire_error{"events payload: implausible event count " +
                         std::to_string(count) + " at byte offset " +
                         std::to_string(frame_header_bytes)};
    }
    std::vector<obs::request_event> events;
    events.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        obs::request_event e;
        e.trace_hi = in.get_u64("event trace_hi");
        e.trace_lo = in.get_u64("event trace_lo");
        e.correlation = in.get_u64("event correlation");
        e.key_hi = in.get_u64("event key_hi");
        e.key_lo = in.get_u64("event key_lo");
        e.node = in.get_u64("event node");
        const std::uint8_t tier = in.get_u8("event tier");
        if (tier > 1) {
            throw wire_error{"events payload: unknown tier " +
                             std::to_string(tier) + " at byte offset " +
                             std::to_string(in.offset() - 1)};
        }
        e.tier = tier;
        const std::uint8_t disposition = in.get_u8("event disposition");
        if (disposition >
            static_cast<std::uint8_t>(obs::max_event_disposition)) {
            throw wire_error{"events payload: unknown disposition " +
                             std::to_string(disposition) +
                             " at byte offset " +
                             std::to_string(in.offset() - 1)};
        }
        e.disposition = static_cast<obs::event_disposition>(disposition);
        e.retries = in.get_u32("event retries");
        e.start_ns = in.get_u64("event start_ns");
        e.queue_ns = in.get_u64("event queue_ns");
        e.run_ns = in.get_u64("event run_ns");
        e.total_ns = in.get_u64("event total_ns");
        events.push_back(e);
    }
    in.finish();
    return events;
}

// --- Cache handoff ----------------------------------------------------------

std::string encode_cache_load(serve::load_mode mode,
                              std::string_view cache_file) {
    std::string out;
    out.reserve(1 + 8 + cache_file.size());
    put_u8(out, static_cast<std::uint8_t>(mode));
    // Length-prefixed so the payload is self-delimiting like every other
    // codec: a truncated or padded image is rejected here, before the
    // cache's own loader ever sees the bytes.
    put_u64(out, cache_file.size());
    out.append(cache_file);
    return out;
}

cache_load_message decode_cache_load(std::string_view payload) {
    cursor in{payload, "cache_load"};
    cache_load_message message;
    const std::uint8_t mode = in.get_u8("load mode");
    if (mode > 1) {
        throw wire_error{"cache_load payload: unknown load mode " +
                         std::to_string(mode) + " at byte offset " +
                         std::to_string(in.offset() - 1)};
    }
    message.mode = static_cast<serve::load_mode>(mode);
    const std::uint64_t length = in.get_u64("cache image length");
    if (in.remaining() < length) {
        throw wire_error{
            "truncated cache_load payload: image declares " +
            std::to_string(length) + " bytes at byte offset " +
            std::to_string(in.offset()) + " but the payload ends at byte "
            "offset " +
            std::to_string(in.offset() + in.remaining())};
    }
    // The image itself is validated entry-by-entry by the cache's own
    // hardened "DSCF" loader.
    message.cache_file = std::string{in.rest().substr(0, length)};
    in.advance(message.cache_file.size());
    in.finish();
    return message;
}

std::string encode_load_report(const serve::cache_load_report& report) {
    std::string out;
    put_u64(out, report.loaded);
    put_u64(out, report.skipped);
    put_u8(out, report.salvaged ? 1 : 0);
    put_u64(out, report.salvaged_at);
    put_u8(out, report.checksum_ok ? 1 : 0);
    return out;
}

serve::cache_load_report decode_load_report(std::string_view payload) {
    cursor in{payload, "cache_loaded"};
    serve::cache_load_report report;
    report.loaded = static_cast<std::size_t>(in.get_u64("loaded"));
    report.skipped = static_cast<std::size_t>(in.get_u64("skipped"));
    report.salvaged = in.get_bool("salvaged");
    report.salvaged_at = in.get_u64("salvaged_at");
    report.checksum_ok = in.get_bool("checksum_ok");
    in.finish();
    return report;
}

} // namespace dew::net
