// Content-addressed request identity for the sweep service.
//
// A service request is answered from cache, or coalesced with an in-flight
// duplicate, iff it is *semantically* the same question about the same
// trace.  Three layers make that precise:
//
//   1. canonical() — the request normal form.  The service answers one
//      kind of exact question, fast miss counts, so counted sweeps are
//      rejected (core::run_sweep runs them).  Grids are sorted and
//      deduplicated (a sweep's answer is a set of configurations, not a
//      listing order), `threads` is zeroed (parallelism is the service's
//      concern and results are bit-identical regardless — the session test
//      suite proves it), and the engine and dew_options are reset to their
//      defaults: fast miss counts are bit-identical across engines and
//      ablations (the cross-simulator and ablation suites prove it).
//      Everything else that can change a single answered bit —
//      max_set_exp, the grids, the service tier and its
//      phase/warmup/error-budget knobs — is preserved.  The service answers
//      the canonical form, so the result handed back is exactly
//      run_sweep(trace, canonical(request).sweep).
//   2. fingerprint() — a 128-bit hash of the canonical form.  Keys compare
//      by full (trace digest, fingerprint) value, 256 bits total, so a
//      collision needs simultaneous 128+128-bit coincidence.
//   3. column_key() — the exact result cache's unit: one (trace, block
//      size, associativity) pass.  It leaves the depth out, because the
//      pass at depth L holds every shallower answer as a prefix.
#ifndef DEW_SERVE_KEY_HPP
#define DEW_SERVE_KEY_HPP

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "dew/sweep.hpp"
#include "phase/options.hpp"
#include "trace/digest.hpp"

namespace dew::serve {

// Which tier answers the request: `exact` simulates every reference through
// the engine the sweep names; `representative` serves phase-analysis
// estimates (src/phase/) and falls back to exact when the calibrated error
// exceeds the request's budget.
enum class service_mode : std::uint8_t {
    exact = 0,
    representative = 1,
};

// Cross-checked by dewlint's identity-completeness rule: every field must
// be folded by fingerprint_canonical (key.cpp) or carry an exempt
// annotation naming why it cannot change the answer.
// dewlint: identity-struct
struct service_request {
    // The configuration grid and depth of the sweep.  Its instrumentation
    // must be fast; `threads`, the engine and the dew_options are ignored
    // (canonical() resets them).
    core::sweep_request sweep{};
    service_mode mode{service_mode::exact};

    // Representative tier only (ignored — and excluded from the request
    // identity — in exact mode):
    phase::phase_options phase{};
    std::uint64_t warmup_records{2048};
    // > 0: the representative sweep runs calibrated and the service falls
    // back to the exact result when the measured error exceeds this budget
    // (miss-rate percentage points).  <= 0: the estimate is served
    // uncalibrated — the cheap tier, no accuracy statement.
    double error_budget_pp{2.0};

    // Per-submission answer deadline, relative to submit(); <= 0 (the
    // default) means none.  A request past its deadline fails with
    // service_timeout, and a flight none of whose waiters are still live
    // never starts further shard work.  Excluded from the request identity
    // (canonical() zeroes it): a deadline changes when the answer is
    // useful, never what the answer is — so requests differing only in
    // deadline still coalesce and share cache entries.
    // dewlint: identity-exempt deadline bounds when the answer is useful, never what it is; canonical() zeroes it
    std::chrono::nanoseconds deadline{0};

    // Observability correlation id (the DSNW frame id of the submit that
    // carried this request; 0 = local / none).  Pure telemetry: it tags
    // the request's spans so client- and server-side timelines stitch
    // (docs/OBSERVABILITY.md), and can never change a single answered bit
    // — two requests differing only here must still coalesce and share
    // cache entries.
    // dewlint: identity-exempt obs_correlation telemetry span tag; cannot change any answered bit
    std::uint64_t obs_correlation{0};

    // 128-bit fleet trace id + parent span id (0 = untraced / no parent).
    // Stamped by net::client, forwarded verbatim by net::router's backend
    // hop, adopted by the serve-side spans — the cross-process analogue of
    // obs_correlation (docs/OBSERVABILITY.md, Fleet).  Pure telemetry,
    // like obs_correlation: never folded, never cached on.
    // dewlint: identity-exempt obs_trace_hi telemetry trace-context word; cannot change any answered bit
    std::uint64_t obs_trace_hi{0};
    // dewlint: identity-exempt obs_trace_lo telemetry trace-context word; cannot change any answered bit
    std::uint64_t obs_trace_lo{0};
    // dewlint: identity-exempt obs_parent_span telemetry parent span id; cannot change any answered bit
    std::uint64_t obs_parent_span{0};
};

// Normal forms (see above).  Throws std::invalid_argument on an ill-formed
// sweep (validate(sweep_request)) and on a counted one.
[[nodiscard]] core::sweep_request canonical(const core::sweep_request& sweep);
[[nodiscard]] service_request canonical(const service_request& request);

// 128-bit fingerprint of canonical(request).  phase_options::chunk_records
// is excluded: like `threads`, it is a buffering knob proven not to change
// a single output bit.
[[nodiscard]] std::array<std::uint64_t, 2>
fingerprint(const service_request& request);

// The same fingerprint for a request already in canonical form — skips the
// normalisation copy/sort/validate, which matters on the service's
// cache-hit fast path.  Precondition: request came from canonical().
[[nodiscard]] std::array<std::uint64_t, 2>
fingerprint_canonical(const service_request& request);

// The cache / coalescing key: what trace, what question.
struct request_key {
    trace::trace_digest trace{};
    std::array<std::uint64_t, 2> request{};

    friend bool operator==(const request_key&, const request_key&) = default;
};

struct request_key_hash {
    [[nodiscard]] std::size_t
    operator()(const request_key& key) const noexcept {
        // The fingerprint words are already avalanche-mixed; fold all four.
        return static_cast<std::size_t>(
            key.trace.words[0] ^ (key.trace.words[1] << 1) ^
            key.request[0] ^ (key.request[1] >> 1));
    }
};

[[nodiscard]] request_key make_key(const trace::trace_digest& digest,
                                   const service_request& request);

// The key of the (block, assoc) column over the trace `digest`.  Column
// keys live in the request keys' space but fold their own format tag
// first, so the two never coincide.
[[nodiscard]] request_key column_key(const trace::trace_digest& digest,
                                     std::uint32_t block, std::uint32_t assoc);

} // namespace dew::serve

#endif // DEW_SERVE_KEY_HPP
