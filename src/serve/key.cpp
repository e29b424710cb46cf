#include "serve/key.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/bits.hpp"

namespace dew::serve {

namespace {

void sort_unique(std::vector<std::uint32_t>& values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
}

// Two-lane absorber, same construction as trace::digest_builder (each lane
// absorbs its own independently-keyed mix, so no single-word collision
// collapses both) but over the canonical request's field stream instead of
// records.
class folder {
public:
    void operator()(std::uint64_t value) noexcept {
        lane0_ = mix64(lane0_ ^ mix64(value + 0x9E3779B97F4A7C15ull));
        lane1_ =
            mix64(lane1_ + (mix64(value ^ 0xC2B2AE3D27D4EB4Full) | 1));
        ++count_;
    }

    [[nodiscard]] std::array<std::uint64_t, 2> finish() const noexcept {
        return {mix64(lane0_ ^ count_), mix64(lane1_ + count_)};
    }

private:
    std::uint64_t lane0_{0x452821E638D01377ull}; // distinct from the trace
    std::uint64_t lane1_{0x13198A2E03707344ull}; // digest's lane seeds
    std::uint64_t count_{0};
};

} // namespace

core::sweep_request canonical(const core::sweep_request& sweep) {
    core::validate(sweep);
    if (sweep.instrumentation != core::sweep_instrumentation::fast) {
        throw std::invalid_argument{
            "the sweep service answers fast miss counts only; run a counted "
            "sweep with core::run_sweep"};
    }
    core::sweep_request normal = sweep;
    sort_unique(normal.block_sizes);
    sort_unique(normal.associativities);
    normal.threads = 0; // the service owns parallelism; results identical
    // Fast miss counts are bit-identical across engines and dew_options.
    normal.engine = core::sweep_engine::dew;
    normal.options = core::dew_options{};
    return normal;
}

service_request canonical(const service_request& request) {
    service_request normal = request;
    normal.sweep = canonical(request.sweep);
    // A deadline is a property of one submission, not of the question; two
    // requests differing only there are the same cache entry and the same
    // in-flight computation.
    normal.deadline = std::chrono::nanoseconds{0};
    if (normal.mode == service_mode::representative) {
        phase::validate(normal.phase);
        if (normal.error_budget_pp <= 0.0) {
            // Every non-positive budget (0.0, -0.0, -1.0, ...) means the
            // same thing — uncalibrated estimate — so collapse them to one
            // canonical bit pattern before the double is folded.
            normal.error_budget_pp = 0.0;
        }
    } else {
        // Exact requests are identical no matter what the (unused)
        // representative knobs say; normalise them away so they cannot
        // fragment the key space.
        normal.phase = phase::phase_options{};
        normal.warmup_records = 0;
        normal.error_budget_pp = 0.0;
    }
    return normal;
}

std::array<std::uint64_t, 2> fingerprint(const service_request& request) {
    return fingerprint_canonical(canonical(request));
}

// The one true fold: dewlint's identity-completeness rule requires every
// identity-struct field to be named in this body or exempt-listed.
// dewlint: identity-hash
std::array<std::uint64_t, 2>
fingerprint_canonical(const service_request& normal) {
    folder fold;
    fold(0x44455754ull); // format tag "TWED"; bump if the field set changes
    fold(static_cast<std::uint64_t>(normal.mode));
    fold(normal.sweep.max_set_exp);
    fold(normal.sweep.block_sizes.size());
    for (const std::uint32_t block : normal.sweep.block_sizes) {
        fold(block);
    }
    fold(normal.sweep.associativities.size());
    for (const std::uint32_t assoc : normal.sweep.associativities) {
        fold(assoc);
    }
    if (normal.mode == service_mode::representative) {
        fold(normal.phase.interval_records);
        fold(normal.phase.signature_block_size);
        fold(normal.phase.signature_width);
        fold(normal.phase.max_phases);
        fold(normal.phase.kmeans_iterations);
        // phase.chunk_records excluded: buffering only, bit-identical.
        fold(normal.warmup_records);
        fold(std::bit_cast<std::uint64_t>(normal.error_budget_pp));
    }
    return fold.finish();
}

request_key make_key(const trace::trace_digest& digest,
                     const service_request& request) {
    return {digest, fingerprint(request)};
}

request_key column_key(const trace::trace_digest& digest,
                       std::uint32_t block, std::uint32_t assoc) {
    folder fold;
    fold(0x4C4F4353ull); // format tag "SCOL": never a request key
    fold(block);
    fold(assoc);
    // The instrumentation policy a column key once folded (fast = 0): kept
    // so the keys of cache files saved before counted columns left stay
    // the same and still hit.
    fold(0);
    return {digest, fold.finish()};
}

} // namespace dew::serve
