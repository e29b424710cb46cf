// Request canonicalisation and fingerprinting: the service's cache and
// coalescing identity.
#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/key.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

service_request base_request() {
    service_request request;
    request.sweep.max_set_exp = 8;
    request.sweep.block_sizes = {32, 16};
    request.sweep.associativities = {4, 2};
    return request;
}

TEST(ServeKey, CanonicalSortsAndDeduplicatesGrids) {
    core::sweep_request sweep;
    sweep.block_sizes = {64, 16, 32, 16};
    sweep.associativities = {8, 2, 8};
    sweep.threads = 7;
    const core::sweep_request normal = canonical(sweep);
    EXPECT_EQ(normal.block_sizes, (std::vector<std::uint32_t>{16, 32, 64}));
    EXPECT_EQ(normal.associativities, (std::vector<std::uint32_t>{2, 8}));
    EXPECT_EQ(normal.threads, 0u);
}

TEST(ServeKey, FingerprintIgnoresSpellingButNotSemantics) {
    const service_request a = base_request();

    // Same question, different spelling: reordered grids, duplicate
    // entries, different thread count.
    service_request b = a;
    b.sweep.block_sizes = {16, 32, 16};
    b.sweep.associativities = {2, 4};
    b.sweep.threads = 4;
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    // Different questions: each semantic field moves the fingerprint.
    service_request engine = a;
    engine.sweep.engine = core::sweep_engine::cipar;
    EXPECT_NE(fingerprint(engine), fingerprint(a));

    service_request instrumentation = a;
    instrumentation.sweep.instrumentation =
        core::sweep_instrumentation::full_counters;
    EXPECT_NE(fingerprint(instrumentation), fingerprint(a));

    service_request grid = a;
    grid.sweep.block_sizes = {16, 32, 64};
    EXPECT_NE(fingerprint(grid), fingerprint(a));

    service_request depth = a;
    depth.sweep.max_set_exp = 9;
    EXPECT_NE(fingerprint(depth), fingerprint(a));

    service_request options = a;
    options.sweep.options.use_mre = false;
    EXPECT_NE(fingerprint(options), fingerprint(a));

    service_request mode = a;
    mode.mode = service_mode::representative;
    EXPECT_NE(fingerprint(mode), fingerprint(a));
}

TEST(ServeKey, CiparEngineIgnoresDewOptions) {
    // dew_options select DEW tree properties; the cipar engine never reads
    // them, so they are dead fields of a cipar request and must not
    // fragment the key space (the same normalisation exact mode applies to
    // the unused representative knobs).
    service_request a = base_request();
    a.sweep.engine = core::sweep_engine::cipar;
    service_request b = a;
    b.sweep.options.use_mre = false;
    b.sweep.options.use_wave = false;
    b.sweep.options.mre_depth = 4;
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    // On the DEW engine the same fields are semantic (counters differ).
    service_request c = base_request();
    service_request d = base_request();
    d.sweep.options.mre_depth = 4;
    EXPECT_NE(fingerprint(c), fingerprint(d));
}

TEST(ServeKey, ExactModeIgnoresRepresentativeKnobs) {
    // The representative knobs are dead fields of an exact request; they
    // must not fragment the key space.
    service_request a = base_request();
    service_request b = base_request();
    b.warmup_records = 99;
    b.error_budget_pp = 0.25;
    b.phase.max_phases = 3;
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    // In representative mode the same knobs are semantic.
    a.mode = service_mode::representative;
    b.mode = service_mode::representative;
    EXPECT_NE(fingerprint(a), fingerprint(b));

    service_request c = a;
    c.phase.interval_records = a.phase.interval_records * 2;
    EXPECT_NE(fingerprint(c), fingerprint(a));

    // phase chunk_records is a buffering knob, proven bit-identical — it
    // must not fragment the key space either.
    service_request d = a;
    d.phase.chunk_records = 123;
    EXPECT_EQ(fingerprint(d), fingerprint(a));

    // Every non-positive error budget means the same thing (uncalibrated
    // estimate); the bit patterns must collapse to one key.
    service_request e = a;
    e.error_budget_pp = 0.0;
    service_request f = a;
    f.error_budget_pp = -3.5;
    EXPECT_EQ(fingerprint(e), fingerprint(f));
    EXPECT_NE(fingerprint(e), fingerprint(a)); // a's budget is positive
}

TEST(ServeKey, RejectsIllFormedRequests) {
    service_request bad_grid = base_request();
    bad_grid.sweep.block_sizes = {12};
    EXPECT_THROW((void)fingerprint(bad_grid), std::invalid_argument);

    service_request bad_phase = base_request();
    bad_phase.mode = service_mode::representative;
    bad_phase.phase.max_phases = 0;
    EXPECT_THROW((void)fingerprint(bad_phase), std::invalid_argument);
}

TEST(ServeKey, KeySeparatesTraceAndRequest) {
    const trace::trace_digest trace_a{{1, 2}};
    const trace::trace_digest trace_b{{3, 4}};
    const service_request request = base_request();
    service_request other = base_request();
    other.sweep.max_set_exp = 6;

    EXPECT_EQ(make_key(trace_a, request), make_key(trace_a, request));
    EXPECT_NE(make_key(trace_a, request), make_key(trace_b, request));
    EXPECT_NE(make_key(trace_a, request), make_key(trace_a, other));
}

} // namespace
