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
    // The engine and dew_options are semantic for counted requests only
    // (FastExactRequestsShareOneIdentity below).
    service_request counted = a;
    counted.sweep.instrumentation = core::sweep_instrumentation::full_counters;
    service_request engine = counted;
    engine.sweep.engine = core::sweep_engine::cipar;
    EXPECT_NE(fingerprint(engine), fingerprint(counted));

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

    service_request options = counted;
    options.sweep.options.use_mre = false;
    EXPECT_NE(fingerprint(options), fingerprint(counted));

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

    // On the DEW engine the same fields are semantic for a counted
    // request (counters differ).
    service_request c = base_request();
    c.sweep.instrumentation = core::sweep_instrumentation::full_counters;
    service_request d = c;
    d.sweep.options.mre_depth = 4;
    EXPECT_NE(fingerprint(c), fingerprint(d));
}

TEST(ServeKey, FastExactRequestsShareOneIdentityAcrossEnginesAndOptions) {
    // A fast exact answer is miss counts alone, bit-identical across
    // engines and dew_options: canonical() resets both, so fast DEW, fast
    // CIPAR and any ablation of one grid are one question.
    const service_request dew_fast = base_request();
    service_request cipar_fast = base_request();
    cipar_fast.sweep.engine = core::sweep_engine::cipar;
    service_request ablated = base_request();
    ablated.sweep.options.use_mre = false;
    ablated.sweep.options.use_wave = false;
    ablated.sweep.options.mre_depth = 4;
    EXPECT_EQ(fingerprint(cipar_fast), fingerprint(dew_fast));
    EXPECT_EQ(fingerprint(ablated), fingerprint(dew_fast));
    const service_request normal = canonical(cipar_fast);
    EXPECT_EQ(normal.sweep.engine, core::sweep_engine::dew);
    EXPECT_EQ(normal.sweep.options.use_mre, core::dew_options{}.use_mre);
    EXPECT_EQ(canonical(ablated).sweep.options.mre_depth,
              core::dew_options{}.mre_depth);

    // Counted requests keep both fields: their counters differ.
    service_request dew_counted = dew_fast;
    dew_counted.sweep.instrumentation =
        core::sweep_instrumentation::full_counters;
    service_request cipar_counted = cipar_fast;
    cipar_counted.sweep.instrumentation =
        core::sweep_instrumentation::full_counters;
    service_request ablated_counted = ablated;
    ablated_counted.sweep.instrumentation =
        core::sweep_instrumentation::full_counters;
    EXPECT_NE(fingerprint(cipar_counted), fingerprint(dew_counted));
    EXPECT_NE(fingerprint(ablated_counted), fingerprint(dew_counted));
    EXPECT_EQ(canonical(cipar_counted).sweep.engine,
              core::sweep_engine::cipar);

    // The representative tier keeps the engine it was asked for.
    service_request estimate_dew = dew_fast;
    estimate_dew.mode = service_mode::representative;
    service_request estimate_cipar = cipar_fast;
    estimate_cipar.mode = service_mode::representative;
    EXPECT_NE(fingerprint(estimate_cipar), fingerprint(estimate_dew));

    // An ill-formed ablation is still rejected before the reset.
    service_request bad = base_request();
    bad.sweep.options.use_mre = true;
    bad.sweep.options.mre_depth = 0;
    EXPECT_THROW((void)canonical(bad), std::invalid_argument);
}

TEST(ServeKey, ColumnKeysFoldDepthOnlyForCountedColumns) {
    const trace::trace_digest trace_a{{1, 2}};
    const trace::trace_digest trace_b{{3, 4}};
    const core::sweep_request fast = canonical(base_request()).sweep;

    // A fast column is one key at every depth: the deeper pass holds the
    // shallower one as a prefix.
    core::sweep_request deeper = fast;
    deeper.max_set_exp = 12;
    EXPECT_EQ(column_key(trace_a, fast, 16, 2),
              column_key(trace_a, deeper, 16, 2));
    // Trace, block size and associativity each move it.
    EXPECT_NE(column_key(trace_a, fast, 16, 2),
              column_key(trace_b, fast, 16, 2));
    EXPECT_NE(column_key(trace_a, fast, 16, 2),
              column_key(trace_a, fast, 32, 2));
    EXPECT_NE(column_key(trace_a, fast, 16, 2),
              column_key(trace_a, fast, 16, 4));
    // A column key never equals a request key.
    EXPECT_NE(column_key(trace_a, fast, 16, 2),
              make_key(trace_a, base_request()));

    // A counted column's counters depend on the depth, the engine and the
    // dew_options, so its key folds all three.
    core::sweep_request counted = fast;
    counted.instrumentation = core::sweep_instrumentation::full_counters;
    EXPECT_NE(column_key(trace_a, counted, 16, 2),
              column_key(trace_a, fast, 16, 2));
    core::sweep_request counted_deeper = counted;
    counted_deeper.max_set_exp = 12;
    EXPECT_NE(column_key(trace_a, counted, 16, 2),
              column_key(trace_a, counted_deeper, 16, 2));
    core::sweep_request counted_cipar = counted;
    counted_cipar.engine = core::sweep_engine::cipar;
    EXPECT_NE(column_key(trace_a, counted, 16, 2),
              column_key(trace_a, counted_cipar, 16, 2));
    core::sweep_request counted_ablated = counted;
    counted_ablated.options.use_wave = false;
    EXPECT_NE(column_key(trace_a, counted, 16, 2),
              column_key(trace_a, counted_ablated, 16, 2));
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
