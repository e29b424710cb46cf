// Request canonicalisation and fingerprinting: the service's cache and
// coalescing identity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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
    service_request grid = a;
    grid.sweep.block_sizes = {16, 32, 64};
    EXPECT_NE(fingerprint(grid), fingerprint(a));

    service_request assocs = a;
    assocs.sweep.associativities = {2, 4, 8};
    EXPECT_NE(fingerprint(assocs), fingerprint(a));

    service_request depth = a;
    depth.sweep.max_set_exp = 9;
    EXPECT_NE(fingerprint(depth), fingerprint(a));

    service_request mode = a;
    mode.mode = service_mode::representative;
    EXPECT_NE(fingerprint(mode), fingerprint(a));
}

TEST(ServeKey, CanonicalRejectsCountedSweepsInBothTiers) {
    // The service answers fast miss counts only; a counted sweep is a
    // core::run_sweep call, and the message says so.
    for (const service_mode tier :
         {service_mode::exact, service_mode::representative}) {
        SCOPED_TRACE(static_cast<int>(tier));
        service_request counted = base_request();
        counted.mode = tier;
        counted.sweep.instrumentation =
            core::sweep_instrumentation::full_counters;
        try {
            (void)canonical(counted);
            ADD_FAILURE() << "counted sweep accepted";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string{error.what()}.find("core::run_sweep"),
                      std::string::npos)
                << error.what();
        }
        EXPECT_THROW((void)fingerprint(counted), std::invalid_argument);
        EXPECT_THROW((void)canonical(counted.sweep), std::invalid_argument);
    }
}

TEST(ServeKey, EngineAndDewOptionsNeverMoveTheFingerprintInEitherTier) {
    // Fast miss counts are bit-identical across engines and dew_options:
    // canonical() resets both, so fast DEW, fast CIPAR and any ablation of
    // one grid are one question, in the exact and the representative tier.
    for (const service_mode tier :
         {service_mode::exact, service_mode::representative}) {
        SCOPED_TRACE(static_cast<int>(tier));
        service_request dew_fast = base_request();
        dew_fast.mode = tier;
        service_request cipar_fast = dew_fast;
        cipar_fast.sweep.engine = core::sweep_engine::cipar;
        service_request ablated = dew_fast;
        ablated.sweep.options.use_mra_stop = false;
        ablated.sweep.options.use_wave = false;
        ablated.sweep.options.mre_depth = 4;
        service_request cipar_ablated = ablated;
        cipar_ablated.sweep.engine = core::sweep_engine::cipar;
        EXPECT_EQ(fingerprint(cipar_fast), fingerprint(dew_fast));
        EXPECT_EQ(fingerprint(ablated), fingerprint(dew_fast));
        EXPECT_EQ(fingerprint(cipar_ablated), fingerprint(dew_fast));

        const service_request normal = canonical(cipar_ablated);
        EXPECT_EQ(normal.sweep.engine, core::sweep_engine::dew);
        EXPECT_EQ(normal.sweep.options.use_mra_stop,
                  core::dew_options{}.use_mra_stop);
        EXPECT_EQ(normal.sweep.options.use_wave,
                  core::dew_options{}.use_wave);
        EXPECT_EQ(normal.sweep.options.mre_depth,
                  core::dew_options{}.mre_depth);
    }

    // An ill-formed ablation is still rejected before the reset, as
    // run_sweep would reject it.
    service_request bad = base_request();
    bad.sweep.options.use_mre = true;
    bad.sweep.options.mre_depth = 0;
    EXPECT_THROW((void)canonical(bad), std::invalid_argument);
}

TEST(ServeKey, ColumnKeysFoldTraceBlockAndAssociativityOnly) {
    const trace::trace_digest trace_a{{1, 2}};
    const trace::trace_digest trace_b{{3, 4}};

    // Trace, block size and associativity each move it.
    EXPECT_NE(column_key(trace_a, 16, 2), column_key(trace_b, 16, 2));
    EXPECT_NE(column_key(trace_a, 16, 2), column_key(trace_a, 32, 2));
    EXPECT_NE(column_key(trace_a, 16, 2), column_key(trace_a, 16, 4));
    EXPECT_NE(column_key(trace_a, 2, 16), column_key(trace_a, 16, 2));
    // A column key never equals a request key.
    EXPECT_NE(column_key(trace_a, 16, 2), make_key(trace_a, base_request()));
}

TEST(ServeKey, ColumnKeysArePinned) {
    // Cache files persist column keys, so a key must never change between
    // builds: these are the keys existing version 3 files hold, and a
    // saved column must still hit.
    const trace::trace_digest digest{
        {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull}};
    const request_key b16_a2 = column_key(digest, 16, 2);
    EXPECT_EQ(b16_a2.trace, digest);
    EXPECT_EQ(b16_a2.request[0], 0xDDE180810AB6D81Bull);
    EXPECT_EQ(b16_a2.request[1], 0x01B2882E7B4CEB99ull);
    const request_key b64_a8 = column_key(digest, 64, 8);
    EXPECT_EQ(b64_a8.request[0], 0xC5F192E9CDC06ABAull);
    EXPECT_EQ(b64_a8.request[1], 0x76365700EB5AAF63ull);
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
