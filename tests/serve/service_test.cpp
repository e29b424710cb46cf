// The sweep service's functional contract: exact answers bit-identical to
// run_sweep (and their miss counts to the CIPAR oracle), counted sweeps
// refused, cache hits without recomputation, deterministic coalescing,
// tiers, backpressure, and persistence.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dew/session.hpp"
#include "dew/sweep.hpp"
#include "serve/service.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

constexpr std::size_t trace_records = 30'000;

trace::mem_trace workload(trace::mediabench_app app =
                              trace::mediabench_app::cjpeg) {
    return trace::make_mediabench_trace(app, trace_records);
}

service_request exact_request(core::sweep_engine engine =
                                  core::sweep_engine::dew) {
    service_request request;
    request.sweep.max_set_exp = 7;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    request.sweep.engine = engine;
    return request;
}

void expect_identical(const core::sweep_result& a,
                      const core::sweep_result& b) {
    EXPECT_EQ(a.requests, b.requests);
    ASSERT_EQ(a.passes.size(), b.passes.size());
    for (std::size_t i = 0; i < a.passes.size(); ++i) {
        ASSERT_EQ(a.passes[i].block_size(), b.passes[i].block_size());
        ASSERT_EQ(a.passes[i].associativity(), b.passes[i].associativity());
        for (unsigned level = 0; level <= a.passes[i].max_level(); ++level) {
            EXPECT_EQ(a.passes[i].misses(level, a.passes[i].associativity()),
                      b.passes[i].misses(level, b.passes[i].associativity()))
                << "pass " << i << " level " << level;
            EXPECT_EQ(a.passes[i].misses(level, 1),
                      b.passes[i].misses(level, 1))
                << "pass " << i << " level " << level;
        }
        EXPECT_EQ(a.passes[i].counters().tag_comparisons,
                  b.passes[i].counters().tag_comparisons);
    }
}

TEST(Service, ExactAnswersAreBitIdenticalToRunSweepAndTheCiparOracle) {
    const trace::mem_trace trace = workload();
    service svc{{2, 64, overflow_policy::block, {4, 64}}};
    svc.add_trace("cjpeg", workload());
    const service_request request = exact_request();
    service_result answer = svc.submit("cjpeg", request).get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_FALSE(answer.cache_hit);
    EXPECT_FALSE(answer.estimated);
    expect_identical(*answer.sweep,
                     core::run_sweep(trace, canonical(request).sweep));
    // The CIPAR engine is a library oracle, not a served engine: its
    // run_sweep gives the same miss counts.
    expect_identical(*answer.sweep,
                     core::run_sweep(trace,
                                     exact_request(core::sweep_engine::cipar)
                                         .sweep));
}

TEST(Service, FastCiparAfterFastDewOfOneGridIsACacheHit) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace trace = workload();

    const service_result dew_answer =
        svc.submit("cjpeg", exact_request(core::sweep_engine::dew)).get();
    EXPECT_FALSE(dew_answer.cache_hit);
    // Fast miss counts are bit-identical across engines, so the CIPAR
    // request is the same question and composes from the DEW columns.
    const service_request cipar_request =
        exact_request(core::sweep_engine::cipar);
    const service_result cipar_answer =
        svc.submit("cjpeg", cipar_request).get();
    EXPECT_TRUE(cipar_answer.cache_hit);
    ASSERT_NE(cipar_answer.sweep, nullptr);
    expect_identical(*cipar_answer.sweep,
                     core::run_sweep(trace, cipar_request.sweep));
    EXPECT_EQ(svc.stats().computations, 1u);
}

TEST(Service, CountedSweepsAreRefusedInBothTiers) {
    // The service answers fast miss counts only; counted sweeps are
    // core::run_sweep calls.  submit() throws up front and counts nothing.
    service svc{};
    svc.add_trace("cjpeg", workload());
    for (const service_mode tier :
         {service_mode::exact, service_mode::representative}) {
        service_request request = exact_request();
        request.mode = tier;
        request.sweep.instrumentation =
            core::sweep_instrumentation::full_counters;
        EXPECT_THROW((void)svc.submit("cjpeg", request),
                     std::invalid_argument);
    }
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.computations, 0u);
}

TEST(Service, CacheHitsNeverRecomputeAndSpellingDoesNotMatter) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const service_request request = exact_request();
    const service_result first = svc.submit("cjpeg", request).get();
    EXPECT_FALSE(first.cache_hit);
    ASSERT_EQ(svc.stats().computations, 1u);

    // Same question, different spelling: reversed grids, duplicates,
    // threads set.  Must be a cache hit, not a new computation.
    service_request respelled = request;
    respelled.sweep.block_sizes = {32, 16, 32};
    respelled.sweep.associativities = {4, 2};
    respelled.sweep.threads = 3;
    const service_result second = svc.submit("cjpeg", respelled).get();
    EXPECT_TRUE(second.cache_hit);
    // Composed from the cached columns, not a stored pointer: equal, not
    // the same object.
    ASSERT_NE(second.sweep, nullptr);
    expect_identical(*second.sweep, *first.sweep);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.shard_jobs, 2u); // two block sizes, once

    // A different trace name with identical content shares the entry:
    // identity is the digest, not the name.
    svc.add_trace("alias", workload());
    EXPECT_TRUE(svc.submit("alias", request).get().cache_hit);

    // An *uncached* request under the alias (deeper than every cached
    // column) runs one shard job per block size, and each shard job
    // decodes its own block size: no stream is retained between requests,
    // so none is reused.
    const service_stats before = svc.stats();
    service_request fresh = request;
    fresh.sweep.max_set_exp = 8;
    EXPECT_FALSE(svc.submit("alias", fresh).get().cache_hit);
    const service_stats after = svc.stats();
    EXPECT_EQ(after.shard_jobs - before.shard_jobs, 2u);
    EXPECT_EQ(after.stream_builds - before.stream_builds, 2u);
    EXPECT_EQ(after.stream_reuses, 0u);
}

TEST(Service, DuplicateInFlightRequestsCoalesceDeterministically) {
    service svc{{2, 64, overflow_policy::block, {4, 64}}};
    svc.add_trace("cjpeg", workload());
    const service_request request = exact_request();

    // With the workers held, every duplicate submitted is provably
    // in-flight at once; the coalescing counter must equal the duplicate
    // count exactly and only one computation may run.
    svc.pause();
    constexpr std::size_t duplicates = 7;
    std::vector<submission> futures;
    for (std::size_t i = 0; i < duplicates + 1; ++i) {
        futures.push_back(svc.submit("cjpeg", request));
    }
    EXPECT_EQ(svc.stats().coalesced, duplicates);
    EXPECT_EQ(svc.stats().computations, 0u); // nothing ran yet
    svc.resume();

    const core::sweep_result reference =
        core::run_sweep(workload(), canonical(request).sweep);
    std::size_t coalesced_count = 0;
    std::shared_ptr<const core::sweep_result> shared;
    for (submission& future : futures) {
        const service_result answer = future.get();
        ASSERT_NE(answer.sweep, nullptr);
        expect_identical(*answer.sweep, reference);
        coalesced_count += answer.coalesced ? 1 : 0;
        if (!shared) {
            shared = answer.sweep;
        } else {
            EXPECT_EQ(answer.sweep, shared); // one payload for everyone
        }
    }
    EXPECT_EQ(coalesced_count, duplicates);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.coalesced, duplicates);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_DOUBLE_EQ(stats.coalesce_factor(), duplicates + 1.0);
}

TEST(Service, EachCoalescedWaiterGetsItsOwnCompletion) {
    service svc{{2, 64, overflow_policy::block, {4, 64}}};
    svc.add_trace("cjpeg", workload());
    const service_request request = exact_request();

    // The completion form of the coalescing case above: every waiter's own
    // callback runs exactly once, with its own coalesced flag, over the
    // one shared payload.
    constexpr std::size_t waiters = 6;
    struct outcome {
        int calls{0};
        bool coalesced{false};
        std::shared_ptr<const core::sweep_result> sweep;
    };
    std::vector<outcome> outcomes(waiters);
    svc.pause();
    for (std::size_t i = 0; i < waiters; ++i) {
        (void)svc.submit("cjpeg", request,
                         [&outcomes, i](service_result result,
                                        std::exception_ptr error) {
                             EXPECT_FALSE(error);
                             ++outcomes[i].calls;
                             outcomes[i].coalesced = result.coalesced;
                             outcomes[i].sweep = result.sweep;
                         });
    }
    EXPECT_EQ(svc.stats().coalesced, waiters - 1);
    svc.resume();
    svc.drain();

    const core::sweep_result reference =
        core::run_sweep(workload(), canonical(request).sweep);
    for (std::size_t i = 0; i < waiters; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(outcomes[i].calls, 1);
        EXPECT_EQ(outcomes[i].coalesced, i > 0);
        ASSERT_NE(outcomes[i].sweep, nullptr);
        EXPECT_EQ(outcomes[i].sweep, outcomes[0].sweep);
    }
    expect_identical(*outcomes[0].sweep, reference);
    EXPECT_EQ(svc.stats().computations, 1u);
}

TEST(Service, StreamBuildsCountOneDecodePerShardJob) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    service_request a = exact_request(); // blocks {16, 32}
    service_request b = exact_request();
    b.sweep.max_set_exp = 8; // deeper: both block sizes run again
    service_request c = exact_request();
    c.sweep.block_sizes = {16, 64}; // 16 is cached: only 64 runs
    (void)svc.submit("cjpeg", a).get();
    (void)svc.submit("cjpeg", b).get();
    (void)svc.submit("cjpeg", c).get();
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.shard_jobs, 5u);    // 2 + 2 + 1 block sizes missing
    EXPECT_EQ(stats.stream_builds, 5u); // each shard job decodes its own
    EXPECT_EQ(stats.stream_reuses, 0u); // no stream outlives its shard
}

TEST(Service, RepresentativeTierReportsErrorOrFallsBack) {
    service svc{};
    svc.add_trace("cjpeg", workload());

    service_request request = exact_request();
    request.mode = service_mode::representative;
    request.phase.interval_records = 2048;
    request.warmup_records = 4096;
    request.error_budget_pp = 2.0;
    const service_result answer = svc.submit("cjpeg", request).get();
    EXPECT_TRUE(answer.estimated);
    ASSERT_NE(answer.estimate, nullptr);
    EXPECT_TRUE(answer.estimate->calibrated);
    if (answer.fell_back_exact) {
        // Budget exceeded: the exact sweep was served instead.
        ASSERT_NE(answer.sweep, nullptr);
        expect_identical(*answer.sweep,
                         core::run_sweep(workload(),
                                         canonical(request).sweep));
    } else {
        // Budget met: the estimate's own accuracy statement proves it.
        EXPECT_LE(answer.max_abs_error_pp, request.error_budget_pp);
        EXPECT_EQ(answer.sweep, nullptr);
    }

    // A non-positive budget serves the cheap uncalibrated estimate.
    service_request uncalibrated = request;
    uncalibrated.error_budget_pp = 0.0;
    const service_result cheap = svc.submit("cjpeg", uncalibrated).get();
    EXPECT_TRUE(cheap.estimated);
    ASSERT_NE(cheap.estimate, nullptr);
    EXPECT_FALSE(cheap.estimate->calibrated);
    EXPECT_FALSE(cheap.fell_back_exact);

    // The two tiers never share cache entries with each other or with the
    // exact mode.
    EXPECT_FALSE(svc.submit("cjpeg", exact_request()).get().cache_hit);
    EXPECT_TRUE(svc.submit("cjpeg", request).get().cache_hit);
}

service_request representative_request(double error_budget_pp) {
    service_request request = exact_request();
    request.mode = service_mode::representative;
    request.phase.interval_records = 2048;
    request.warmup_records = 4096;
    request.error_budget_pp = error_budget_pp;
    return request;
}

TEST(Service, RepresentativeTierFallsBackPastATinyBudget) {
    service svc{};
    svc.add_trace("cjpeg", workload());

    const service_request request = representative_request(1e-9);
    const service_result answer = svc.submit("cjpeg", request).get();
    ASSERT_NE(answer.estimate, nullptr);
    EXPECT_TRUE(answer.estimate->calibrated);
    EXPECT_GT(answer.max_abs_error_pp, request.error_budget_pp);
    ASSERT_TRUE(answer.fell_back_exact);
    ASSERT_NE(answer.sweep, nullptr);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(), canonical(request).sweep));
    // The served sweep is the one that calibrated the estimate.
    EXPECT_EQ(answer.estimate->calibration_seconds, answer.sweep->seconds);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.exact_fallbacks, 1u);
    EXPECT_EQ(stats.representative_served, 0u);
    EXPECT_EQ(stats.shard_jobs, 1u);
}

TEST(Service, RepresentativeTierNeverFallsBackUnderAHugeBudget) {
    service svc{};
    svc.add_trace("cjpeg", workload());

    const service_request request = representative_request(1e9);
    const service_result answer = svc.submit("cjpeg", request).get();
    ASSERT_NE(answer.estimate, nullptr);
    EXPECT_TRUE(answer.estimate->calibrated);
    EXPECT_GT(answer.estimate->calibration_seconds, 0.0);
    EXPECT_LE(answer.max_abs_error_pp, request.error_budget_pp);
    EXPECT_FALSE(answer.fell_back_exact);
    // Within budget the calibration's exact sweep is not kept.
    EXPECT_EQ(answer.sweep, nullptr);
    const service_result hit = svc.submit("cjpeg", request).get();
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.sweep, nullptr);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.exact_fallbacks, 0u);
    EXPECT_EQ(stats.representative_served, 1u);
}

TEST(Service, FailFastBackpressureThrowsServiceOverloaded) {
    // One worker, one queue slot, workers held: the first submit takes the
    // slot, the second must be rejected without breaking the first.
    service svc{{1, 1, overflow_policy::fail_fast, {2, 16}}};
    svc.add_trace("cjpeg", workload());
    svc.pause();
    service_request narrow = exact_request();
    narrow.sweep.block_sizes = {16}; // one shard job
    submission accepted = svc.submit("cjpeg", narrow);
    service_request other = narrow;
    other.sweep.max_set_exp = 6;
    EXPECT_THROW((void)svc.submit("cjpeg", other), service_overloaded);
    EXPECT_EQ(svc.stats().rejected, 1u);
    svc.resume();
    EXPECT_NE(accepted.get().sweep, nullptr); // survivor completes

    // A request needing more slots than the whole queue can never fit
    // (deeper than the cached columns, so both block sizes are missing).
    svc.drain();
    service_request wide = exact_request();
    wide.sweep.max_set_exp = 8;
    EXPECT_THROW((void)svc.submit("cjpeg", wide), service_overloaded);
}

TEST(Service, RejectsUnknownTracesAndContentConflicts) {
    service svc{};
    EXPECT_THROW((void)svc.submit("nope", exact_request()),
                 std::invalid_argument);

    svc.add_trace("cjpeg", workload());
    EXPECT_TRUE(svc.has_trace("cjpeg"));
    EXPECT_FALSE(svc.has_trace("nope"));

    // Same name, same content: idempotent.  Different content: rejected.
    EXPECT_NO_THROW((void)svc.add_trace("cjpeg", workload()));
    EXPECT_THROW(
        (void)svc.add_trace("cjpeg",
                            workload(trace::mediabench_app::mpeg2_enc)),
        std::invalid_argument);
}

TEST(Service, ComputationFaultsSurfaceThroughEveryFuture) {
    // The sentinel block number makes simulate_blocks throw inside a
    // worker; the initiator and every coalesced waiter must see it.
    trace::mem_trace poisoned{{~std::uint64_t{0}, trace::access_type::read}};
    service svc{};
    svc.add_trace("poison", std::move(poisoned));
    service_request request;
    request.sweep.max_set_exp = 4;
    request.sweep.block_sizes = {1};
    request.sweep.associativities = {2};

    svc.pause();
    submission first = svc.submit("poison", request);
    submission second = svc.submit("poison", request);
    svc.resume();
    EXPECT_THROW((void)first.get(), std::exception);
    EXPECT_THROW((void)second.get(), std::exception);
    // A failed flight is not cached: the next submit computes (and fails)
    // again rather than serving a poisoned entry.
    EXPECT_THROW((void)svc.submit("poison", request).get(), std::exception);
    EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(Service, CachePersistsAcrossServiceInstances) {
    std::ostringstream saved;
    const service_request request = exact_request();
    core::sweep_result reference;
    {
        service svc{};
        svc.add_trace("cjpeg", workload());
        const service_result answer = svc.submit("cjpeg", request).get();
        reference = *answer.sweep;
        svc.drain();
        svc.save_cache(saved);
    }
    service restored{};
    restored.add_trace("cjpeg", workload());
    std::istringstream in{saved.str()};
    const cache_load_report report = restored.load_cache(in);
    EXPECT_EQ(report.loaded, 4u); // one column per (B, A) of the 2 x 2 grid
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_FALSE(report.salvaged);
    EXPECT_TRUE(report.checksum_ok);
    const service_result answer = restored.submit("cjpeg", request).get();
    EXPECT_TRUE(answer.cache_hit);
    ASSERT_NE(answer.sweep, nullptr);
    expect_identical(*answer.sweep, reference);
    EXPECT_EQ(restored.stats().computations, 0u);
}

TEST(Service, DrainWaitsForAllOutstandingWork) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    std::vector<submission> futures;
    for (unsigned exp = 4; exp < 8; ++exp) {
        service_request request = exact_request();
        request.sweep.max_set_exp = exp;
        futures.push_back(svc.submit("cjpeg", request));
    }
    svc.drain();
    for (submission& future : futures) {
        EXPECT_EQ(future.wait_for(std::chrono::seconds{0}),
                  std::future_status::ready);
    }
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

TEST(Service, ExactShardsRetainNoBlockStreams) {
    // Every paper block size against one large trace: a shard job streams
    // its block size through a session in bounded chunks, so serving the
    // whole grid costs O(chunk) beyond the resident records, never
    // 8 B/record per block size.  A small tree and one associativity keep
    // the simulation itself cheap under the sanitizers.
    constexpr std::size_t records = 1'000'000;
    service svc{};
    svc.add_trace("large", trace::make_mediabench_trace(
                               trace::mediabench_app::mpeg2_dec, records));
    const std::size_t before_kib = peak_rss_kib();
    for (const std::uint32_t block : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        service_request request;
        request.sweep.max_set_exp = 2;
        request.sweep.block_sizes = {block};
        request.sweep.associativities = {2};
        const service_result answer = svc.submit("large", request).get();
        ASSERT_NE(answer.sweep, nullptr);
        EXPECT_EQ(answer.sweep->requests, records);
    }
    const std::size_t grown_kib = peak_rss_kib() - before_kib;
    EXPECT_LT(grown_kib, std::size_t{16} << 10)
        << "peak RSS grew by " << (grown_kib >> 10) << " MiB";
    EXPECT_EQ(svc.stats().stream_builds, 7u);
}

TEST(Service, RejectsZeroWorkersOrQueue) {
    EXPECT_THROW((service{{0, 16, overflow_policy::block, {}}}),
                 std::invalid_argument);
    EXPECT_THROW((service{{2, 0, overflow_policy::block, {}}}),
                 std::invalid_argument);
}

} // namespace
