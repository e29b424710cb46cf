// Concurrency stress: many submitter threads, a mix of identical,
// respelled and distinct requests, and both tiers.  Every returned result
// must be bit-identical to a direct run_sweep, every duplicate must be
// absorbed by coalescing or the cache (never recomputed), and the
// accounting must balance exactly.  This suite is the ThreadSanitizer
// target in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "dew/sweep.hpp"
#include "serve/service.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

constexpr std::size_t trace_records = 20'000;

trace::mem_trace workload(trace::mediabench_app app) {
    return trace::make_mediabench_trace(app, trace_records);
}

void expect_identical(const core::sweep_result& a,
                      const core::sweep_result& b) {
    ASSERT_EQ(a.requests, b.requests);
    ASSERT_EQ(a.passes.size(), b.passes.size());
    for (std::size_t i = 0; i < a.passes.size(); ++i) {
        ASSERT_EQ(a.passes[i].block_size(), b.passes[i].block_size());
        ASSERT_EQ(a.passes[i].associativity(), b.passes[i].associativity());
        for (unsigned level = 0; level <= a.passes[i].max_level(); ++level) {
            ASSERT_EQ(a.passes[i].misses(level, a.passes[i].associativity()),
                      b.passes[i].misses(level, b.passes[i].associativity()))
                << "pass " << i << " level " << level;
            ASSERT_EQ(a.passes[i].misses(level, 1),
                      b.passes[i].misses(level, 1))
                << "pass " << i << " level " << level;
        }
    }
}

// The requests of the stress mix: two depths, each spelled two ways
// (sorted, and reversed with threads set).
std::vector<service_request> mix_requests() {
    std::vector<service_request> requests;
    for (const bool respelled : {false, true}) {
        for (const unsigned exp : {5u, 6u}) {
            service_request request;
            request.sweep.max_set_exp = exp;
            request.sweep.block_sizes = {16, 32};
            request.sweep.associativities = {2, 4};
            if (respelled) {
                request.sweep.block_sizes = {32, 16};
                request.sweep.associativities = {4, 2};
                request.sweep.threads = 2;
            }
            requests.push_back(request);
        }
    }
    return requests;
}

TEST(ServiceStress, ConcurrentMixedSubmissionsStayExactAndNeverRecompute) {
    service svc{{3, 256, overflow_policy::block, {8, 256}}};
    svc.add_trace("cjpeg", workload(trace::mediabench_app::cjpeg));

    const std::vector<service_request> requests = mix_requests();
    // Reference answers computed directly, once, up front.
    const trace::mem_trace trace = workload(trace::mediabench_app::cjpeg);
    std::vector<core::sweep_result> references;
    references.reserve(requests.size());
    for (const service_request& request : requests) {
        references.push_back(
            core::run_sweep(trace, canonical(request).sweep));
    }

    // N submitter threads, each replaying every distinct request R times
    // in a thread-specific order; most submissions are therefore
    // duplicates in flight or cache hits.
    constexpr std::size_t submitters = 4;
    constexpr std::size_t rounds = 3;
    std::vector<std::thread> threads;
    std::vector<std::vector<std::pair<std::size_t, submission>>> futures{
        submitters};
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < rounds; ++round) {
                for (std::size_t r = 0; r < requests.size(); ++r) {
                    const std::size_t pick =
                        (r + t + round) % requests.size();
                    futures[t].emplace_back(
                        pick, svc.submit("cjpeg", requests[pick]));
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    std::uint64_t coalesced_results = 0;
    std::uint64_t cache_hit_results = 0;
    for (auto& per_thread : futures) {
        for (auto& [pick, future] : per_thread) {
            service_result answer = future.get();
            ASSERT_NE(answer.sweep, nullptr);
            expect_identical(*answer.sweep, references[pick]);
            coalesced_results += answer.coalesced ? 1 : 0;
            cache_hit_results += answer.cache_hit ? 1 : 0;
        }
    }

    const service_stats stats = svc.stats();
    const std::uint64_t total = submitters * rounds * requests.size();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, total);
    // Cache hits never re-simulate.  Both spellings of one depth are one
    // canonical question, so the mix asks two: depth 5 and depth 6.
    // Depth 6 always computes (no column is deeper); depth 5 computes only
    // when it found no depth-6 columns yet, so a computation is exactly a
    // request that had a missing column, and there are one or two of them.
    std::uint64_t computed_results = 0;
    for (auto& per_thread : futures) {
        computed_results += per_thread.size();
    }
    computed_results -= coalesced_results + cache_hit_results;
    EXPECT_EQ(stats.computations, computed_results);
    EXPECT_GE(stats.computations, 1u);
    EXPECT_LE(stats.computations, 2u);
    // A computation runs one shard per block size with a missing column:
    // at most two, and at least one.  (A depth-5 flight can snapshot a
    // depth-6 flight's columns while that one is still inserting them.)
    EXPECT_LE(stats.shard_jobs, stats.computations * 2);
    EXPECT_GE(stats.shard_jobs, stats.computations);
    // Every duplicate was absorbed by coalescing or the cache; the result
    // flags agree with the service's own counters.
    EXPECT_EQ(stats.coalesced + stats.cache_hits,
              total - stats.computations);
    EXPECT_EQ(stats.coalesced, coalesced_results);
    EXPECT_EQ(stats.cache_hits, cache_hit_results);
    // One block-size decode per shard job run; no stream is kept for a
    // later job to reuse.
    EXPECT_EQ(stats.stream_builds, stats.shard_jobs);
    EXPECT_EQ(stats.stream_reuses, 0u);
}

TEST(ServiceStress, GatedDuplicateStormCoalescesToOneComputationExactly) {
    // The deterministic variant: workers held while every thread submits
    // the same request, so all duplicates are provably in flight at once
    // and the coalescing counter must match the duplicate count exactly.
    service svc{{2, 256, overflow_policy::block, {4, 64}}};
    svc.add_trace("mpeg2", workload(trace::mediabench_app::mpeg2_enc));
    service_request request;
    request.sweep.max_set_exp = 6;
    request.sweep.block_sizes = {32};
    request.sweep.associativities = {4};

    svc.pause();
    constexpr std::size_t submitters = 4;
    constexpr std::size_t per_thread = 8;
    std::vector<std::thread> threads;
    std::vector<std::vector<submission>> futures{submitters};
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < per_thread; ++i) {
                futures[t].push_back(svc.submit("mpeg2", request));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const std::uint64_t total = submitters * per_thread;
    EXPECT_EQ(svc.stats().coalesced, total - 1); // all but the initiator
    EXPECT_EQ(svc.stats().computations, 0u);     // and nothing ran yet
    svc.resume();

    const core::sweep_result reference = core::run_sweep(
        workload(trace::mediabench_app::mpeg2_enc),
        canonical(request).sweep);
    std::uint64_t coalesced_count = 0;
    for (auto& per : futures) {
        for (submission& future : per) {
            const service_result answer = future.get();
            ASSERT_NE(answer.sweep, nullptr);
            expect_identical(*answer.sweep, reference);
            coalesced_count += answer.coalesced ? 1 : 0;
        }
    }
    EXPECT_EQ(coalesced_count, total - 1);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.computations, 1u); // one simulation for the whole storm
    EXPECT_EQ(stats.coalesced, total - 1);
    EXPECT_DOUBLE_EQ(stats.coalesce_factor(), static_cast<double>(total));
}

TEST(ServiceStress, MixedTiersAndTracesUnderConcurrency) {
    // Exact and representative requests against two traces at once; every
    // exact answer is checked bit-identical, every representative answer
    // carries a consistent accuracy statement.
    service svc{{3, 256, overflow_policy::block, {8, 128}}};
    svc.add_trace("cjpeg", workload(trace::mediabench_app::cjpeg));
    svc.add_trace("mpeg2", workload(trace::mediabench_app::mpeg2_enc));

    service_request exact;
    exact.sweep.max_set_exp = 6;
    exact.sweep.block_sizes = {16, 32};
    exact.sweep.associativities = {2, 4};

    service_request representative = exact;
    representative.mode = service_mode::representative;
    representative.phase.interval_records = 2048;
    representative.warmup_records = 4096;
    representative.error_budget_pp = 50.0; // never falls back

    const core::sweep_result cjpeg_reference = core::run_sweep(
        workload(trace::mediabench_app::cjpeg), canonical(exact).sweep);
    const core::sweep_result mpeg2_reference = core::run_sweep(
        workload(trace::mediabench_app::mpeg2_enc), canonical(exact).sweep);

    constexpr std::size_t submitters = 4;
    std::vector<std::thread> threads;
    std::vector<std::vector<std::tuple<bool, bool, submission>>> futures{
        submitters};
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < 6; ++i) {
                const bool on_cjpeg = (t + i) % 2 == 0;
                const bool exact_tier = i % 3 != 0;
                futures[t].emplace_back(
                    on_cjpeg, exact_tier,
                    svc.submit(on_cjpeg ? "cjpeg" : "mpeg2",
                               exact_tier ? exact : representative));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (auto& per : futures) {
        for (auto& [on_cjpeg, exact_tier, future] : per) {
            service_result answer = future.get();
            if (exact_tier) {
                ASSERT_NE(answer.sweep, nullptr);
                EXPECT_FALSE(answer.estimated);
                expect_identical(*answer.sweep, on_cjpeg ? cjpeg_reference
                                                         : mpeg2_reference);
            } else {
                EXPECT_TRUE(answer.estimated);
                ASSERT_NE(answer.estimate, nullptr);
                EXPECT_FALSE(answer.fell_back_exact);
                EXPECT_LE(answer.max_abs_error_pp, 50.0);
            }
        }
    }
    // Four distinct questions (2 tiers x 2 traces): never recomputed.
    EXPECT_EQ(svc.stats().computations, 4u);
}

} // namespace
