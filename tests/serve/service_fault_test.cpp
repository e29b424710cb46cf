// The sweep service's failure semantics: deadlines and cancellation settle
// exactly the right waiters and skip abandoned work, transient faults
// retry with bounded attempts while permanent faults fail immediately,
// shed requests are answered by their estimate-tier question without
// touching the exact key, and the accounting balances through every storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "dew/sweep.hpp"
#include "phase/representative_sweep.hpp"
#include "serve/service.hpp"
#include "support/grid_questions.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;
using namespace std::chrono_literals;

constexpr std::size_t trace_records = 20'000;

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                        trace_records);
}

service_request exact_request(unsigned max_set_exp = 6) {
    service_request request;
    request.sweep.max_set_exp = max_set_exp;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    return request;
}

service_options robust_options() {
    service_options options;
    options.workers = 2;
    options.queue_capacity = 64;
    options.cache = {4, 64};
    options.retry_backoff = std::chrono::nanoseconds{0}; // fast tests
    return options;
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
        }
    }
}

TEST(ServiceFault, ClassifyFaultSortsTheTaxonomy) {
    const auto classify = [](auto&& exception) {
        return classify_fault(
            std::make_exception_ptr(std::forward<decltype(exception)>(
                exception)));
    };
    EXPECT_EQ(classify(trace::io_fault{"disk hiccup"}),
              fault_class::transient);
    EXPECT_EQ(classify(service_overloaded{"queue full"}),
              fault_class::transient);
    EXPECT_EQ(classify(std::system_error{
                  std::make_error_code(std::errc::io_error)}),
              fault_class::transient);
    EXPECT_EQ(classify(std::ios_base::failure{"stream broke"}),
              fault_class::transient);
    EXPECT_EQ(classify(std::invalid_argument{"bad grid"}),
              fault_class::permanent);
    EXPECT_EQ(classify(std::logic_error{"contract"}),
              fault_class::permanent);
    EXPECT_EQ(classify(service_timeout{"late"}), fault_class::permanent);
    EXPECT_EQ(classify(service_cancelled{"gone"}), fault_class::permanent);
    // Unrecognised faults are never retried.
    EXPECT_EQ(classify(std::runtime_error{"mystery"}),
              fault_class::permanent);
    EXPECT_EQ(classify_fault(std::make_exception_ptr(42)),
              fault_class::permanent);
}

TEST(ServiceFault, ExpiredDeadlineTimesOutWithoutStartingWork) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause(); // the deadline expires while the jobs sit queued
    service_request doomed_request = exact_request();
    doomed_request.deadline = 1ns;
    submission doomed = svc.submit("cjpeg", doomed_request);
    std::this_thread::sleep_for(1ms); // deadline provably in the past
    svc.resume();
    svc.drain();

    EXPECT_THROW((void)doomed.get(), service_timeout);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.expired_flights, 1u);
    EXPECT_EQ(stats.shard_jobs, 0u); // skipped, never started
    EXPECT_EQ(stats.computations, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_DOUBLE_EQ(stats.timeout_rate(), 1.0);

    // The service is fully serviceable afterwards, and the abandoned
    // flight left nothing in the cache.
    const service_result answer =
        svc.submit("cjpeg", exact_request()).get();
    EXPECT_FALSE(answer.cache_hit);
    ASSERT_NE(answer.sweep, nullptr);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
}

TEST(ServiceFault, CoalescedWaiterWithoutDeadlineSurvivesNeighbourTimeout) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    service_request doomed_request = exact_request();
    doomed_request.deadline = 1ns;
    submission doomed = svc.submit("cjpeg", doomed_request);
    // Same question, no deadline: coalesces onto the same flight.
    submission patient = svc.submit("cjpeg", exact_request());
    EXPECT_EQ(svc.stats().coalesced, 1u);
    std::this_thread::sleep_for(1ms);
    svc.resume();

    EXPECT_THROW((void)doomed.get(), service_timeout);
    const service_result answer = patient.get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_TRUE(answer.coalesced);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.expired_flights, 0u); // the flight stayed live
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, CancellingEveryWaiterAbandonsTheFlight) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    submission first = svc.submit("cjpeg", exact_request());
    submission second = svc.submit("cjpeg", exact_request()); // coalesced
    EXPECT_TRUE(first.cancel());
    EXPECT_FALSE(first.cancel()); // idempotent: already settled
    EXPECT_TRUE(second.cancel());
    svc.resume();
    svc.drain();

    EXPECT_THROW((void)first.get(), service_cancelled);
    EXPECT_THROW((void)second.get(), service_cancelled);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.cancellations, 2u);
    EXPECT_EQ(stats.shard_jobs, 0u); // both queued jobs skipped
    EXPECT_EQ(stats.computations, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, CancelAfterCompletionReturnsFalseAndKeepsTheAnswer) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());
    submission done = svc.submit("cjpeg", exact_request());
    svc.drain();
    EXPECT_FALSE(done.cancel()); // too late: the answer is already settled
    ASSERT_NE(done.get().sweep, nullptr);
    EXPECT_EQ(svc.stats().cancellations, 0u);
}

TEST(ServiceFault, SubmitAfterAbandonReplacesTheCorpseNotJoinsIt) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    submission abandoned = svc.submit("cjpeg", exact_request());
    EXPECT_TRUE(abandoned.cancel());
    // The abandoned flight may still be in the in-flight map; a new submit
    // of the same key must start a fresh computation, not join the corpse.
    submission fresh = svc.submit("cjpeg", exact_request());
    svc.resume();

    EXPECT_THROW((void)abandoned.get(), service_cancelled);
    const service_result answer = fresh.get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_FALSE(answer.coalesced);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    EXPECT_EQ(svc.stats().coalesced, 0u);
    EXPECT_EQ(svc.stats().computations, 1u);
}

TEST(ServiceFault, TransientFaultsRetryUntilTheHookRelents) {
    service_options options = robust_options();
    options.max_retries = 3;
    std::atomic<unsigned> injected{0};
    options.fault_hook = [&injected](std::size_t, unsigned attempt) {
        if (attempt < 2) {
            injected.fetch_add(1);
            throw trace::io_fault{"injected transient fault"};
        }
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    const service_result answer =
        svc.submit("cjpeg", exact_request()).get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_EQ(answer.flight_retries, 2u);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    EXPECT_GE(injected.load(), 2u);

    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.transient_faults, 2u); // attempts 0 and 1 failed
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.retry_successes, 1u);
    EXPECT_EQ(stats.permanent_faults, 0u);
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_DOUBLE_EQ(stats.retry_success_rate(), 0.5);

    // The recovered answer was cached like any other exact answer.
    EXPECT_TRUE(svc.submit("cjpeg", exact_request()).get().cache_hit);
}

TEST(ServiceFault, ExhaustedRetriesSurfaceTheTransientFaultUncached) {
    service_options options = robust_options();
    options.max_retries = 1;
    options.fault_hook = [](std::size_t, unsigned) {
        throw trace::io_fault{"injected persistent transient fault"};
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 trace::io_fault);
    service_stats stats = svc.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.retry_successes, 0u);
    EXPECT_EQ(stats.transient_faults, 2u); // the first try and the retry
    EXPECT_EQ(stats.computations, 0u);

    // Failed flights are never cached: the next submit computes (and
    // fails) again rather than serving a poisoned entry.
    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 trace::io_fault);
    EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(ServiceFault, PermanentFaultsFailImmediatelyWithoutRetry) {
    service_options options = robust_options();
    options.max_retries = 3; // available, but must not be used
    options.fault_hook = [](std::size_t, unsigned) {
        throw std::invalid_argument{"injected permanent fault"};
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 std::invalid_argument);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.permanent_faults, 1u);
    EXPECT_EQ(stats.transient_faults, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, DegradePolicyShedsExactLoadPastTheWatermark) {
    service_options options = robust_options();
    options.workers = 1;
    options.queue_capacity = 8;
    options.overflow = overflow_policy::degrade;
    options.degrade_watermark = 1;
    service svc{options};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    // First request queues two shard jobs (queue was empty: not degraded).
    submission full = svc.submit("cjpeg", exact_request(6));
    // Queue length 2 >= watermark 1: this exact request degrades.
    submission shed = svc.submit("cjpeg", exact_request(7));
    svc.resume();

    const service_result full_answer = full.get();
    EXPECT_FALSE(full_answer.degraded);
    ASSERT_NE(full_answer.sweep, nullptr);

    const service_result shed_answer = shed.get();
    EXPECT_TRUE(shed_answer.degraded);
    EXPECT_TRUE(shed_answer.estimated);
    ASSERT_NE(shed_answer.estimate, nullptr);
    EXPECT_EQ(shed_answer.sweep, nullptr); // the estimate IS the answer
    EXPECT_FALSE(shed_answer.estimate->calibrated); // the cheap tier
    EXPECT_EQ(svc.stats().degraded_served, 1u);

    // The estimate-tier question at the default knobs, warm-up included:
    // bit for bit the direct uncalibrated representative sweep.
    const phase::representative_sweep_result direct =
        phase::representative_sweep(
            workload(), {canonical(exact_request(7)).sweep,
                         phase::phase_options{}, 2048, false});
    const phase::representative_sweep_result& got = *shed_answer.estimate;
    EXPECT_EQ(got.total_records, direct.total_records);
    EXPECT_EQ(got.simulated_records, direct.simulated_records);
    EXPECT_EQ(got.phases.plan.phases.size(), direct.phases.plan.phases.size());
    ASSERT_EQ(got.configs.size(), direct.configs.size());
    for (std::size_t c = 0; c < direct.configs.size(); ++c) {
        EXPECT_EQ(got.configs[c].config.set_count,
                  direct.configs[c].config.set_count);
        EXPECT_EQ(got.configs[c].config.associativity,
                  direct.configs[c].config.associativity);
        EXPECT_EQ(got.configs[c].config.block_size,
                  direct.configs[c].config.block_size);
        EXPECT_EQ(got.configs[c].estimated_misses,
                  direct.configs[c].estimated_misses);
        EXPECT_EQ(got.configs[c].estimated_miss_rate,
                  direct.configs[c].estimated_miss_rate);
    }

    // The exact key stays uncached: under no load the same exact question
    // is computed exactly.
    svc.drain();
    const service_result again = svc.submit("cjpeg", exact_request(7)).get();
    EXPECT_FALSE(again.degraded);
    EXPECT_FALSE(again.cache_hit);
    ASSERT_NE(again.sweep, nullptr);
    expect_identical(*again.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request(7)).sweep));
}

TEST(ServiceFault, DegradedDuplicatesCoalesce) {
    service_options options = robust_options();
    options.workers = 1;
    options.queue_capacity = 8;
    options.overflow = overflow_policy::degrade;
    options.degrade_watermark = 1;
    service svc{options};
    svc.add_trace("cjpeg", workload());

    constexpr std::size_t duplicates = 6;
    svc.pause();
    // Two shard jobs sit queued; every duplicate behind them is shed.
    submission queued = svc.submit("cjpeg", exact_request(6));
    std::vector<submission> shed;
    for (std::size_t i = 0; i < duplicates; ++i) {
        shed.push_back(svc.submit("cjpeg", exact_request(7)));
    }
    svc.resume();

    EXPECT_FALSE(queued.get().degraded);
    std::shared_ptr<const phase::representative_sweep_result> estimate;
    for (submission& handle : shed) {
        const service_result answer = handle.get();
        EXPECT_TRUE(answer.degraded);
        EXPECT_EQ(answer.sweep, nullptr);
        ASSERT_NE(answer.estimate, nullptr);
        if (!estimate) {
            estimate = answer.estimate;
        }
        EXPECT_EQ(answer.estimate.get(), estimate.get()); // one payload
    }
    svc.drain();
    service_stats stats = svc.stats();
    EXPECT_EQ(stats.computations, 2u);
    EXPECT_EQ(stats.coalesced, duplicates - 1);
    EXPECT_EQ(stats.degraded_served, duplicates);
    EXPECT_EQ(stats.representative_served, 1u);

    // Every shed waiter's wide event says `degraded` and carries the key
    // of the estimate-tier question, not of the exact one.
    service_request question = exact_request(7);
    question.mode = service_mode::representative;
    question.error_budget_pp = 0.0;
    const std::array<std::uint64_t, 2> estimate_key = fingerprint(question);
    const std::vector<obs::request_event> events = svc.events();
    const auto degraded_events = std::count_if(
        events.begin(), events.end(), [&](const obs::request_event& e) {
            return e.disposition == obs::event_disposition::degraded &&
                   e.tier == 1 && e.key_hi == estimate_key[0] &&
                   e.key_lo == estimate_key[1];
        });
    EXPECT_EQ(static_cast<std::size_t>(degraded_events), duplicates);

    // The shed answer is cached under the estimate key: asking that
    // question outright is a (non-degraded) hit on the same payload.
    const service_result asked = svc.submit("cjpeg", question).get();
    EXPECT_TRUE(asked.cache_hit);
    EXPECT_FALSE(asked.degraded);
    EXPECT_EQ(asked.estimate.get(), estimate.get());

    // The exact key is still uncached: without load, the exact question
    // is computed.
    const service_result again = svc.submit("cjpeg", exact_request(7)).get();
    EXPECT_FALSE(again.cache_hit);
    EXPECT_FALSE(again.degraded);
    ASSERT_NE(again.sweep, nullptr);
    stats = svc.stats();
    EXPECT_EQ(stats.computations, 3u);
    EXPECT_EQ(stats.degraded_served, duplicates);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, ConcurrentFaultStormKeepsEveryAnswerExact) {
    // Four submitter threads over distinct and duplicate requests while
    // the hook fails every flight's first attempt: every future must still
    // produce the bit-exact answer, and the books must balance.
    service_options options = robust_options();
    options.workers = 3;
    options.queue_capacity = 256;
    options.cache = {8, 128};
    options.max_retries = 2;
    options.fault_hook = [](std::size_t, unsigned attempt) {
        if (attempt == 0) {
            throw trace::io_fault{"storm fault"};
        }
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    std::vector<service_request> requests;
    for (const unsigned exp : {5u, 6u, 7u}) {
        requests.push_back(exact_request(exp));
    }
    std::vector<core::sweep_result> references;
    const trace::mem_trace trace = workload();
    references.reserve(requests.size());
    for (const service_request& request : requests) {
        references.push_back(
            core::run_sweep(trace, canonical(request).sweep));
    }

    constexpr std::size_t submitters = 4;
    constexpr std::size_t rounds = 3;
    std::vector<std::thread> threads;
    std::vector<std::vector<std::pair<std::size_t, submission>>> handles{
        submitters};
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < rounds; ++round) {
                for (std::size_t r = 0; r < requests.size(); ++r) {
                    const std::size_t pick =
                        (r + t + round) % requests.size();
                    handles[t].emplace_back(
                        pick, svc.submit("cjpeg", requests[pick]));
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    std::uint64_t computed = 0;
    for (auto& per_thread : handles) {
        for (auto& [pick, handle] : per_thread) {
            const service_result answer = handle.get();
            ASSERT_NE(answer.sweep, nullptr);
            expect_identical(*answer.sweep, references[pick]);
            computed += !answer.cache_hit && !answer.coalesced ? 1 : 0;
        }
    }

    const service_stats stats = svc.stats();
    const std::uint64_t total = submitters * rounds * requests.size();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, total);
    // Every computed flight failed its first attempt and recovered on the
    // retry — exactly once each.  A shallower request that arrives after a
    // deeper one settled is composed from its columns, so between one
    // (depth 7 first) and three flights compute.
    EXPECT_EQ(stats.computations, computed);
    EXPECT_GE(stats.computations, 1u);
    EXPECT_LE(stats.computations, requests.size());
    EXPECT_EQ(stats.transient_faults, stats.computations);
    EXPECT_EQ(stats.retries, stats.computations);
    EXPECT_EQ(stats.retry_successes, stats.computations);
    EXPECT_DOUBLE_EQ(stats.retry_success_rate(), 1.0);
    EXPECT_EQ(stats.permanent_faults, 0u);
}

// --- The completion contract -------------------------------------------------

// What one completion saw: how often it ran and how it settled.
enum class settled_as { none, answered, cancelled, timed_out, other };

settled_as classify_outcome(const service_result& result,
                            const std::exception_ptr& error) {
    if (!error) {
        return result.sweep != nullptr ? settled_as::answered
                                       : settled_as::other;
    }
    try {
        std::rethrow_exception(error);
    } catch (const service_cancelled&) {
        return settled_as::cancelled;
    } catch (const service_timeout&) {
        return settled_as::timed_out;
    } catch (...) {
        return settled_as::other;
    }
}

TEST(ServiceFault, CompletionsFireExactlyOnceUnderAnswerCancelDeadlineRaces) {
    service_options options = robust_options();
    options.queue_capacity = 1024;
    service svc{options};
    svc.add_trace("cjpeg", workload());

    // 40 distinct grids, each asked ten times, so flights, coalescing and
    // cache hits mix; a quarter of the waiters carry tight deadlines and a
    // quarter are cancelled from another thread while the pool answers.
    constexpr std::size_t waiters = 400;
    constexpr std::size_t questions = 40;
    std::set<std::array<std::uint64_t, 2>> fingerprints;
    for (std::size_t q = 0; q < questions; ++q) {
        fingerprints.insert(fingerprint(test_support::grid_question(q, 6)));
    }
    ASSERT_EQ(fingerprints.size(), questions);
    std::vector<std::atomic<int>> calls(waiters);
    std::vector<std::atomic<settled_as>> outcome(waiters);
    std::vector<cancel_lever> levers(waiters);
    for (std::size_t i = 0; i < waiters; ++i) {
        service_request request =
            test_support::grid_question(i % questions, 6);
        if (i % 4 == 1) {
            request.deadline = std::chrono::microseconds{50 * (i % 7)};
        }
        levers[i] = svc.submit(
            "cjpeg", request,
            [&calls, &outcome, i](service_result result,
                                  std::exception_ptr error) {
                outcome[i].store(classify_outcome(result, error));
                calls[i].fetch_add(1);
            });
    }
    std::vector<char> cancelled(waiters, 0);
    std::thread canceller{[&] {
        for (std::size_t i = 2; i < waiters; i += 4) {
            cancelled[i] = levers[i] && levers[i]() ? 1 : 0;
        }
    }};
    canceller.join();
    svc.drain();

    std::uint64_t cancels = 0;
    std::uint64_t timeouts = 0;
    for (std::size_t i = 0; i < waiters; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(calls[i].load(), 1);
        const settled_as how = outcome[i].load();
        EXPECT_NE(how, settled_as::other);
        // A lever reports true exactly when its pull settled the waiter.
        EXPECT_EQ(how == settled_as::cancelled, cancelled[i] != 0);
        if (how == settled_as::timed_out) {
            EXPECT_EQ(i % 4, 1u);
        }
        cancels += how == settled_as::cancelled ? 1 : 0;
        timeouts += how == settled_as::timed_out ? 1 : 0;
    }
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, waiters);
    EXPECT_EQ(stats.completed, waiters);
    EXPECT_EQ(stats.cancellations, cancels);
    EXPECT_EQ(stats.timeouts, timeouts);
}

TEST(ServiceFault, CompletionsMayReenterTheService) {
    service_options options = robust_options();
    options.workers = 1; // the first flight settles before the second runs
    service svc{options};
    svc.add_trace("cjpeg", workload());
    const service_request first = exact_request(5);
    const service_request second = exact_request(6);

    std::atomic<int> nested_calls{0};
    std::atomic<bool> nested_hit{false};
    std::atomic<int> second_calls{0};
    std::atomic<settled_as> second_outcome{settled_as::none};
    std::atomic<bool> lever_pulled{false};
    std::atomic<std::uint64_t> seen_submitted{0};
    cancel_lever second_lever;

    svc.pause();
    (void)svc.submit(
        "cjpeg", first,
        [&](service_result result, std::exception_ptr error) {
            ASSERT_FALSE(error);
            ASSERT_NE(result.sweep, nullptr);
            // Runs on the only worker with no service lock held: reading
            // stats, resubmitting (a cache hit whose completion runs
            // nested, right here) and cancelling another waiter must all
            // go through.
            seen_submitted.store(svc.stats().submitted);
            (void)svc.submit("cjpeg", first,
                             [&](service_result again, std::exception_ptr) {
                                 nested_hit.store(again.cache_hit);
                                 nested_calls.fetch_add(1);
                             });
            lever_pulled.store(second_lever());
        });
    second_lever = svc.submit(
        "cjpeg", second,
        [&](service_result result, std::exception_ptr error) {
            second_outcome.store(classify_outcome(result, error));
            second_calls.fetch_add(1);
        });
    svc.resume();
    svc.drain();

    EXPECT_EQ(seen_submitted.load(), 2u);
    EXPECT_EQ(nested_calls.load(), 1);
    EXPECT_TRUE(nested_hit.load());
    EXPECT_TRUE(lever_pulled.load());
    EXPECT_EQ(second_calls.load(), 1);
    EXPECT_EQ(second_outcome.load(), settled_as::cancelled);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.cancellations, 1u);
}

TEST(ServiceFault, ThrowingCompletionLosesNoWorkerAndNoOtherAnswer) {
    service_options options = robust_options();
    options.workers = 1; // a lost worker would stall everything after it
    service svc{options};
    svc.add_trace("cjpeg", workload());
    const service_request request = exact_request(5);
    const core::sweep_result reference =
        core::run_sweep(workload(), canonical(request).sweep);

    std::atomic<int> throws{0};
    const completion thrower = [&throws](service_result, std::exception_ptr) {
        throws.fetch_add(1);
        throw std::runtime_error{"completion blew up"};
    };

    // Throwing and well-behaved waiters coalesced on one flight.
    svc.pause();
    (void)svc.submit("cjpeg", request, thrower);
    submission before = svc.submit("cjpeg", request);
    (void)svc.submit("cjpeg", request, thrower);
    submission after = svc.submit("cjpeg", request);
    svc.resume();
    expect_identical(*before.get().sweep, reference);
    expect_identical(*after.get().sweep, reference);

    // The cache-hit path (settled on the submitting thread) and the
    // cancel path (settled by the lever's caller) trap a throw too.
    EXPECT_NO_THROW((void)svc.submit("cjpeg", request, thrower));
    svc.pause();
    const cancel_lever lever =
        svc.submit("cjpeg", exact_request(6), thrower);
    bool pulled = false;
    EXPECT_NO_THROW(pulled = lever());
    EXPECT_TRUE(pulled);
    svc.resume();

    // The worker survived: fresh work is still answered, and drain()
    // reports no lost worker.
    const service_request fresh = exact_request(7);
    expect_identical(*svc.submit("cjpeg", fresh).get().sweep,
                     core::run_sweep(workload(), canonical(fresh).sweep));
    EXPECT_NO_THROW(svc.drain());
    EXPECT_EQ(throws.load(), 4);
}

} // namespace
