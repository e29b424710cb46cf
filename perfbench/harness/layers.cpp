// Per-layer probes of a traced run.  Every probe calls a layer's public
// functions on the workload's own inputs and records one span per call in
// the benchmark's span log; perfbench/stats.py derives the per-layer
// metrics from those spans plus the exact counts written here.
//
//   trace     trace::block_numbers per (trace, block size)
//   dew       fast simulate_blocks per pass, one full_counters sweep (exact
//             counts), dew::session steps
//   cipar     fast simulate_blocks per pass on the same streams
//   baseline  dinero_sim on sampled configurations against the DEW sweep
//   serve     in-process replay of the workload's requests on a service
//   net       ping, warm answers, the codec on the workload's messages and
//             an open loop (two fixed rates, then a max-rate ladder) against
//             a server process
#include <algorithm>
#include <bit>
#include <random>
#include <set>
#include <tuple>

#include "baseline/dinero_sim.hpp"
#include "cipar/simulator.hpp"
#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace pb {

core::sweep_result stepped_sweep(const trace::mem_trace& trace,
                                 const core::sweep_request& request,
                                 std::uint64_t parent) {
    trace::span_source src{{trace.data(), trace.size()}};
    core::session session{src, request};
    const double streams = static_cast<double>(request.block_sizes.size());
    const double passes =
        streams * static_cast<double>(request.associativities.size());
    for (;;) {
        span_timer step{"dew.session_step", parent};
        const std::uint64_t before = session.requests();
        if (!session.step()) {
            step.discard();
            break;
        }
        step.set_count(session.requests() - before);
        step.arg("streams", streams);
        step.arg("passes", passes);
    }
    return session.result();
}

namespace {

// The grid every query on one trace covers together.
core::sweep_request union_grid(const std::vector<query>& queries,
                               std::size_t trace_index) {
    std::set<std::uint32_t> blocks;
    std::set<std::uint32_t> assocs;
    core::sweep_request grid;
    grid.max_set_exp = 0;
    for (const query& q : queries) {
        if (q.trace != trace_index) {
            continue;
        }
        const core::sweep_request canon = serve::canonical(q.request.sweep);
        blocks.insert(canon.block_sizes.begin(), canon.block_sizes.end());
        assocs.insert(canon.associativities.begin(), canon.associativities.end());
        grid.max_set_exp = std::max(grid.max_set_exp, canon.max_set_exp);
    }
    grid.block_sizes.assign(blocks.begin(), blocks.end());
    grid.associativities.assign(assocs.begin(), assocs.end());
    return grid;
}

void simulator_probes(const layer_inputs& inputs, json_writer& out,
                      outcome& result, std::uint64_t seed) {
    core::dew_counters counted;
    for (std::size_t t = 0; t < inputs.traces.size(); ++t) {
        const core::sweep_request grid = union_grid(inputs.queries, t);
        if (grid.block_sizes.empty()) {
            continue;
        }
        const trace::mem_trace& records = *inputs.traces[t];
        const double trace_arg = static_cast<double>(t);

        // Decoded streams feed one fast DEW and one fast CIPAR pass per
        // associativity, twice over.
        for (int rep = 0; rep < 2; ++rep) {
            for (const std::uint32_t block : grid.block_sizes) {
                std::vector<std::uint64_t> stream;
                {
                    span_timer span{"trace.block_numbers", 0, records.size()};
                    stream = trace::block_numbers(
                        {records.data(), records.size()},
                        static_cast<unsigned>(std::countr_zero(block)));
                }
                for (const std::uint32_t assoc : grid.associativities) {
                    core::fast_dew_simulator dew_sim{grid.max_set_exp, assoc,
                                                     block, grid.options};
                    {
                        span_timer span{"dew.pass", 0, stream.size()};
                        span.arg("trace", trace_arg);
                        dew_sim.simulate_blocks(stream);
                    }
                    cipar::fast_cipar_simulator cipar_sim{grid.max_set_exp,
                                                          assoc, block};
                    {
                        span_timer span{"cipar.pass", 0, stream.size()};
                        cipar_sim.simulate_blocks(stream);
                    }
                    result.check(dew_sim.result().misses(grid.max_set_exp, assoc) ==
                                     cipar_sim.result().misses(grid.max_set_exp, assoc),
                                 "layers: cipar pass differs from dew pass");
                }
            }
        }

        // Exact counts from one counted sweep of the same grid.
        core::sweep_request counted_grid = grid;
        counted_grid.instrumentation = core::sweep_instrumentation::full_counters;
        const core::dew_counters c =
            core::run_sweep(records, counted_grid).total_counters();
        counted.requests += c.requests;
        counted.node_evaluations += c.node_evaluations;
        counted.mra_hits += c.mra_hits;
        counted.searches += c.searches;
        counted.tag_comparisons += c.tag_comparisons;

        // Session steps: the sweep as run_sweep runs it, chunk by chunk.
        core::sweep_result fast_answer;
        for (int rep = 0; rep < 2; ++rep) {
            fast_answer = stepped_sweep(records, grid);
        }

        // The paper's Fig. 5 quantity: per-configuration simulation of
        // sampled configurations against one DEW sweep of the whole grid.
        for (int rep = 0; rep < 2; ++rep) {
            span_timer span{"dew.sweep", 0, grid_configs(grid)};
            span.arg("trace", trace_arg);
            const core::sweep_result answer = core::run_sweep(records, grid);
            span.end();
            result.check(same_answer(answer, fast_answer),
                         "layers: run_sweep differs from the stepped session");
        }
        const std::vector<core::config_outcome> outcomes = fast_answer.outcomes();
        std::mt19937_64 rng{mix_seed(seed, 400 + t)};
        for (int i = 0; i < 3; ++i) {
            const core::config_outcome& sample = outcomes[rng() % outcomes.size()];
            baseline::dinero_sim sim{sample.config};
            {
                span_timer span{"baseline.dinero", 0, records.size()};
                span.arg("trace", trace_arg);
                sim.simulate(records);
            }
            result.check(sim.stats().misses == sample.misses,
                         "layers: dinero_sim differs from the DEW sweep");
        }
    }
    out.begin_object("dew_counts");
    out.value("accesses", counted.requests);
    out.value("node_evaluations", counted.node_evaluations);
    out.value("mra_hits", counted.mra_hits);
    out.value("searches", counted.searches);
    out.value("tag_comparisons", counted.tag_comparisons);
    out.end_object();
}

void serve_probe(const run_config& config, const layer_inputs& inputs,
                 reference_answers& refs, json_writer& out, outcome& result) {
    serve::service service{serve::service_options{}};
    for (std::size_t t = 0; t < inputs.traces.size(); ++t) {
        service.add_trace(std::to_string(t), *inputs.traces[t]);
    }
    auto name_of = [&](std::size_t pick) {
        return std::to_string(inputs.queries[pick].trace);
    };
    // The workload's replay: one closed-loop thread per sequence.
    std::atomic<bool> replaying{true};
    std::atomic<std::uint64_t> depth_max{0};
    std::thread depth_sampler{[&] {
        while (replaying.load()) {
            depth_max.store(std::max(depth_max.load(), service.stats().queue_depth));
            std::this_thread::sleep_for(std::chrono::microseconds{200});
        }
    }};
    std::vector<std::vector<std::pair<std::size_t, serve::service_result>>>
        answers(inputs.sequences.size());
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < inputs.sequences.size(); ++s) {
        threads.emplace_back([&, s] {
            for (const std::size_t pick : inputs.sequences[s]) {
                try {
                    const std::uint64_t t0 = now_ns();
                    serve::submission pending =
                        service.submit(name_of(pick), inputs.queries[pick].request);
                    const std::uint64_t t1 = now_ns();
                    serve::service_result answer = pending.get();
                    const std::uint64_t t2 = now_ns();
                    record_span("serve.submit_call", t0, t1);
                    record_span("serve.answer", t0, t2);
                    answers[s].emplace_back(pick, std::move(answer));
                } catch (...) {
                    answers[s].emplace_back(pick, serve::service_result{});
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    replaying.store(false);
    depth_sampler.join();
    const serve::service_stats stats = service.stats();
    for (const auto& per_thread : answers) {
        for (const auto& [pick, answer] : per_thread) {
            result.check(answer.sweep != nullptr &&
                             same_answer(*answer.sweep, refs.get(pick)),
                         "layers: an in-process answer differs from run_sweep");
        }
    }

    // Warm answers in process, one thread: the floor the wire tax is
    // measured against.
    std::mt19937_64 rng{mix_seed(config.seed, 410)};
    for (int i = 0; i < 1000; ++i) {
        const std::size_t pick = rng() % inputs.queries.size();
        const std::uint64_t t0 = now_ns();
        const serve::service_result answer =
            service.submit(name_of(pick), inputs.queries[pick].request).get();
        record_span("serve.warm_answer", t0, now_ns());
        result.check(answer.cache_hit, "layers: a warm in-process answer missed");
    }

    out.begin_object("serve_stats");
    out.value("submitted", stats.submitted);
    out.value("cache_hits", stats.cache_hits);
    out.value("coalesced", stats.coalesced);
    out.value("computations", stats.computations);
    out.value("shard_jobs", stats.shard_jobs);
    out.value("stream_builds", stats.stream_builds);
    out.value("stream_reuses", stats.stream_reuses);
    out.value("queue_depth_max", depth_max.load());
    out.end_object();
}

// Open-loop rates (requests per second over all connections) and the
// max-rate ladder: a fixed number of requests per step, so every run sends
// the same load whatever the machine, and the server process stays far
// inside its per-process submit budget.  Fixed for the benchmark's lifetime.
constexpr double low_rps = 500.0;
constexpr double high_rps = 2000.0;
constexpr double fixed_rate_s = 2.0;
constexpr double ladder_rps[] = {2000,  2500,  3100,  3900,  4900,
                                 6100,  7600,  9500,  11900, 14900,
                                 18600, 23300, 29100, 36400};
constexpr std::size_t ladder_step_requests = 1000;

void net_probe(const run_config& config, const layer_inputs& inputs,
               reference_answers& refs, json_writer& out, outcome& result) {
    serving_stack stack = start_stack(inputs.traces, connections);
    const proc_sampler sampler{stack.server->pid()};
    net::client& client = *stack.clients[0];

    for (int i = 0; i < 500; ++i) {
        span_timer span{"net.ping"};
        client.ping();
    }

    std::vector<warm_entry> pool;
    std::vector<serve::service_result> results;
    for (std::size_t i = 0; i < inputs.queries.size(); ++i) {
        warm_entry entry;
        entry.digest = stack.digests[inputs.queries[i].trace];
        entry.request = inputs.queries[i].request;
        serve::service_result answer = client.submit(entry.digest, entry.request).get();
        result.check(answer.sweep != nullptr && same_answer(*answer.sweep, refs.get(i)),
                     "layers: a wire answer differs from run_sweep");
        entry.expected = answer.sweep;
        pool.push_back(std::move(entry));
        results.push_back(std::move(answer));
    }

    // Warm answers over the wire, one connection, closed loop.
    std::mt19937_64 rng{mix_seed(config.seed, 410)};
    for (int i = 0; i < 1000; ++i) {
        const std::size_t pick = rng() % pool.size();
        const std::uint64_t t0 = now_ns();
        const serve::service_result answer =
            client.submit(pool[pick].digest, pool[pick].request).get();
        record_span("net.warm_answer", t0, now_ns());
        result.check(answer.cache_hit && answer.sweep != nullptr &&
                         same_answer(*answer.sweep, *pool[pick].expected),
                     "layers: a warm wire answer differs");
    }

    // The codec on the workload's own messages.
    std::vector<std::string> submits;
    std::vector<std::string> encoded_results;
    std::uint64_t sink = 0;
    const std::size_t reps = std::max<std::size_t>(1, 20'000 / pool.size());
    {
        span_timer span{"net.encode_submit", 0, reps * pool.size()};
        for (std::size_t r = 0; r < reps; ++r) {
            for (const warm_entry& entry : pool) {
                std::string bytes = net::encode_submit({entry.digest, entry.request});
                sink += bytes.size();
                if (r == 0) {
                    submits.push_back(std::move(bytes));
                }
            }
        }
    }
    {
        span_timer span{"net.decode_submit", 0, reps * submits.size()};
        for (std::size_t r = 0; r < reps; ++r) {
            for (const std::string& bytes : submits) {
                sink += net::decode_submit(bytes).request.sweep.max_set_exp;
            }
        }
    }
    const std::size_t result_reps = std::max<std::size_t>(1, 2'000 / results.size());
    std::uint64_t result_bytes = 0;
    {
        span_timer span{"net.encode_result", 0, result_reps * results.size()};
        for (std::size_t r = 0; r < result_reps; ++r) {
            for (const serve::service_result& answer : results) {
                std::string bytes = net::encode_result(answer);
                sink += bytes.size();
                if (r == 0) {
                    result_bytes += bytes.size();
                    encoded_results.push_back(std::move(bytes));
                }
            }
        }
    }
    {
        span_timer span{"net.decode_result", 0, result_reps * encoded_results.size()};
        for (std::size_t r = 0; r < result_reps; ++r) {
            for (const std::string& bytes : encoded_results) {
                sink += net::decode_result(bytes).sweep->requests;
            }
        }
    }
    out.value("result_bytes_mean",
              static_cast<double>(result_bytes) / static_cast<double>(results.size()));
    out.value("codec_sink", sink);

    // Open loop over long-lived connections on the workload's warm
    // questions: two fixed rates, then the max-rate ladder.
    const std::vector<net::client*> conns = stack.connection_list();
    auto phase = [&](double rate, double duration_s, std::uint64_t tag) {
        open_loop_phase p =
            run_open_loop(conns, pool, rate, duration_s, mix_seed(config.seed, tag));
        result.attempted += p.due.size();
        result.failed += p.failed;
        if (p.failed > 0) {
            result.failures.push_back("layers: " + std::to_string(p.failed) +
                                      " open-loop answers failed, missed or differed");
        }
        write_open_loop(out, p);
    };
    out.begin_array("phases");
    phase(low_rps, fixed_rate_s, 420);
    phase(high_rps, fixed_rate_s, 421);
    out.end_array();
    out.begin_array("ladder");
    std::uint64_t tag = 430;
    for (const double rate : ladder_rps) {
        phase(rate, static_cast<double>(ladder_step_requests) / rate, tag++);
    }
    out.end_array();

    const proc_counts peak = sampler.peak();
    out.value("threads_peak", peak.threads);
    out.value("maps_peak", peak.maps);
    stack.stop();
}

// How much work the replayed requests share, the property shard-granular
// reuse and the result cache depend on: the share of requests that repeat
// an earlier one exactly, and the share of the distinct questions'
// configurations that another distinct question on the same trace also
// asks for.
void share_probe(const layer_inputs& inputs, reference_answers& refs,
                 json_writer& out) {
    std::set<std::size_t> asked;
    std::size_t requests = 0;
    for (const std::vector<std::size_t>& sequence : inputs.sequences) {
        requests += sequence.size();
        asked.insert(sequence.begin(), sequence.end());
    }
    std::set<std::tuple<std::size_t, std::uint32_t, std::uint32_t, std::uint32_t>>
        configs;
    std::size_t asked_configs = 0;
    for (const std::size_t pick : asked) {
        for (const core::config_outcome& o : refs.get(pick).outcomes()) {
            configs.emplace(inputs.queries[pick].trace, o.config.set_count,
                            o.config.associativity, o.config.block_size);
            ++asked_configs;
        }
    }
    out.value("repeat_frac", 1.0 - static_cast<double>(asked.size()) /
                                       static_cast<double>(requests));
    out.value("config_overlap_frac", 1.0 - static_cast<double>(configs.size()) /
                                               static_cast<double>(asked_configs));
}

} // namespace

void layer_probes(const run_config& config, const layer_inputs& inputs,
                  json_writer& out, outcome& result) {
    span_log::instance().set_enabled(true);
    reference_answers refs{inputs.traces, inputs.queries};
    out.begin_object("layers");
    simulator_probes(inputs, out, result, config.seed);
    serve_probe(config, inputs, refs, out, result);
    share_probe(inputs, refs, out);
    net_probe(config, inputs, refs, out, result);
    out.end_object();
}

} // namespace pb
