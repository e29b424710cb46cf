// dse_overlap: a closed loop of `connections` clients against one loopback
// net::server (shipped defaults, its own process).  Each client asks a
// seeded sequence of exact questions about a small shallow-walk corpus;
// the grids overlap, hot questions repeat and race, so the server simulates
// (miss -> queue -> stream cache -> shard jobs -> insert) and coalesces.
// The server cannot empty its cache, so every epoch starts a fresh one and
// sees the same cold-cache questions; each epoch deals them in its own
// seeded order, so a run averages over many interleavings instead of
// resting on one.
#include <algorithm>
#include <random>

#include "workloads.hpp"

namespace pb {

namespace {

// The repeat share is an assumption of the benchmark, not observed DSE
// traffic (perfbench/METRICS.md); the traced run reports the measured share.
constexpr std::size_t dse_hot = 8;       // questions that repeat
constexpr std::size_t dse_repeats = 36;  // repeat requests per epoch

// Every distinct question once, plus repeats of a few hot ones, shuffled and
// dealt round-robin to the clients: the same computations in every order,
// with exact repeats and concurrent duplicates of the hot questions.
// Misses are the majority, so the median request is a simulation.
std::vector<std::vector<std::size_t>> dse_sequences(std::size_t distinct,
                                                    std::uint64_t seed) {
    std::mt19937_64 rng{seed};
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < distinct; ++i) {
        all.push_back(i);
    }
    for (std::size_t i = 0; i < dse_repeats; ++i) {
        all.push_back(rng() % dse_hot);
    }
    std::shuffle(all.begin(), all.end(), rng);
    std::vector<std::vector<std::size_t>> sequences(connections);
    for (std::size_t i = 0; i < all.size(); ++i) {
        sequences[i % connections].push_back(all[i]);
    }
    return sequences;
}

struct served {
    std::size_t pick{0};
    std::shared_ptr<const core::sweep_result> sweep;
};

struct epoch_numbers {
    double setup_s{0.0};
    double wall_s{0.0};
    std::size_t answers{0};
    std::uint64_t server_peak_rss_kb{0};
};

// One cold-cache epoch: fresh server, every client runs its sequence in a
// closed loop.  Latencies (us) are appended; answers are checked after the
// timed part.
epoch_numbers run_epoch(const std::vector<const trace::mem_trace*>& traces,
                        const std::vector<query>& queries,
                        const std::vector<std::vector<std::size_t>>& sequences,
                        reference_answers& references,
                        std::vector<double>& latency_us, outcome& result) {
    epoch_numbers numbers;
    const std::uint64_t t0 = now_ns();
    serving_stack stack = start_stack(traces, connections);
    numbers.setup_s = seconds_since(t0);

    std::vector<std::vector<served>> answers(connections);
    std::vector<std::vector<double>> latencies(connections);
    std::vector<std::uint64_t> errors(connections, 0);
    span_timer epoch_span{"dse.epoch"};
    const std::uint64_t parent = epoch_span.id();
    const std::uint64_t start = now_ns();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            for (const std::size_t pick : sequences[c]) {
                const query& q = queries[pick];
                try {
                    const std::uint64_t sent = now_ns();
                    net::submission pending =
                        stack.clients[c]->submit(stack.digests[q.trace], q.request);
                    const serve::service_result answer = pending.get();
                    const std::uint64_t done = now_ns();
                    record_span("net.answer", sent, done, parent);
                    latencies[c].push_back(static_cast<double>(done - sent) * 1e-3);
                    answers[c].push_back({pick, answer.sweep});
                } catch (...) {
                    ++errors[c];
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    numbers.wall_s = seconds_since(start);
    epoch_span.end();
    numbers.server_peak_rss_kb = peak_rss_kb(stack.server->pid());
    stack.stop();

    for (std::size_t c = 0; c < connections; ++c) {
        latency_us.insert(latency_us.end(), latencies[c].begin(),
                          latencies[c].end());
        numbers.answers += answers[c].size();
        for (std::uint64_t e = 0; e < errors[c]; ++e) {
            result.check(false, "dse_overlap: a request failed");
        }
        for (const served& s : answers[c]) {
            result.check(s.sweep != nullptr &&
                             same_answer(*s.sweep, references.get(s.pick)),
                         "dse_overlap: a served answer differs from run_sweep");
        }
    }
    return numbers;
}

} // namespace

void dse_overlap(const run_config& config, json_writer& out, outcome& result) {
    const std::vector<trace::mem_trace> corpus = make_corpus(mix_seed(config.seed, 200));
    std::vector<const trace::mem_trace*> traces;
    for (const trace::mem_trace& records : corpus) {
        traces.push_back(&records);
    }
    const std::vector<query> queries =
        make_queries(corpus.size(), mix_seed(config.seed, 201));
    auto order = [&](std::size_t epoch_index) {
        return dse_sequences(queries.size(), mix_seed(config.seed, 1000 + epoch_index));
    };
    reference_answers references{traces, queries};

    std::vector<double> setup_s;
    std::vector<double> epoch_s;
    std::vector<double> epoch_answers;
    std::vector<double> latency_us;
    std::vector<std::uint64_t> server_rss_kb;
    auto epoch = [&](std::size_t epoch_index) {
        const epoch_numbers numbers = run_epoch(traces, queries, order(epoch_index),
                                                references, latency_us, result);
        setup_s.push_back(numbers.setup_s);
        epoch_s.push_back(numbers.wall_s);
        epoch_answers.push_back(static_cast<double>(numbers.answers));
        server_rss_kb.push_back(numbers.server_peak_rss_kb);
        return numbers.wall_s;
    };
    if (!config.traced) {
        const std::uint64_t start = now_ns();
        while (epoch_s.size() < 4 || seconds_since(start) < config.seconds) {
            (void)epoch(epoch_s.size());
        }
    } else {
        // Paired epochs (one order per pair) with the span log off and on,
        // alternating which goes first, price the benchmark's own tracing.
        out.begin_array("overhead_pairs");
        for (int pair = 0; pair < 6; ++pair) {
            double seconds[2] = {0.0, 0.0};
            for (int k = 0; k < 2; ++k) {
                const bool traced = ((pair + k) % 2) == 1;
                span_log::instance().set_enabled(traced);
                seconds[traced ? 1 : 0] = epoch(static_cast<std::size_t>(pair));
            }
            out.numbers(nullptr, std::vector<double>{seconds[0], seconds[1]});
        }
        out.end_array();
    }
    out.numbers("setup_s", setup_s);
    out.numbers("epoch_s", epoch_s);
    out.numbers("epoch_answers", epoch_answers);
    out.numbers("latency_us", latency_us);
    out.numbers("server_peak_rss_kb", server_rss_kb);

    if (config.traced) {
        layer_inputs inputs;
        inputs.traces = traces;
        inputs.queries = queries;
        inputs.sequences = order(0);
        layer_probes(config, inputs, out, result);
    }
}

} // namespace pb
