// sweep_deep: serial run_sweep of the paper's Table-1 grid (525
// configurations, 28 passes) over an mpeg2_dec-profile trace.  The frame
// stores send many accesses deep into the DEW tree, so trace decode and the
// tree walk do nearly all the work and serve/net stay idle.  Serial, because
// the threaded sweep's run-to-run spread is several times the serial one's.
#include <random>

#include <sched.h>
#include <unistd.h>

#include "baseline/dinero_sim.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::size_t deep_records = 500'000;

// Sampled (S, A, B) configurations cross-checked against the Dinero-style
// per-configuration simulator.
constexpr std::size_t dinero_samples = 6;

// The paper grid is bit-identical on the cipar engine, and sampled
// configurations match the per-configuration simulator.
void check_reference(const trace::mem_trace& records,
                     const core::sweep_request& request,
                     const core::sweep_result& reference, std::uint64_t seed,
                     outcome& result) {
    core::sweep_request cipar_request = request;
    cipar_request.engine = core::sweep_engine::cipar;
    result.check(same_answer(core::run_sweep(records, cipar_request), reference),
                 "sweep_deep: cipar engine differs from dew on the paper grid");
    const std::vector<core::config_outcome> outcomes = reference.outcomes();
    std::mt19937_64 rng{mix_seed(seed, 101)};
    for (std::size_t i = 0; i < dinero_samples; ++i) {
        const core::config_outcome& sample = outcomes[rng() % outcomes.size()];
        baseline::dinero_sim sim{sample.config};
        sim.simulate(records);
        result.check(sim.stats().misses == sample.misses,
                     "sweep_deep: dinero_sim differs at S=" +
                         std::to_string(sample.config.set_count) + " A=" +
                         std::to_string(sample.config.associativity) + " B=" +
                         std::to_string(sample.config.block_size));
    }
}

// Moves the calling thread round the CPUs it may run on, one per call to
// next(), and restores its original CPU set when destroyed.  vCPUs of a
// shared host differ in speed by up to 2x, and which one is slow changes
// over time; left to the scheduler, a serial sweep stays on one vCPU for a
// whole run, so runs differ by that vCPU's luck.  Rotating gives every run
// the same mix of CPUs.
class cpu_rotation {
public:
    cpu_rotation() {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &original_)) {
                    cpus_.push_back(cpu);
                }
            }
        }
    }
    ~cpu_rotation() {
        if (!cpus_.empty()) {
            sched_setaffinity(0, sizeof original_, &original_);
        }
    }
    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    void next() {
        if (cpus_.empty()) {
            return;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t turn_{0};
};

} // namespace

void sweep_deep(const run_config& config, json_writer& out, outcome& result) {
    // Set-up: generating the trace is the work a user pays before sweeping.
    // Done five times; the median is reported.
    std::vector<double> setup_s;
    trace::mem_trace records;
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t t0 = now_ns();
        records = make_trace(trace::mediabench_app::mpeg2_dec, deep_records,
                             mix_seed(config.seed, 100));
        setup_s.push_back(seconds_since(t0));
    }
    const core::sweep_request request = core::sweep_request::paper();
    out.numbers("setup_s", setup_s);
    out.value("records", static_cast<std::uint64_t>(records.size()));
    out.value("configs", static_cast<std::uint64_t>(grid_configs(request)));

    // The reference answer, untimed: every later sweep must equal it.
    const core::sweep_result reference = core::run_sweep(records, request);

    if (!config.traced) {
        // Timed sweeps until the window closes (at least five), each on the
        // next CPU.  The gates run after the window, so their memory stays
        // out of its peak.
        std::vector<double> sweep_s;
        const int self = static_cast<int>(getpid());
        out.value("peak_rss_timed_window", reset_peak_rss(self));
        cpu_rotation cpus;
        const std::uint64_t start = now_ns();
        while (sweep_s.size() < 5 || seconds_since(start) < config.seconds) {
            cpus.next();
            const std::uint64_t t0 = now_ns();
            const core::sweep_result answer = core::run_sweep(records, request);
            sweep_s.push_back(seconds_since(t0));
            result.check(same_answer(answer, reference),
                         "sweep_deep: a timed sweep differs from the reference");
        }
        out.numbers("sweep_s", sweep_s);
        out.value("peak_rss_kb", peak_rss_kb(self));
        check_reference(records, request, reference, config.seed, result);
        return;
    }
    check_reference(records, request, reference, config.seed, result);

    // Traced run: paired sweeps, an untraced run_sweep against the stepped
    // session with its spans recorded, alternating which goes first and
    // both on one CPU, price the benchmark's own tracing.
    span_log::instance().set_enabled(true);
    out.begin_array("overhead_pairs");
    {
        cpu_rotation cpus;
        for (int pair = 0; pair < 6; ++pair) {
            cpus.next();
            double seconds[2] = {0.0, 0.0};
            for (int k = 0; k < 2; ++k) {
                const bool traced = ((pair + k) % 2) == 1;
                const std::uint64_t t0 = now_ns();
                core::sweep_result answer;
                if (traced) {
                    span_timer sweep_span{"dew.sweep_unit"};
                    answer = stepped_sweep(records, request, sweep_span.id());
                } else {
                    answer = core::run_sweep(records, request);
                }
                seconds[traced ? 1 : 0] = seconds_since(t0);
                result.check(same_answer(answer, reference),
                             "sweep_deep: a traced sweep differs from the reference");
            }
            out.numbers(nullptr, std::vector<double>{seconds[0], seconds[1]});
        }
    }
    out.end_array();

    layer_inputs inputs;
    inputs.traces.push_back(&records);
    query paper;
    paper.request.sweep = request;
    inputs.queries.push_back(paper);
    // The serving replay asks the paper question four times in a row: one
    // computation, then three cache hits.
    inputs.sequences.push_back({0, 0, 0, 0});
    layer_probes(config, inputs, out, result);
}

} // namespace pb
