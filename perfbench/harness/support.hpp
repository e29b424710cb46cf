// Shared pieces of the benchmark harness: the clock, the benchmark's own span
// log, a JSON writer for the raw report, /proc probes, the server process,
// seeded inputs, reference answers and the open-loop load generator that
// drives a net::server through net::client connections.
//
// The harness reports raw samples only; perfbench/stats.py turns them into
// the named metrics, so every statistic is computed (and self-tested) in one
// place.
#ifndef PERFBENCH_SUPPORT_HPP
#define PERFBENCH_SUPPORT_HPP

#include <atomic>
#include <chrono>
#include <map>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "serve/key.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"
#include "trace/record.hpp"

namespace pb {

using namespace dew;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans: one per layer call the harness makes, kept in
// memory while the run lasts and written out as a Chrome trace at its end.
// Disabled (the end-to-end runs), a span costs one relaxed load.

struct span_record {
    const char* name{""};
    std::uint64_t start_ns{0};
    std::uint64_t dur_ns{0};
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::uint64_t count{0}; // work items the call covered (records, accesses)
    std::uint64_t tid{0};
    std::vector<std::pair<const char*, double>> args;
};

class span_log {
public:
    [[nodiscard]] static span_log& instance();

    void set_enabled(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return on_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t next_id() noexcept {
        return ids_.fetch_add(1, std::memory_order_relaxed);
    }
    void add(span_record record);
    // Chrome trace-event JSON ("X" events, microsecond floats).
    void write_chrome(const std::string& path) const;

private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> ids_{1};
    mutable std::mutex mutex_;
    std::vector<span_record> spans_;
};

// Times the enclosing scope as one span when the log is enabled.
class span_timer {
public:
    explicit span_timer(const char* name, std::uint64_t parent = 0,
                        std::uint64_t count = 0);
    ~span_timer() { end(); }
    span_timer(const span_timer&) = delete;
    span_timer& operator=(const span_timer&) = delete;

    void set_count(std::uint64_t count) noexcept { record_.count = count; }
    void arg(const char* key, double value) {
        if (active_) {
            record_.args.emplace_back(key, value);
        }
    }
    [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }
    void discard() noexcept { active_ = false; }
    void end();

private:
    bool active_;
    span_record record_;
};

// Records a span whose endpoints were measured elsewhere (request spans
// timed on a load generator's threads).
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t parent = 0, std::uint64_t count = 0);

// ---------------------------------------------------------------------------
// Minimal JSON writer: callers emit keys and values in order; commas are
// managed here.

class json_writer {
public:
    void begin_object(const char* key = nullptr);
    void end_object();
    void begin_array(const char* key = nullptr);
    void end_array();
    void value(const char* key, double number);
    void value(const char* key, std::uint64_t number);
    void value(const char* key, const std::string& text);
    void value(const char* key, bool flag);
    void numbers(const char* key, const std::vector<double>& values);
    void numbers(const char* key, const std::vector<std::uint64_t>& values);
    [[nodiscard]] const std::string& str() const noexcept { return out_; }

private:
    void prefix(const char* key);
    std::string out_;
    std::vector<bool> first_;
};

// ---------------------------------------------------------------------------
// Resource probes.

struct proc_counts {
    std::uint64_t threads{0};
    std::uint64_t maps{0};
};
[[nodiscard]] proc_counts read_proc(int pid);

// Peak resident set (VmHWM) of a live process, and its reset, so a peak can
// cover just the timed window.  The reset returns false where the kernel
// refuses it; the peak then covers the process's whole life.
[[nodiscard]] std::uint64_t peak_rss_kb(int pid);
bool reset_peak_rss(int pid);

// Samples /proc/<pid> every few milliseconds while alive and keeps the peaks.
class proc_sampler {
public:
    explicit proc_sampler(int pid);
    ~proc_sampler();
    proc_sampler(const proc_sampler&) = delete;
    proc_sampler& operator=(const proc_sampler&) = delete;
    [[nodiscard]] proc_counts peak() const;

private:
    int pid_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> threads_{0};
    std::atomic<std::uint64_t> maps_{0};
    std::thread thread_;
};

// A net::server with its shipped defaults in a child process (this binary
// run with --serve), so the clients' threads never share a process with the
// server's.  The child exits when its stdin closes; the destructor
// closes it and reaps the child.
class server_process {
public:
    server_process();
    ~server_process();
    server_process(const server_process&) = delete;
    server_process& operator=(const server_process&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] int pid() const noexcept { return pid_; }
    // Closes the child's stdin and waits for it to exit.
    void stop();

private:
    int pid_{-1};
    int stdin_fd_{-1};
    std::uint16_t port_{0};
};

// A server process with `clients` connections to it and the given traces
// registered (digests[i] names traces[i]).
struct serving_stack {
    std::unique_ptr<server_process> server;
    std::vector<std::unique_ptr<net::client>> clients;
    std::vector<trace::trace_digest> digests;

    [[nodiscard]] std::vector<net::client*> connection_list() const;
    // Closes every connection, then stops the server process.
    void stop();
};

[[nodiscard]] serving_stack
start_stack(const std::vector<const trace::mem_trace*>& traces,
            std::size_t clients);

// The --serve mode of the harness: runs the server, reports its port on
// stdout, serves until stdin closes.
int serve_until_stdin_closes();

// ---------------------------------------------------------------------------
// Seeded inputs.  Every workload input derives from (--seed, tag) so a seed
// fixes all of them and the program sees only the generated records.

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) noexcept;

[[nodiscard]] trace::mem_trace make_trace(trace::mediabench_app app,
                                          std::size_t records,
                                          std::uint64_t seed);

// The serving workload's corpus: shallow-walk profiles (g721_enc, cjpeg,
// djpeg), one trace each.
[[nodiscard]] std::vector<trace::mem_trace> make_corpus(std::uint64_t seed);

// One distinct question about one corpus trace.
struct query {
    std::size_t trace{0};
    serve::service_request request;
};

// Distinct exact queries with overlapping grids: on every trace, one per
// grid shape, i.e. every combination of 1..4 block sizes from {8,16,32,64},
// 1..3 associativities from {2,4,8} and a max_set_exp from {8,10,12}.  The
// seed picks the subsets and shuffles the order; the fixed set of shapes
// keeps the total simulation work nearly the same for every seed.
[[nodiscard]] std::vector<query> make_queries(std::size_t traces,
                                              std::uint64_t seed);

// Direct run_sweep answers to queries (query::trace indexes `traces`),
// computed once per query on first use, outside every timed window.  Both
// vectors must outlive the cache.
class reference_answers {
public:
    reference_answers(const std::vector<const trace::mem_trace*>& traces,
                      const std::vector<query>& queries)
        : traces_{traces}, queries_{queries} {}

    [[nodiscard]] const core::sweep_result& get(std::size_t index);

private:
    const std::vector<const trace::mem_trace*>& traces_;
    const std::vector<query>& queries_;
    std::map<std::size_t, core::sweep_result> answers_;
};

// Answers compare on every miss and request count; the timing field is not
// part of an answer.
[[nodiscard]] bool same_answer(const core::sweep_result& a,
                               const core::sweep_result& b);

// Number of (S, A, B) configurations a request's grid covers.
[[nodiscard]] std::size_t grid_configs(const core::sweep_request& request);

// ---------------------------------------------------------------------------
// Load generators over net::client connections.

// A warm query with the answer the cache already holds.
struct warm_entry {
    trace::trace_digest digest{};
    serve::service_request request;
    std::shared_ptr<const core::sweep_result> expected;
};

// One open-loop phase: Poisson arrivals at `rate` per second in total, split
// evenly over the connections, for `duration_s`.  Times are ns relative to
// the phase start; done is 0 for a request that failed.
struct open_loop_phase {
    double rate{0.0};
    double duration_s{0.0};
    std::vector<std::uint64_t> due;
    std::vector<std::uint64_t> sent;
    std::vector<std::uint64_t> done;
    std::uint64_t failed{0}; // errors, non-hits and wrong answers
};

[[nodiscard]] open_loop_phase
run_open_loop(const std::vector<net::client*>& connections,
              const std::vector<warm_entry>& pool, double rate,
              double duration_s, std::uint64_t seed);

void write_open_loop(json_writer& out, const open_loop_phase& phase);

} // namespace pb

#endif // PERFBENCH_SUPPORT_HPP
