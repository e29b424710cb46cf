#include "support.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>

#include "net/server.hpp"

namespace pb {

// --- spans -------------------------------------------------------------------

namespace {

std::uint64_t thread_tag() {
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t tag = next.fetch_add(1);
    return tag;
}

} // namespace

span_log& span_log::instance() {
    static span_log log;
    return log;
}

void span_log::add(span_record record) {
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(std::move(record));
}

void span_log::write_chrome(const std::string& path) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error{"cannot write span file " + path};
    }
    const std::uint64_t origin =
        spans_.empty() ? 0
                       : std::min_element(spans_.begin(), spans_.end(),
                                          [](const auto& a, const auto& b) {
                                              return a.start_ns < b.start_ns;
                                          })
                             ->start_ns;
    out << "{\"traceEvents\":[";
    char buffer[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span_record& span = spans_[i];
        std::snprintf(buffer, sizeof buffer,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                      i == 0 ? "" : ",", span.name,
                      static_cast<unsigned long long>(span.tid),
                      static_cast<double>(span.start_ns - origin) * 1e-3,
                      static_cast<double>(span.dur_ns) * 1e-3);
        out << buffer << "\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"count\":" << span.count;
        for (const auto& [key, value] : span.args) {
            std::snprintf(buffer, sizeof buffer, ",\"%s\":%.17g", key, value);
            out << buffer;
        }
        out << "}}";
    }
    out << "\n]}\n";
}

span_timer::span_timer(const char* name, std::uint64_t parent,
                       std::uint64_t count)
    : active_{span_log::instance().enabled()} {
    if (active_) {
        record_.name = name;
        record_.parent = parent;
        record_.count = count;
        record_.id = span_log::instance().next_id();
        record_.start_ns = now_ns();
    }
}

void span_timer::end() {
    if (!active_) {
        return;
    }
    active_ = false;
    record_.dur_ns = now_ns() - record_.start_ns;
    record_.tid = thread_tag();
    span_log::instance().add(std::move(record_));
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t parent,
                 std::uint64_t count) {
    span_log& log = span_log::instance();
    if (!log.enabled()) {
        return;
    }
    span_record record;
    record.name = name;
    record.start_ns = start_ns;
    record.dur_ns = end_ns - start_ns;
    record.id = log.next_id();
    record.parent = parent;
    record.count = count;
    record.tid = thread_tag();
    log.add(std::move(record));
}

// --- JSON ----------------------------------------------------------------------

void json_writer::prefix(const char* key) {
    if (!first_.empty()) {
        if (!first_.back()) {
            out_ += ',';
        }
        first_.back() = false;
    }
    if (key != nullptr) {
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }
}

void json_writer::begin_object(const char* key) {
    prefix(key);
    out_ += '{';
    first_.push_back(true);
}

void json_writer::end_object() {
    out_ += '}';
    first_.pop_back();
}

void json_writer::begin_array(const char* key) {
    prefix(key);
    out_ += '[';
    first_.push_back(true);
}

void json_writer::end_array() {
    out_ += ']';
    first_.pop_back();
}

void json_writer::value(const char* key, double number) {
    prefix(key);
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", number);
    out_ += buffer;
}

void json_writer::value(const char* key, std::uint64_t number) {
    prefix(key);
    out_ += std::to_string(number);
}

void json_writer::value(const char* key, const std::string& text) {
    prefix(key);
    out_ += '"';
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
        }
        out_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    out_ += '"';
}

void json_writer::value(const char* key, bool flag) {
    prefix(key);
    out_ += flag ? "true" : "false";
}

void json_writer::numbers(const char* key, const std::vector<double>& values) {
    begin_array(key);
    for (const double v : values) {
        value(nullptr, v);
    }
    end_array();
}

void json_writer::numbers(const char* key,
                          const std::vector<std::uint64_t>& values) {
    begin_array(key);
    for (const std::uint64_t v : values) {
        value(nullptr, v);
    }
    end_array();
}

// --- /proc ---------------------------------------------------------------------

proc_counts read_proc(int pid) {
    const std::string dir = "/proc/" + std::to_string(pid);
    proc_counts counts;
    std::ifstream status{dir + "/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            counts.threads = std::stoull(line.substr(8));
            break;
        }
    }
    std::ifstream maps{dir + "/maps"};
    while (std::getline(maps, line)) {
        ++counts.maps;
    }
    return counts;
}

std::uint64_t peak_rss_kb(int pid) {
    std::ifstream status{"/proc/" + std::to_string(pid) + "/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stoull(line.substr(6));
        }
    }
    throw std::runtime_error{"no VmHWM for process " + std::to_string(pid)};
}

bool reset_peak_rss(int pid) {
    std::ofstream clear{"/proc/" + std::to_string(pid) + "/clear_refs"};
    clear << "5" << std::flush;
    return static_cast<bool>(clear);
}

proc_sampler::proc_sampler(int pid) : pid_{pid} {
    thread_ = std::thread{[this] {
        while (!stop_.load()) {
            const proc_counts now = read_proc(pid_);
            threads_.store(std::max(threads_.load(), now.threads));
            maps_.store(std::max(maps_.load(), now.maps));
            std::this_thread::sleep_for(std::chrono::milliseconds{20});
        }
    }};
}

proc_sampler::~proc_sampler() {
    stop_.store(true);
    thread_.join();
}

proc_counts proc_sampler::peak() const {
    return proc_counts{threads_.load(), maps_.load()};
}

// --- server process --------------------------------------------------------------

server_process::server_process() {
    // Close-on-exec, so no later server process inherits this one's stdin
    // and keeps it from ever seeing end-of-file.
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) {
        throw std::runtime_error{"pipe failed"};
    }
    if (pipe2(from_child, O_CLOEXEC) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        throw std::runtime_error{"pipe failed"};
    }
    char self[] = "/proc/self/exe";
    char mode[] = "--serve";
    char* const argv[] = {self, mode, nullptr};
    pid_ = fork();
    if (pid_ == 0) {
        // Only async-signal-safe calls between fork and exec.
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        execv(self, argv);
        _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    if (pid_ < 0) {
        close(from_child[0]);
        close(stdin_fd_);
        throw std::runtime_error{"fork failed"};
    }
    std::string line;
    char c = 0;
    while (read(from_child[0], &c, 1) == 1 && c != '\n') {
        line += c;
    }
    close(from_child[0]);
    if (line.empty()) {
        stop();
        throw std::runtime_error{"server process did not report a port"};
    }
    port_ = static_cast<std::uint16_t>(std::stoul(line));
}

server_process::~server_process() { stop(); }

void server_process::stop() {
    if (stdin_fd_ >= 0) {
        close(stdin_fd_);
        stdin_fd_ = -1;
    }
    if (pid_ > 0) {
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }
}

std::vector<net::client*> serving_stack::connection_list() const {
    std::vector<net::client*> list;
    for (const auto& c : clients) {
        list.push_back(c.get());
    }
    return list;
}

void serving_stack::stop() {
    for (auto& c : clients) {
        c->close();
    }
    clients.clear();
    if (server) {
        server->stop();
        server.reset();
    }
}

serving_stack start_stack(const std::vector<const trace::mem_trace*>& traces,
                          std::size_t clients) {
    serving_stack stack;
    stack.server = std::make_unique<server_process>();
    for (std::size_t c = 0; c < clients; ++c) {
        stack.clients.push_back(
            std::make_unique<net::client>("127.0.0.1", stack.server->port()));
    }
    for (const trace::mem_trace* records : traces) {
        stack.digests.push_back(stack.clients[0]->register_trace(*records));
    }
    return stack;
}

int serve_until_stdin_closes() {
    net::server server{net::server_options{}};
    std::printf("%u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    char buffer[64];
    while (read(STDIN_FILENO, buffer, sizeof buffer) > 0) {
    }
    server.stop();
    return 0;
}

// --- inputs --------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) noexcept {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

trace::mem_trace make_trace(trace::mediabench_app app, std::size_t records,
                            std::uint64_t seed) {
    trace::workload_generator generator{trace::mediabench_profile(app), seed};
    return generator.make(records);
}

std::vector<trace::mem_trace> make_corpus(std::uint64_t seed) {
    constexpr std::size_t corpus_records = 200'000;
    std::vector<trace::mem_trace> corpus;
    std::uint64_t tag = 0;
    for (const trace::mediabench_app app :
         {trace::mediabench_app::g721_enc, trace::mediabench_app::cjpeg,
          trace::mediabench_app::djpeg}) {
        corpus.push_back(make_trace(app, corpus_records, mix_seed(seed, tag++)));
    }
    return corpus;
}

std::vector<query> make_queries(std::size_t traces, std::uint64_t seed) {
    std::mt19937_64 rng{seed};
    // Sub-ranges of the paper's Table-1 grid (sweep_request::paper()); the
    // choice is an assumption, see perfbench/METRICS.md.
    const std::vector<std::uint32_t> blocks{8, 16, 32, 64};
    const std::vector<std::uint32_t> assocs{2, 4, 8};
    // A seeded subset of `from` with `size` elements, sorted.
    auto subset = [&rng](std::vector<std::uint32_t> from, std::size_t size) {
        std::shuffle(from.begin(), from.end(), rng);
        from.resize(size);
        std::sort(from.begin(), from.end());
        return from;
    };
    std::vector<query> out;
    for (std::size_t t = 0; t < traces; ++t) {
        for (std::size_t nb = 1; nb <= blocks.size(); ++nb) {
            for (std::size_t na = 1; na <= assocs.size(); ++na) {
                for (const unsigned exp : {8u, 10u, 12u}) {
                    query q;
                    q.trace = t;
                    q.request.sweep.max_set_exp = exp;
                    q.request.sweep.block_sizes = subset(blocks, nb);
                    q.request.sweep.associativities = subset(assocs, na);
                    out.push_back(std::move(q));
                }
            }
        }
    }
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

const core::sweep_result& reference_answers::get(std::size_t index) {
    auto it = answers_.find(index);
    if (it == answers_.end()) {
        const query& q = queries_[index];
        it = answers_
                 .emplace(index, core::run_sweep(*traces_[q.trace],
                                                 serve::canonical(q.request).sweep))
                 .first;
    }
    return it->second;
}

bool same_answer(const core::sweep_result& a, const core::sweep_result& b) {
    if (a.requests != b.requests || a.passes.size() != b.passes.size()) {
        return false;
    }
    for (std::size_t p = 0; p < a.passes.size(); ++p) {
        const core::dew_result& x = a.passes[p];
        const core::dew_result& y = b.passes[p];
        if (x.block_size() != y.block_size() ||
            x.associativity() != y.associativity() ||
            x.max_level() != y.max_level() || x.requests() != y.requests()) {
            return false;
        }
        for (unsigned level = 0; level <= x.max_level(); ++level) {
            if (x.misses(level, 1) != y.misses(level, 1) ||
                x.misses(level, x.associativity()) !=
                    y.misses(level, y.associativity())) {
                return false;
            }
        }
    }
    return true;
}

std::size_t grid_configs(const core::sweep_request& request) {
    std::size_t assocs = 1; // associativity 1 rides along every pass
    for (const std::uint32_t a : request.associativities) {
        assocs += a != 1 ? 1 : 0;
    }
    return request.block_sizes.size() * (request.max_set_exp + 1) * assocs;
}

// --- open loop -----------------------------------------------------------------

namespace {

struct pending {
    std::size_t index{0};
    std::size_t pick{0};
    std::uint64_t sent{0};
    net::submission answer;
    bool submitted{false};
};

// FIFO between a connection's sender and its receiver.
class pending_queue {
public:
    void push(pending item) {
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
    }
    void close() {
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            closed_ = true;
        }
        ready_.notify_one();
    }
    bool pop(pending& item) {
        std::unique_lock<std::mutex> lock{mutex_};
        ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) {
            return false;
        }
        item = std::move(items_.front());
        items_.pop_front();
        return true;
    }

private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<pending> items_;
    bool closed_{false};
};

} // namespace

open_loop_phase run_open_loop(const std::vector<net::client*>& connections,
                              const std::vector<warm_entry>& pool,
                              double rate, double duration_s,
                              std::uint64_t seed) {
    open_loop_phase phase;
    phase.rate = rate;
    phase.duration_s = duration_s;
    const std::size_t n = connections.size();

    // Per-connection Poisson schedules at rate / n, fixed before sending.
    struct arrival {
        std::uint64_t due;
        std::size_t pick;
    };
    std::vector<std::vector<arrival>> schedules(n);
    std::vector<std::size_t> first_index(n, 0);
    std::size_t total = 0;
    for (std::size_t c = 0; c < n; ++c) {
        std::mt19937_64 rng{mix_seed(seed, c)};
        std::exponential_distribution<double> gap{rate / static_cast<double>(n)};
        double t = gap(rng);
        while (t < duration_s) {
            schedules[c].push_back(
                {static_cast<std::uint64_t>(t * 1e9), rng() % pool.size()});
            t += gap(rng);
        }
        first_index[c] = total;
        total += schedules[c].size();
    }
    phase.due.assign(total, 0);
    phase.sent.assign(total, 0);
    phase.done.assign(total, 0);
    std::atomic<std::uint64_t> failed{0};

    span_timer phase_span{"loadgen.phase"};
    phase_span.arg("rate", rate);
    const std::uint64_t parent = phase_span.id();
    const std::uint64_t start = now_ns() + 1'000'000; // 1 ms head start
    std::vector<pending_queue> queues(n);
    std::vector<std::thread> threads;
    threads.reserve(2 * n);
    for (std::size_t c = 0; c < n; ++c) {
        threads.emplace_back([&, c] {
            try {
                for (std::size_t i = 0; i < schedules[c].size(); ++i) {
                    const arrival& a = schedules[c][i];
                    const std::size_t index = first_index[c] + i;
                    phase.due[index] = a.due;
                    std::this_thread::sleep_until(
                        std::chrono::steady_clock::time_point{
                            std::chrono::nanoseconds{start + a.due}});
                    pending item;
                    item.index = index;
                    item.pick = a.pick;
                    item.sent = now_ns();
                    phase.sent[index] = item.sent - start;
                    try {
                        item.answer = connections[c]->submit(
                            pool[a.pick].digest, pool[a.pick].request);
                        item.submitted = true;
                    } catch (...) {
                        item.submitted = false;
                    }
                    queues[c].push(std::move(item));
                }
            } catch (...) {
                failed.fetch_add(1);
            }
            queues[c].close();
        });
        threads.emplace_back([&, c] {
            pending item;
            while (queues[c].pop(item)) {
                bool ok = false;
                std::uint64_t finished = 0;
                try {
                    if (item.submitted) {
                        const serve::service_result answer = item.answer.get();
                        finished = now_ns();
                        ok = answer.cache_hit && answer.sweep != nullptr &&
                             same_answer(*answer.sweep, *pool[item.pick].expected);
                    }
                } catch (...) {
                    ok = false;
                }
                if (ok) {
                    phase.done[item.index] = finished - start;
                    record_span("loadgen.answer", item.sent, finished, parent);
                } else {
                    failed.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    phase.failed = failed.load();
    return phase;
}

void write_open_loop(json_writer& out, const open_loop_phase& phase) {
    out.begin_object();
    out.value("rate", phase.rate);
    out.value("duration_s", phase.duration_s);
    out.value("failed", phase.failed);
    out.numbers("due_ns", phase.due);
    out.numbers("sent_ns", phase.sent);
    out.numbers("done_ns", phase.done);
    out.end_object();
}

} // namespace pb
