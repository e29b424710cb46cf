// dew_serve — the sweep service as a command-line tool: replay a request
// workload file against a trace corpus and watch the cache, coalescing and
// tiers absorb it.
//
//   dew_serve <workload-file> [options]
//     --workers N         worker threads of the pool     (default 2)
//     --queue N           bounded job-queue capacity     (default 256)
//     --cache N           result-cache entry capacity    (default 1024)
//     --deadline-ms N     per-request deadline in milliseconds (0 = none)
//     --max-retries N     transient-fault retries per flight (default 2)
//     --degrade           shed exact load to the estimate tier past the
//                         queue high-watermark (overflow_policy::degrade)
//     --save FILE         persist the exact result cache on exit
//                         (written atomically: FILE.tmp then rename)
//     --load FILE         warm the cache from a previous --save; a damaged
//                         file is salvaged, not fatal
//     --demo              run a built-in workload instead of a file
//     --serve PORT        no workload: expose the service on a TCP port
//                         ("DSNW" wire protocol, src/net/).  PORT 0 picks
//                         an ephemeral port; the bound port is printed on
//                         stdout.  Blocks until SIGINT/SIGTERM, then drains,
//                         honours --save and exits
//     --corpus DIR        with --serve: digest-addressed trace store
//                         (trace/corpus.hpp); traces registered over the
//                         wire are persisted there, and a submit for an
//                         unknown digest is hydrated from it
//     --connect HOST:PORT replay the workload against a remote
//                         dew_serve --serve instance instead of an
//                         in-process service; `fault` directives need the
//                         local injection hook and are rejected
//     --route LIST        with --serve: run the consistent-hash router
//                         front (net/router_server.hpp) over the
//                         comma-separated HOST:PORT backend list instead
//                         of a local service.  Clients talk to the fleet
//                         through the same wire surface; get_metrics
//                         answers the aggregated per-backend + fleet-total
//                         scrape
//     --node-id N         with --serve: this server's node id, stamped
//                         into every wide per-request event (default 0)
//     --stats-interval-ms N
//                         with --serve: print a one-line stats/latency
//                         summary every N ms (0 = off, the default)
//     --trace FILE        on shutdown (SIGINT and SIGTERM alike) or after
//                         a replay: dump the collected spans as a Chrome
//                         trace_event JSON file (Perfetto /
//                         chrome://tracing loadable), pid-tagged with this
//                         process's pid so fleet traces concatenate
//     --metrics           with --connect: fetch the server's metrics
//                         snapshot over the wire (get_metrics), print it
//                         in the stable text format, and exit
//     --events            with --connect: fetch the server's wide
//                         per-request event ring (get_events), print it
//                         as JSONL, and exit
//
// Workload file format (one directive per line, '#' comments):
//   trace <name> <mediabench-app> <records>
//       registers a generated trace under <name> (apps: cjpeg djpeg
//       g721_enc g721_dec mpeg2_enc mpeg2_dec)
//   request <trace> <mode> <max-set-exp> <blocks> <assocs> [xN]
//       submits a fast DEW sweep request (repeated N times with xN): mode
//       is exact|representative, blocks/assocs are comma-separated
//       power-of-two lists
//   fault <count>
//       arms the fault-injection hook: the next <count> first-attempt
//       shard-job executions throw a transient I/O fault, exercising the
//       retry policy (retries are never re-faulted, so --max-retries >= 1
//       keeps the workload succeeding)
//
// Example:
//   trace jpeg cjpeg 200000
//   request jpeg exact 10 16,32,64 2,4 x8
//   fault 2
//   request jpeg representative 10 16,32,64 2,4
//
// All requests are submitted asynchronously in file order, then drained;
// the summary shows how many answers came from simulation, the cache, or a
// coalesced neighbour, how many were degraded, retried, timed out or
// failed.  Failed requests are tallied and reported, not fatal: one bad
// line must not discard the rest of the replay's answers.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "net/client.hpp"
#include "net/router_server.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: dew_serve <workload-file> [--workers N] "
                 "[--queue N] [--cache N] [--deadline-ms N] "
                 "[--max-retries N] [--degrade] [--save FILE] "
                 "[--load FILE] [--connect HOST:PORT] [--trace FILE]\n"
                 "       dew_serve --demo [--connect HOST:PORT] "
                 "[--trace FILE]\n"
                 "       dew_serve --serve PORT [--corpus DIR] "
                 "[--node-id N] [--stats-interval-ms N] [--trace FILE] "
                 "[service options]\n"
                 "       dew_serve --serve PORT --route H:P,H:P,... "
                 "[--trace FILE]\n"
                 "       dew_serve --metrics --connect HOST:PORT\n"
                 "       dew_serve --events --connect HOST:PORT\n");
    std::exit(2);
}

// --serve blocks until one of these arrives; the handler only sets a flag
// so the drain/save/stop sequence runs on the main thread.
volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop_signal(int) { g_stop_requested = 1; }

// The `fault` directive's ammunition: how many flights still owe their
// first attempt a transient fault.  Shared with the service's fault hook,
// which runs on worker threads.
struct fault_plan {
    std::atomic<std::int64_t> remaining{0};
    std::atomic<std::uint64_t> injected{0};
};

std::vector<std::uint32_t> parse_list(const std::string& text) {
    std::vector<std::uint32_t> values;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            text.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        // stoul alone accepts "16x" as 16; a typo silently changing the
        // replayed workload would corrupt every absorption number, so the
        // whole element must parse.
        std::size_t consumed = 0;
        const unsigned long value = std::stoul(item, &consumed);
        if (consumed != item.size()) {
            throw std::invalid_argument{"bad list element: " + item};
        }
        values.push_back(static_cast<std::uint32_t>(value));
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    if (values.empty()) {
        throw std::invalid_argument{"empty list: " + text};
    }
    return values;
}

trace::mediabench_app parse_app(const std::string& name) {
    const auto lowered = [](std::string text) {
        for (char& c : text) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        return text;
    };
    for (const trace::mediabench_app app : trace::all_mediabench_apps) {
        if (lowered(name) == lowered(trace::short_name(app))) {
            return app;
        }
    }
    throw std::invalid_argument{"unknown mediabench app: " + name};
}

const char* demo_workload = R"(# built-in demo: one corpus, duplicate-heavy request storm
trace jpeg cjpeg 200000
trace mpeg mpeg2_enc 200000
request jpeg exact 10 16,32,64 2,4 x6
request jpeg exact 8 16,32 2 x4
request mpeg exact 10 16,32,64 2,4 x6
request jpeg representative 10 16,32,64 2,4 x3
# respelled duplicates of the first request: same cache entries
request jpeg exact 10 64,32,16 4,2 x4
)";

struct pending {
    std::string line;
    // Blocks for the answer; copyable so one drain loop serves both the
    // in-process serve::submission and the wire's net::submission.
    std::function<serve::service_result()> get;
};

// Where the replayed workload goes: the in-process service, or a remote
// one over --connect.  Both shapes return the trace's content digest from
// add_trace and a blocking getter from submit, so replay() cannot tell
// them apart — which is the point of the wire protocol.
struct sweep_sink {
    std::function<trace::trace_digest(const std::string&, trace::mem_trace)>
        add_trace;
    std::function<std::function<serve::service_result()>(
        const std::string&, const serve::service_request&)>
        submit;
    bool local{true};
};

struct replay_options {
    std::chrono::nanoseconds deadline{0};
    std::shared_ptr<fault_plan> faults;
};

void replay(std::istream& workload, const sweep_sink& sink,
            const replay_options& replay_opts,
            std::vector<pending>& submitted) {
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(workload, line)) {
        ++line_number;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream fields{line};
        std::string directive;
        if (!(fields >> directive)) {
            continue; // blank or comment
        }
        try {
            if (directive == "trace") {
                std::string name;
                std::string app;
                std::uint64_t records = 0;
                if (!(fields >> name >> app >> records)) {
                    throw std::invalid_argument{"malformed trace directive"};
                }
                const trace::trace_digest digest = sink.add_trace(
                    name, trace::make_mediabench_trace(
                              parse_app(app),
                              static_cast<std::size_t>(records)));
                std::printf("trace    %-8s %8llu records  digest %s\n",
                            name.c_str(),
                            static_cast<unsigned long long>(records),
                            to_string(digest).c_str());
            } else if (directive == "request") {
                std::string trace_name;
                std::string mode;
                unsigned max_set_exp = 0;
                std::string blocks;
                std::string assocs;
                if (!(fields >> trace_name >> mode >> max_set_exp >> blocks >>
                      assocs)) {
                    throw std::invalid_argument{
                        "malformed request directive"};
                }
                // The optional tail must be exactly xN with N >= 1; a typo
                // silently changing the replayed workload would corrupt
                // every absorption number downstream.
                std::size_t repeat = 1;
                std::string tail;
                if (fields >> tail) {
                    if (tail.size() < 2 || tail[0] != 'x' ||
                        tail.find_first_not_of("0123456789", 1) !=
                            std::string::npos) {
                        throw std::invalid_argument{
                            "bad repeat suffix (want xN): " + tail};
                    }
                    repeat = std::stoul(tail.substr(1));
                    if (repeat == 0) {
                        throw std::invalid_argument{
                            "repeat suffix x0 would submit nothing"};
                    }
                    std::string extra;
                    if (fields >> extra) {
                        throw std::invalid_argument{
                            "trailing fields after repeat suffix: " + extra};
                    }
                }
                serve::service_request request;
                request.sweep.max_set_exp = max_set_exp;
                request.sweep.block_sizes = parse_list(blocks);
                request.sweep.associativities = parse_list(assocs);
                if (mode == "representative") {
                    request.mode = serve::service_mode::representative;
                    request.phase.interval_records = 8192;
                    request.warmup_records = 4096;
                } else if (mode != "exact") {
                    throw std::invalid_argument{"unknown mode: " + mode};
                }
                request.deadline = replay_opts.deadline;
                for (std::size_t i = 0; i < repeat; ++i) {
                    submitted.push_back(
                        {line, sink.submit(trace_name, request)});
                }
            } else if (directive == "fault") {
                std::int64_t count = 0;
                if (!(fields >> count) || count < 0) {
                    throw std::invalid_argument{"malformed fault directive"};
                }
                if (!sink.local) {
                    throw std::invalid_argument{
                        "fault injection needs the local hook; "
                        "drop --connect"};
                }
                replay_opts.faults->remaining.fetch_add(count);
                std::printf("fault    armed for %lld shard-job "
                            "executions\n",
                            static_cast<long long>(count));
            } else {
                throw std::invalid_argument{"unknown directive: " +
                                            directive};
            }
        } catch (const std::exception& error) {
            std::fprintf(stderr, "dew_serve: line %zu: %s\n", line_number,
                         error.what());
            std::exit(1);
        }
    }
}

// Warm the cache from --load.  Salvage mode: a cache file damaged by a
// crash mid-save warms the cache with its verified prefix instead of
// killing the run.  Returns an exit code, 0 on success.
int warm_cache(serve::service& service, const std::string& load_path) {
    std::ifstream in{load_path, std::ios::binary};
    if (!in) {
        std::fprintf(stderr, "dew_serve: cannot read %s\n",
                     load_path.c_str());
        return 1;
    }
    const serve::cache_load_report report =
        service.load_cache(in, serve::load_mode::salvage);
    std::printf("cache    warmed with %zu columns from %s\n", report.loaded,
                load_path.c_str());
    if (report.salvaged) {
        std::fprintf(stderr,
                     "dew_serve: %s was damaged: salvaged %zu columns, "
                     "skipped %zu (first fault at byte %zu)\n",
                     load_path.c_str(), report.loaded, report.skipped,
                     report.salvaged_at);
    }
    return 0;
}

// Atomic --save: stage into FILE.tmp and rename over FILE, so a crash
// mid-save can corrupt only the staging file — the previous snapshot
// survives intact (and even a torn FILE.tmp salvages).  Returns an exit
// code, 0 on success.
int save_cache(serve::service& service, const std::string& save_path) {
    const std::string staging = save_path + ".tmp";
    {
        std::ofstream out{staging, std::ios::binary | std::ios::trunc};
        if (!out) {
            std::fprintf(stderr, "dew_serve: cannot write %s\n",
                         staging.c_str());
            return 1;
        }
        service.save_cache(out);
        out.flush();
        if (!out) {
            std::fprintf(stderr, "dew_serve: write to %s failed\n",
                         staging.c_str());
            return 1;
        }
    }
    if (std::rename(staging.c_str(), save_path.c_str()) != 0) {
        std::fprintf(stderr, "dew_serve: cannot rename %s to %s\n",
                     staging.c_str(), save_path.c_str());
        return 1;
    }
    std::printf("cache    saved to %s\n", save_path.c_str());
    return 0;
}

// One line of operational truth: the counters that say whether the server
// is absorbing (cache/coalescing), queueing, or drowning, plus the submit
// latency percentiles from the registry's merged surface.
void print_stats_line(const serve::service& service) {
    const serve::service_stats stats = service.stats();
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    for (const obs::metric& m : obs::registry::instance().snapshot()) {
        if (m.name == "serve.submit_ns") {
            p50 = m.p50_ns;
            p95 = m.p95_ns;
            p99 = m.p99_ns;
        }
    }
    std::printf("stats    submitted %llu, completed %llu, cache hits %llu, "
                "coalesced %llu, queue depth %llu, inflight %llu, "
                "submit p50/p95/p99 %llu/%llu/%llu ns\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.queue_depth),
                static_cast<unsigned long long>(stats.inflight_flights),
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p95),
                static_cast<unsigned long long>(p99));
    std::fflush(stdout);
}

// --trace: the collected spans as one Perfetto-loadable document.
// pid-tagged with the real process id so per-process dumps from a fleet
// (client, router, backends) concatenate into one cross-hop timeline.
// Returns an exit code, 0 on success.
int dump_trace(const std::string& trace_path, const char* process_name) {
    const std::string json = obs::chrome_trace_json(
        obs::recorder::instance().collect(), process_name,
        static_cast<std::uint64_t>(::getpid()));
    std::ofstream out{trace_path, std::ios::binary | std::ios::trunc};
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    out.flush();
    if (!out) {
        std::fprintf(stderr, "dew_serve: cannot write %s\n",
                     trace_path.c_str());
        return 1;
    }
    std::printf("trace    %zu bytes of spans written to %s\n", json.size(),
                trace_path.c_str());
    return 0;
}

// The shutdown metrics summary: the whole registry surface in the stable
// text format, printed on SIGINT and SIGTERM alike so an interactive ^C
// leaves the same operational record as an orchestrated stop.
void print_metrics_summary() {
    std::printf("metrics  final registry snapshot:\n");
    std::fputs(obs::metrics_text(obs::registry::instance().snapshot())
                   .c_str(),
               stdout);
    std::fflush(stdout);
}

// --serve: expose the service on a TCP port until SIGINT/SIGTERM.
int run_server(const serve::service_options& options, std::uint16_t port,
               const std::string& corpus_dir, const std::string& load_path,
               const std::string& save_path, unsigned stats_interval_ms,
               const std::string& trace_path) {
    net::server_options server_opts;
    server_opts.port = port;
    server_opts.service = options;
    server_opts.corpus_dir = corpus_dir;
    std::optional<net::server> server_storage;
    try {
        server_storage.emplace(std::move(server_opts));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "dew_serve: %s\n", error.what());
        return 1;
    }
    net::server& server = *server_storage;
    if (!load_path.empty()) {
        if (const int code = warm_cache(server.local_service(), load_path)) {
            return code;
        }
    }
    // The port line is the startup handshake: scripts run `--serve 0`,
    // read the ephemeral pick from stdout, and connect to it.
    std::printf("dew_serve: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    unsigned since_stats_ms = 0;
    while (!g_stop_requested) {
        std::this_thread::sleep_for(std::chrono::milliseconds{100});
        if (stats_interval_ms == 0) {
            continue;
        }
        since_stats_ms += 100;
        if (since_stats_ms >= stats_interval_ms) {
            since_stats_ms = 0;
            print_stats_line(server.local_service());
        }
    }

    // Drain: stop() settles every in-flight submission before returning,
    // so the saved cache holds everything the server answered — and the
    // trace dump holds every span.
    server.stop();
    if (!save_path.empty()) {
        if (const int code = save_cache(server.local_service(), save_path)) {
            return code;
        }
    }
    if (!trace_path.empty()) {
        if (const int code = dump_trace(trace_path, "dew_serve")) {
            return code;
        }
    }
    print_metrics_summary();
    const serve::service_stats stats = server.local_service().stats();
    std::printf("served   %llu submissions: %llu cache hits, %llu "
                "coalesced, %llu computations\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.computations));
    return 0;
}

// --serve PORT --route H:P,...: the router front over a backend fleet.
int run_router(std::uint16_t port, const std::string& route_spec,
               const std::string& trace_path) {
    net::router_server_options opts;
    opts.port = port;
    std::size_t start = 0;
    while (start <= route_spec.size()) {
        const std::size_t comma = route_spec.find(',', start);
        const std::string item = route_spec.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        const std::size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= item.size()) {
            std::fprintf(stderr, "dew_serve: bad backend %s in --route "
                         "(want HOST:PORT)\n",
                         item.c_str());
            return 2;
        }
        const unsigned long backend_port = std::stoul(item.substr(colon + 1));
        if (backend_port == 0 || backend_port > 65535) {
            std::fprintf(stderr, "dew_serve: backend port out of range "
                         "in %s\n",
                         item.c_str());
            return 2;
        }
        opts.route.backends.push_back(
            {item.substr(0, colon),
             static_cast<std::uint16_t>(backend_port)});
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    std::optional<net::router_server> front_storage;
    try {
        front_storage.emplace(std::move(opts));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "dew_serve: %s\n", error.what());
        return 1;
    }
    net::router_server& front = *front_storage;
    std::printf("dew_serve: routing %zu backends on 127.0.0.1:%u\n",
                front.route().backend_count(),
                static_cast<unsigned>(front.port()));
    std::fflush(stdout);

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    while (!g_stop_requested) {
        std::this_thread::sleep_for(std::chrono::milliseconds{100});
    }
    front.stop();
    if (!trace_path.empty()) {
        if (const int code = dump_trace(trace_path, "dew_route")) {
            return code;
        }
    }
    print_metrics_summary();
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    std::string workload_path;
    std::string save_path;
    std::string load_path;
    std::string connect_spec;
    std::string corpus_dir;
    std::string route_spec;
    std::optional<std::uint16_t> serve_port;
    bool demo = false;
    bool metrics_only = false;
    bool events_only = false;
    unsigned stats_interval_ms = 0;
    std::string trace_path;
    serve::service_options options;
    replay_options replay_opts;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    usage();
                }
                return argv[++i];
            };
            if (arg == "--workers") {
                options.workers =
                    static_cast<unsigned>(std::stoul(value()));
            } else if (arg == "--queue") {
                options.queue_capacity = std::stoul(value());
            } else if (arg == "--cache") {
                options.cache.capacity = std::stoul(value());
            } else if (arg == "--deadline-ms") {
                replay_opts.deadline = std::chrono::milliseconds{
                    std::stoul(value())};
            } else if (arg == "--max-retries") {
                options.max_retries =
                    static_cast<unsigned>(std::stoul(value()));
            } else if (arg == "--degrade") {
                options.overflow = serve::overflow_policy::degrade;
            } else if (arg == "--save") {
                save_path = value();
            } else if (arg == "--load") {
                load_path = value();
            } else if (arg == "--serve") {
                const unsigned long port = std::stoul(value());
                if (port > 65535) {
                    throw std::invalid_argument{"port out of range"};
                }
                serve_port = static_cast<std::uint16_t>(port);
            } else if (arg == "--connect") {
                connect_spec = value();
            } else if (arg == "--corpus") {
                corpus_dir = value();
            } else if (arg == "--route") {
                route_spec = value();
            } else if (arg == "--node-id") {
                options.node_id = std::stoull(value());
            } else if (arg == "--demo") {
                demo = true;
            } else if (arg == "--stats-interval-ms") {
                stats_interval_ms =
                    static_cast<unsigned>(std::stoul(value()));
            } else if (arg == "--trace") {
                trace_path = value();
            } else if (arg == "--metrics") {
                metrics_only = true;
            } else if (arg == "--events") {
                events_only = true;
            } else if (!arg.empty() && arg[0] == '-') {
                usage();
            } else {
                workload_path = arg;
            }
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "dew_serve: bad option value: %s\n",
                     error.what());
        return 2;
    }
    // Mode selection: --serve takes no workload; otherwise exactly one —
    // a file, or the built-in demo.  --corpus only means something to a
    // server.
    if (serve_port) {
        if (demo || metrics_only || events_only || !workload_path.empty() ||
            !connect_spec.empty()) {
            usage();
        }
        if (!route_spec.empty()) {
            // A router front owns no corpus, cache or service of its own.
            if (!corpus_dir.empty() || !load_path.empty() ||
                !save_path.empty()) {
                usage();
            }
            return run_router(*serve_port, route_spec, trace_path);
        }
        return run_server(options, *serve_port, corpus_dir, load_path,
                          save_path, stats_interval_ms, trace_path);
    }
    if (!route_spec.empty()) {
        usage(); // --route only means something with --serve
    }
    // --metrics / --events are one-shot remote scrapes: no workload, no
    // replay.
    if (metrics_only || events_only) {
        if (demo || !workload_path.empty() || connect_spec.empty()) {
            usage();
        }
        const std::size_t colon = connect_spec.rfind(':');
        if (colon == std::string::npos || colon == 0) {
            usage();
        }
        try {
            const unsigned long port =
                std::stoul(connect_spec.substr(colon + 1));
            if (port == 0 || port > 65535) {
                throw std::invalid_argument{"port out of range"};
            }
            net::client remote{connect_spec.substr(0, colon),
                               static_cast<std::uint16_t>(port)};
            if (metrics_only) {
                std::fputs(obs::metrics_text(remote.metrics()).c_str(),
                           stdout);
            }
            if (events_only) {
                std::fputs(obs::events_jsonl(remote.events()).c_str(),
                           stdout);
            }
        } catch (const std::exception& error) {
            std::fprintf(stderr, "dew_serve: fetch from %s failed: %s\n",
                         connect_spec.c_str(), error.what());
            return 1;
        }
        return 0;
    }
    if (demo ? !workload_path.empty() : workload_path.empty()) {
        usage();
    }
    if (!corpus_dir.empty()) {
        usage();
    }

    replay_opts.faults = std::make_shared<fault_plan>();
    std::optional<serve::service> service_storage;
    std::optional<net::client> client_storage;
    sweep_sink sink;
    if (!connect_spec.empty()) {
        // Remote replay: the workload goes over the wire.  Trace names are
        // a client-side convenience — the server only knows digests.
        const std::size_t colon = connect_spec.rfind(':');
        if (colon == std::string::npos || colon == 0) {
            usage();
        }
        try {
            const unsigned long port =
                std::stoul(connect_spec.substr(colon + 1));
            if (port == 0 || port > 65535) {
                throw std::invalid_argument{"port out of range"};
            }
            client_storage.emplace(connect_spec.substr(0, colon),
                                   static_cast<std::uint16_t>(port));
        } catch (const std::exception& error) {
            std::fprintf(stderr, "dew_serve: cannot connect to %s: %s\n",
                         connect_spec.c_str(), error.what());
            return 1;
        }
        net::client* remote = &*client_storage;
        auto names = std::make_shared<
            std::map<std::string, trace::trace_digest>>();
        sink.local = false;
        sink.add_trace = [remote, names](const std::string& name,
                                         trace::mem_trace records) {
            const trace::trace_digest digest =
                remote->register_trace(records);
            (*names)[name] = digest;
            return digest;
        };
        sink.submit = [remote, names](const std::string& name,
                                      const serve::service_request& request) {
            const auto found = names->find(name);
            if (found == names->end()) {
                throw std::invalid_argument{"unknown trace: " + name};
            }
            auto handle = std::make_shared<net::submission>(
                remote->submit(found->second, request));
            return std::function<serve::service_result()>{
                [handle] { return handle->get(); }};
        };
    } else {
        // The injection hook is always installed on a local service; it
        // costs one relaxed load per shard job until a `fault` directive
        // arms it.
        options.fault_hook = [plan = replay_opts.faults](std::size_t,
                                                         unsigned attempt) {
            if (attempt != 0 ||
                plan->remaining.load(std::memory_order_relaxed) <= 0) {
                return;
            }
            if (plan->remaining.fetch_sub(1, std::memory_order_relaxed) <=
                0) {
                return; // another job took the last round
            }
            plan->injected.fetch_add(1, std::memory_order_relaxed);
            throw trace::io_fault{"dew_serve: injected transient fault"};
        };
        try {
            service_storage.emplace(options);
        } catch (const std::exception& error) {
            // e.g. --workers 0 / --queue 0 / --cache 0.
            std::fprintf(stderr, "dew_serve: %s\n", error.what());
            return 2;
        }
        serve::service* local = &*service_storage;
        sink.add_trace = [local](const std::string& name,
                                 trace::mem_trace records) {
            return local->add_trace(name, std::move(records));
        };
        sink.submit = [local](const std::string& name,
                              const serve::service_request& request) {
            auto handle = std::make_shared<serve::submission>(
                local->submit(name, request));
            return std::function<serve::service_result()>{
                [handle] { return handle->get(); }};
        };
    }
    if (!load_path.empty()) {
        if (sink.local) {
            if (const int code = warm_cache(*service_storage, load_path)) {
                return code;
            }
        } else {
            // Remote warm-up: ship the file as a DSCF image; the server
            // salvages a torn one, same as the local path.
            std::ifstream in{load_path, std::ios::binary};
            if (!in) {
                std::fprintf(stderr, "dew_serve: cannot read %s\n",
                             load_path.c_str());
                return 1;
            }
            std::ostringstream image;
            image << in.rdbuf();
            const serve::cache_load_report report =
                client_storage->load_cache(serve::load_mode::salvage,
                                           image.str());
            std::printf("cache    warmed remote with %zu columns from %s\n",
                        report.loaded, load_path.c_str());
        }
    }

    std::vector<pending> submitted;
    const auto start = std::chrono::steady_clock::now();
    if (demo) {
        std::istringstream workload{demo_workload};
        replay(workload, sink, replay_opts, submitted);
    } else {
        std::ifstream workload{workload_path};
        if (!workload) {
            std::fprintf(stderr, "dew_serve: cannot read %s\n",
                         workload_path.c_str());
            return 1;
        }
        replay(workload, sink, replay_opts, submitted);
    }

    std::size_t simulated = 0;
    std::size_t from_cache = 0;
    std::size_t from_coalescing = 0;
    std::size_t estimates = 0;
    std::size_t fallbacks = 0;
    std::size_t degraded = 0;
    std::size_t timed_out = 0;
    std::size_t failed = 0;
    for (pending& p : submitted) {
        // A failed request is tallied, not fatal: one expired deadline or
        // exhausted retry must not discard every other answer's books.
        try {
            const serve::service_result answer = p.get();
            simulated += !answer.cache_hit && !answer.coalesced;
            from_cache += answer.cache_hit;
            from_coalescing += answer.coalesced;
            estimates += answer.estimated;
            fallbacks += answer.fell_back_exact;
            degraded += answer.degraded;
        } catch (const serve::service_timeout&) {
            ++timed_out;
        } catch (const std::exception& error) {
            ++failed;
            std::fprintf(stderr, "dew_serve: request failed (%s): %s\n",
                         p.line.c_str(), error.what());
        }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Over --connect the books are the server's lifetime totals, which is
    // what a shared service's absorption numbers mean anyway.
    const serve::service_stats stats =
        sink.local ? service_storage->stats() : client_storage->stats();
    std::printf("\nanswered %zu requests in %.3f s (%.0f req/s)\n",
                submitted.size(), seconds,
                static_cast<double>(submitted.size()) / seconds);
    std::printf("  simulated %zu, cache hits %zu (rate %.2f), coalesced %zu "
                "(factor %.2f)\n",
                simulated, from_cache, stats.cache_hit_rate(),
                from_coalescing, stats.coalesce_factor());
    std::printf("  estimates served %zu (exact fallbacks %zu), degraded "
                "%zu\n",
                estimates, fallbacks, degraded);
    std::printf("  computations %llu over %llu shard jobs (%llu block-size "
                "decodes); evictions %llu\n",
                static_cast<unsigned long long>(stats.computations),
                static_cast<unsigned long long>(stats.shard_jobs),
                static_cast<unsigned long long>(stats.stream_builds),
                static_cast<unsigned long long>(stats.cache_evictions));
    std::printf("  faults injected %llu; retries %llu (recovered %llu "
                "flights); timed out %zu, failed %zu\n",
                static_cast<unsigned long long>(
                    replay_opts.faults->injected.load()),
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.retry_successes),
                timed_out, failed);

    if (!save_path.empty()) {
        if (sink.local) {
            if (const int code = save_cache(*service_storage, save_path)) {
                return code;
            }
        } else {
            // The remote cache as a DSCF image, staged and renamed like
            // the local save.
            const std::string image = client_storage->save_cache();
            const std::string staging = save_path + ".tmp";
            {
                std::ofstream out{staging,
                                  std::ios::binary | std::ios::trunc};
                out.write(image.data(),
                          static_cast<std::streamsize>(image.size()));
                out.flush();
                if (!out) {
                    std::fprintf(stderr, "dew_serve: cannot write %s\n",
                                 staging.c_str());
                    return 1;
                }
            }
            if (std::rename(staging.c_str(), save_path.c_str()) != 0) {
                std::fprintf(stderr, "dew_serve: cannot rename %s to %s\n",
                             staging.c_str(), save_path.c_str());
                return 1;
            }
            std::printf("cache    saved to %s\n", save_path.c_str());
        }
    }
    // The client-side leg of the trace: submit spans carrying the same
    // trace ids the server's spans adopted, so the two dumps concatenate
    // into one cross-hop timeline.
    if (!trace_path.empty()) {
        if (const int code = dump_trace(trace_path, "dew_client")) {
            return code;
        }
    }
    return failed == 0 ? 0 : 1;
}
