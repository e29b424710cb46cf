// perfbench_harness: runs one workload of the repository benchmark and
// writes its raw samples as JSON.  perfbench/run.py builds and drives it and
// turns the samples into the named metrics.
//
//   perfbench_harness --workload sweep_deep|dse_overlap
//                     --seed N --seconds S --trace 0|1
//                     --out report.json [--spans spans.json]
//
// With --serve alone it is a server process (see pb::server_process).
//
// --trace 1 turns on the benchmark's own span log, runs the per-layer
// probes and writes the spans to --spans at the end.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "workloads.hpp"

namespace {

struct arguments {
    pb::run_config config;
    std::string out;
    std::string spans;
};

std::optional<arguments> parse(int argc, char** argv) {
    arguments args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.config.workload = value;
        } else if (key == "--seed") {
            args.config.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.config.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.config.traced = value == "1";
        } else if (key == "--out") {
            args.out = value;
        } else if (key == "--spans") {
            args.spans = value;
        } else {
            return std::nullopt;
        }
    }
    if (args.out.empty() || args.config.workload.empty() ||
        (args.config.traced && args.spans.empty())) {
        return std::nullopt;
    }
    return args;
}

} // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--serve") == 0) {
        try {
            return pb::serve_until_stdin_closes();
        } catch (const std::exception& error) {
            std::fprintf(stderr, "perfbench_harness --serve: %s\n", error.what());
            return 3;
        }
    }
    std::optional<arguments> args;
    try {
        args = parse(argc, argv);
    } catch (const std::exception&) {
        args.reset();
    }
    if (!args) {
        std::fprintf(stderr,
                     "usage: perfbench_harness --workload W --seed N --seconds S "
                     "--trace 0|1 --out FILE [--spans FILE]\n");
        return 2;
    }
    const pb::run_config& config = args->config;
    try {
        pb::json_writer out;
        pb::outcome result;
        out.begin_object();
        out.value("workload", config.workload);
        out.value("seed", config.seed);
        out.value("traced", config.traced);
        out.begin_object("stamp");
        out.value("build_type", std::string{PERFBENCH_BUILD_TYPE});
        out.value("compiler", std::string{PERFBENCH_COMPILER});
        out.value("dew_obs", static_cast<std::uint64_t>(DEW_OBS_ENABLED));
        out.end_object();
        if (config.workload == "sweep_deep") {
            pb::sweep_deep(config, out, result);
        } else if (config.workload == "dse_overlap") {
            pb::dse_overlap(config, out, result);
        } else {
            std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
            return 2;
        }
        out.value("attempted", result.attempted);
        out.value("failed", result.failed);
        out.begin_array("failures");
        for (const std::string& failure : result.failures) {
            out.value(nullptr, failure);
        }
        out.end_array();
        out.end_object();

        if (config.traced) {
            pb::span_log::instance().set_enabled(false);
            pb::span_log::instance().write_chrome(args->spans);
        }
        std::ofstream file{args->out};
        file << out.str() << '\n';
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", args->out.c_str());
            return 3;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
        return 3;
    }
    return 0;
}
