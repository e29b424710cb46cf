// The workloads and the traced per-layer probes.  Each workload writes
// its raw samples into the open top-level object of the report; main.cpp
// adds the stamp, the outcome and the peak RSS around them.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support.hpp"

namespace pb {

struct run_config {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{10.0};
    bool traced{false};
};

// Operations attempted and failed; every failure is also named.
struct outcome {
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<std::string> failures;

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20) {
                failures.push_back(what);
            }
        }
    }
};

// Client connections of dse_overlap and of the traced net probe.
inline constexpr std::size_t connections = 4;

void sweep_deep(const run_config& config, json_writer& out, outcome& result);
void dse_overlap(const run_config& config, json_writer& out, outcome& result);

// The inputs of one workload, as the traced probes see them: its traces and
// its distinct queries (query::trace indexes `traces`).
struct layer_inputs {
    std::vector<const trace::mem_trace*> traces;
    std::vector<query> queries;
    // Request sequence the serving replay submits (indexes into queries),
    // one sequence per client thread.
    std::vector<std::vector<std::size_t>> sequences;
};

// One sweep through dew::session (what core::run_sweep does), with a
// "dew.session_step" span per chunk when the span log is on.  Traced runs
// only: the timed sweeps call core::run_sweep itself.
[[nodiscard]] core::sweep_result stepped_sweep(const trace::mem_trace& trace,
                                               const core::sweep_request& request,
                                               std::uint64_t parent = 0);

// Runs every per-layer probe on the workload's own inputs, recording spans,
// and writes the exact counts and service statistics under "layers".
void layer_probes(const run_config& config, const layer_inputs& inputs,
                  json_writer& out, outcome& result);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HPP
