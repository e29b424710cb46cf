// Regenerates Table 2 of the paper: "Trace files used for simulation".
//
// The paper lists the six Mediabench applications and their trace lengths
// (byte-addressable requests).  This bench prints the paper's counts next
// to the scaled synthetic stand-ins actually simulated here, plus the
// locality statistics of each synthetic trace that justify the substitution
// (trace/mediabench.hpp): G.721 must be a tiny-footprint hot loop, MPEG-2 a
// multi-megabyte streaming workload, JPEG in between.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/table.hpp"
#include "trace/stats.hpp"

namespace {

using namespace dew;
using namespace dew::bench;

} // namespace

int main() {
    print_banner("Table 2 — trace files used for simulation",
                 "six Mediabench applications, 7.6M to 3.7B requests");

    text_table table{{"Application", "Paper requests", "Bench requests",
                      "Footprint(4B)", "Same-block(64B)", "ifetch%"}};
    for (const trace::mediabench_app app : trace::all_mediabench_apps) {
        const trace::mem_trace& trace = scaled_trace(app);
        const trace::trace_stats fine = trace::compute_stats(trace, 4);
        const trace::trace_stats coarse = trace::compute_stats(trace, 64);
        const double ifetch_percent =
            fine.requests == 0
                ? 0.0
                : 100.0 * static_cast<double>(fine.ifetches) /
                      static_cast<double>(fine.requests);
        table.add_row({
            trace::long_name(app),
            with_commas(trace::paper_request_count(app)),
            with_commas(fine.requests),
            human_bytes(fine.footprint_bytes),
            percent(coarse.same_block_fraction) + "%",
            fixed_decimal(ifetch_percent, 1) + "%",
        });
    }
    table.print(std::cout);
    std::printf("\nall requests are for byte addressable memory, as in the "
                "paper\n");
    return 0;
}
