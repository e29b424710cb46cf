// Helpers shared by the paper-table bench binaries (not part of the library
// API): the scale banner every bench prints, the cached per-app traces, and
// small formatting shims.
//
// Every bench binary regenerates one table or figure of the paper.  The
// traces are synthetic stand-ins (see trace/mediabench.hpp), scaled down from
// the paper's request counts by DEW_BENCH_SCALE (default in
// bench_support/scale.hpp), so *absolute* seconds and millions differ from
// the paper; the reproduction targets are the shapes: speedup ratios,
// comparison-reduction percentages, and the relative effectiveness of the
// DEW properties.
//
// Performance notes: the table benches use the counted (`dew_simulator`)
// policy because the counters ARE the measured quantities; anything that
// times throughput should use `fast_dew_simulator` (or run_sweep's default
// fast instrumentation) so instrumentation cost does not pollute the
// numbers.  bench/micro.cpp tracks the seed-vs-current hot-path ratio in
// BENCH_micro.json — see docs/PERF.md for how to read it.
#ifndef DEW_BENCH_BENCH_COMMON_HPP
#define DEW_BENCH_BENCH_COMMON_HPP

#include <cstdio>
#include <map>
#include <string>

#include "bench_support/scale.hpp"
#include "common/format.hpp"
#include "trace/mediabench.hpp"
#include "trace/record.hpp"

namespace dew::bench {

// Prints the standard provenance banner: what is being reproduced and at
// what scale.
inline void print_banner(const char* experiment, const char* paper_claim) {
    std::printf("=== %s ===\n", experiment);
    std::printf("paper: DEW (DATE 2010), Haque et al. — %s\n", paper_claim);
    std::printf("traces: synthetic Mediabench-like profiles, scale 1/%.0f of "
                "the paper's request counts (DEW_BENCH_SCALE overrides)\n\n",
                scale_divisor());
}

// Materialises (and memoises) the scaled trace of one application so benches
// that sweep block sizes do not regenerate it per cell.
inline const trace::mem_trace& scaled_trace(trace::mediabench_app app) {
    static std::map<trace::mediabench_app, trace::mem_trace> cache;
    const auto it = cache.find(app);
    if (it != cache.end()) {
        return it->second;
    }
    const std::uint64_t count = scaled_request_count(app);
    return cache.emplace(app, trace::make_mediabench_trace(
                                  app, static_cast<std::size_t>(count)))
        .first->second;
}

// "x12.3" speedup rendering.  The rvalue-string overload of operator+ trips
// a GCC 12 -Wrestrict false positive at -O3, so concatenate via an lvalue.
inline std::string times(double ratio) {
    const std::string digits = dew::fixed_decimal(ratio, 1);
    return "x" + digits;
}

} // namespace dew::bench

#endif // DEW_BENCH_BENCH_COMMON_HPP
