// Multi-pass sweep driver: the paper's end-to-end use case as a first-class
// API.  A config_space-style grid (set counts 2^0..2^L, block sizes,
// associativities) is covered by one DEW single-pass simulation per
// (block size, associativity != 1) pair — 28 passes for the paper's
// 525-configuration Table 1 space — optionally running passes on worker
// threads.  Passes are completely independent (each owns its tree), so
// parallelism is deterministic: results are identical to the serial sweep.
//
// Sweeps run on the chunked dew::session pipeline (dew/session.hpp): each
// chunk of the trace is decoded exactly once per distinct block size, and
// every pass of that block size consumes it before the next chunk is
// pulled, on the serial and the threaded path alike.  A DEW pass is a
// basic_dew_pass fed the mra_walks that stage 1 (dew/mra_stage.hpp) derives
// once per block size from the shared block-number stream; only CIPAR
// passes take the stream itself, through simulate_blocks.  Peak memory is
// therefore bounded by the chunk, not the trace; run_sweep over an
// in-memory trace pulls zero-copy chunks out of it, and run_sweep over a
// trace::source (see session.hpp) never materialises the trace at all.
#ifndef DEW_DEW_SWEEP_HPP
#define DEW_DEW_SWEEP_HPP

#include <cstdint>
#include <vector>

#include "cache/config.hpp"
#include "dew/counters.hpp"
#include "dew/options.hpp"
#include "dew/result.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::core {

// Which instrumentation policy every pass of a sweep is instantiated with
// (basic_dew_pass for the DEW engine).  `fast` (the default) compiles all
// per-access counter updates out of the hot loop; `full_counters` keeps the
// exact Table-3/4 instrumentation.  Miss counts are bit-identical either
// way.
enum class sweep_instrumentation : std::uint8_t {
    fast = 0,
    full_counters = 1,
};

// Which single-pass FIFO engine runs the passes.  `dew` is the paper's
// tree-walk algorithm (the default); `cipar` is the CIPARSim-style
// presence-map engine (src/cipar/simulator.hpp).  Both are exact, so miss
// counts are bit-identical either way — the cross-simulator suite proves it;
// they differ in cost model (tree probes vs one hash probe per access) and
// in memory shape: a DEW pass is O(2^max_set_exp) regardless of the trace,
// while a cipar pass additionally keeps a presence map that grows with the
// distinct blocks the trace touches (16 bytes per block, per pass).  For
// larger-than-RAM streaming over huge working sets, prefer `dew`; cipar's
// engine-specific counters are only readable on a directly-driven
// basic_cipar_simulator (a counted sweep surfaces its requests and
// unoptimized_evaluations through the usual dew_counters totals).
enum class sweep_engine : std::uint8_t {
    dew = 0,
    cipar = 1,
};

// The depth and the grids feed serve::fingerprint; the fields that cannot
// change a miss count are identity-exempt (dewlint's identity-completeness
// rule cross-checks this against serve/key.cpp).  Counted sweeps and the
// CIPAR engine are library and test-oracle paths: the sweep service
// rejects the first and resets the second.
// dewlint: identity-struct
struct sweep_request {
    // Set counts 2^0 .. 2^max_set_exp are covered by every pass.
    unsigned max_set_exp{14};
    // Block sizes (bytes) and associativities to cross; each must be a
    // power of two, associativity 1 rides along and need not be listed.
    std::vector<std::uint32_t> block_sizes{4, 8, 16, 32, 64};
    std::vector<std::uint32_t> associativities{2, 4, 8, 16};
    // Property switches of counted DEW passes (instrumentation
    // full_counters).  Fast passes ignore them: their walk has no wave
    // pointer or victim buffer and always takes the MRA stop, so any
    // options give the default's misses (dew/simulator.hpp).
    // dewlint: identity-exempt options never change a miss count; serve::canonical() resets them
    dew_options options{};
    // Worker threads; 0 = serial in the calling thread.  Results are
    // bit-identical regardless (the session suite proves it), hence
    // excluded from the cache identity.
    // dewlint: identity-exempt threads parallelism never changes an answered bit; canonical() zeroes it
    unsigned threads{0};
    // Instrumentation policy of every pass; fast = zero-overhead hot loop.
    // dewlint: identity-exempt instrumentation served sweeps are fast only; serve::canonical() rejects full_counters
    sweep_instrumentation instrumentation{sweep_instrumentation::fast};
    // Simulation engine of every pass (see sweep_engine above).  The CIPAR
    // engine has no property switches.
    // dewlint: identity-exempt engine never changes a miss count; serve::canonical() resets it
    sweep_engine engine{sweep_engine::dew};

    // The paper's Table 1 space: S = 2^0..2^14, B = 2^0..2^6, A = 2^0..2^4.
    [[nodiscard]] static sweep_request paper() {
        sweep_request request;
        request.max_set_exp = 14;
        request.block_sizes = {1, 2, 4, 8, 16, 32, 64};
        request.associativities = {2, 4, 8, 16};
        return request;
    }
};

struct sweep_result {
    // One dew_result per (block size, associativity) pass, in the order
    // block-major then associativity (matching passes()).
    std::vector<dew_result> passes;
    std::uint64_t requests{0};
    double seconds{0.0};

    // Misses of an arbitrary configuration covered by the sweep; throws
    // std::out_of_range when (S, A, B) was not covered.
    [[nodiscard]] std::uint64_t
    misses_of(const cache::cache_config& config) const;

    // Aggregate instrumentation over all passes (Table 3's totals).
    [[nodiscard]] dew_counters total_counters() const;

    // Flat list of every covered configuration with exact outcomes
    // (associativity-1 configurations appear once per block size).
    [[nodiscard]] std::vector<config_outcome> outcomes() const;
};

// Rejects an ill-formed request with std::invalid_argument naming the
// offending field: empty block-size or associativity grids, non-power-of-two
// block sizes or associativities, max_set_exp >= 32, and mre_depth == 0
// while use_mre is set.  Every sweep entry point (run_sweep, dew::session,
// explore::explore) validates up front, so a bad request fails here with a
// clear message instead of deep inside a simulator contract check.
void validate(const sweep_request& request);

// Runs the sweep over an in-memory trace.  Every (block, assoc) pair in the
// request becomes one single-pass simulation; with request.threads > 0 the
// passes are distributed over that many workers.  Throws
// std::invalid_argument on an ill-formed request (see validate).  A
// source-based overload for streaming ingestion lives in dew/session.hpp.
[[nodiscard]] sweep_result run_sweep(const trace::mem_trace& trace,
                                     const sweep_request& request);

} // namespace dew::core

#endif // DEW_DEW_SWEEP_HPP
