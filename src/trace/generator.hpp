// Synthetic address-stream generation.
//
// The paper drives its evaluation with SimpleScalar traces of six Mediabench
// programs.  Neither is available offline, so this module provides the
// substitution whose six profiles live in trace/mediabench.hpp: a workload
// is a weighted mixture of *streams*, each modelling one archetypal memory
// behaviour of media code:
//
//   * sequential : linear walk over a buffer with a fixed stride (raw image
//                  input, bitstream output)
//   * hot_loop   : round-robin walk over a small code/data region
//                  (instruction fetch of an inner loop, filter state)
//   * strided_2d : row-major walk over rectangular tiles (8x8 DCT blocks,
//                  macroblock processing)
//   * random_in  : uniformly random references within a region (quantisation
//                  and Huffman table lookups)
//   * burst      : random block start followed by a short sequential burst
//                  (motion-estimation window probing)
//   * chase      : walk of a fixed random permutation over a region's blocks
//                  (linked structures; worst-case spatial locality)
//
// Every access draws its stream from an integer-weighted distribution, then
// the stream advances its private cursor.  Generation is deterministic for a
// given (spec, seed) pair, uses only integer arithmetic on the raw mt19937_64
// output, and is therefore reproducible across platforms.
#ifndef DEW_TRACE_GENERATOR_HPP
#define DEW_TRACE_GENERATOR_HPP

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::trace {

enum class stream_kind : std::uint8_t {
    sequential,
    hot_loop,
    strided_2d,
    random_in,
    burst,
    chase,
};

[[nodiscard]] const char* to_string(stream_kind kind) noexcept;

// Description of one stream of a workload mixture.
struct stream_spec {
    stream_kind kind{stream_kind::sequential};
    std::uint64_t base{0};      // region start address (bytes)
    std::uint64_t size{4096};   // region size (bytes), > 0
    std::uint32_t stride{4};    // access granularity / element size (bytes)
    std::uint32_t burst{8};     // accesses per burst (burst/strided_2d kinds)
    std::uint32_t row{0};       // row length in bytes for strided_2d (0 = size)
    std::uint32_t weight{1};    // relative selection weight, > 0
    access_type type{access_type::read};
    // Each generated address is emitted `repeat` times in a row (from this
    // stream's point of view).  repeat = 2 models read-modify-write pairs
    // (counter updates, predictor state, spill/reload), which real traces
    // are full of and which drive the consecutive-same-block rate cache
    // simulators see at small block sizes.  Must be > 0.
    std::uint32_t repeat{1};
};

// A full workload: mixture of streams.  `name` labels reports.
struct workload_spec {
    std::string name;
    std::vector<stream_spec> streams;
    // Mean number of consecutive accesses drawn from one stream before the
    // next stream is picked (run lengths are uniform on [1, 2*stickiness-1],
    // mean `stickiness`).  1 = independent per-access selection.  Real
    // programs interleave in bursts — a few instruction fetches, then a few
    // data touches — not per-access coin flips; stickiness preserves each
    // stream's spatial locality in the merged trace.
    std::uint32_t stickiness{1};
};

// Stateful generator; repeated generate() calls continue the same streams,
// so one workload can be materialised in chunks.
class workload_generator {
public:
    workload_generator(workload_spec spec, std::uint64_t seed);

    // Appends `count` accesses to `out`.
    void generate(mem_trace& out, std::size_t count);

    // Convenience: fresh trace of `count` accesses.
    [[nodiscard]] mem_trace make(std::size_t count);

    [[nodiscard]] const workload_spec& spec() const noexcept { return spec_; }

private:
    struct stream_state {
        std::uint64_t cursor{0};      // byte offset within region
        std::uint32_t burst_left{0};  // remaining accesses of current burst
        std::uint64_t burst_pos{0};   // cursor of current burst
        std::vector<std::uint32_t> permutation; // chase order (lazy)
        std::uint32_t chase_index{0};
        std::uint64_t last_address{0}; // address being repeated
        std::uint32_t repeat_left{0};  // outstanding repeats of last_address
    };

    [[nodiscard]] std::size_t pick_stream();
    [[nodiscard]] std::size_t acquire_stream(); // pick_stream + stickiness
    [[nodiscard]] std::uint64_t next_address(std::size_t index);
    [[nodiscard]] std::uint64_t uniform(std::uint64_t bound); // [0, bound)

    workload_spec spec_;
    std::vector<stream_state> states_;
    std::size_t current_stream_{0};
    std::uint32_t run_left_{0}; // remaining accesses of the sticky run
    std::vector<std::uint64_t> cumulative_weight_;
    std::uint64_t total_weight_{0};
    std::mt19937_64 rng_;
};

// Streaming view of a synthetic workload: the first `count` accesses of a
// workload_generator, produced in pull-based chunks.  Record-for-record
// identical to workload_generator{spec, seed}.make(count) — generation is
// deterministic and chunking does not perturb the stream — so arbitrarily
// long workloads can drive a simulation without ever being materialised.
class generator_source final : public source {
public:
    generator_source(workload_spec spec, std::uint64_t seed,
                     std::uint64_t count)
        : generator_{std::move(spec), seed}, remaining_{count} {}

    std::size_t next(std::span<mem_access> out) override;

    // Generates straight into `scratch` and returns a view of it, skipping
    // next()'s staging copy — the path dew::session consumes.
    std::span<const mem_access> next_view(std::size_t max_records,
                                          mem_trace& scratch) override;

    [[nodiscard]] std::uint64_t remaining() const noexcept {
        return remaining_;
    }

private:
    workload_generator generator_;
    std::uint64_t remaining_;
    mem_trace staging_; // next()'s generate() target; reused across pulls
};

// Single-stream convenience wrappers used throughout tests.
[[nodiscard]] mem_trace make_sequential_trace(std::uint64_t base,
                                              std::size_t count,
                                              std::uint32_t stride);
[[nodiscard]] mem_trace make_random_trace(std::uint64_t base,
                                          std::uint64_t region_size,
                                          std::size_t count,
                                          std::uint64_t seed,
                                          std::uint32_t alignment = 1);
// Cyclic walk over `block_count` distinct block addresses; with
// block_count > associativity this defeats both LRU and FIFO caching.
[[nodiscard]] mem_trace make_cyclic_trace(std::uint64_t base,
                                          std::size_t block_count,
                                          std::size_t repetitions,
                                          std::uint32_t stride);

} // namespace dew::trace

#endif // DEW_TRACE_GENERATOR_HPP
