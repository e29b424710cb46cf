// dew::session — the chunked decode→simulate pipeline behind every sweep.
//
// A session owns one sweep over one trace::source: each step() pulls a chunk
// of records (zero-copy for in-memory sources), decodes it once per distinct
// block size into a block-number stream, runs the DEW walk's stage 1 (the
// MRA plane shared by every associativity, dew/mra_stage.hpp) once on that
// stream, and feeds its output to every associativity pass of the block
// size before the next chunk is pulled.  CIPAR passes take the decoded
// stream itself.
// DEW's single-pass algorithm is inherently incremental — the tree carries
// all state between chunks — so results are bit-identical to a one-shot
// simulation while peak memory is O(chunk × block sizes) instead of
// O(trace): the trace itself is never resident.
//
// With request.threads > 0 the work of one chunk is distributed over worker
// threads as one unit per distinct block size (decode and stage 1), then one
// unit per pass (passes are independent, each owns its records), which
// keeps the memory bound and the bit-identical-results guarantee intact;
// the only difference from the serial path is that every distinct block
// size's stream of the current chunk is live at once instead of one at a
// time.
//
// run_sweep (dew/sweep.hpp) and explore::explore are thin wrappers over this
// class; use a session directly to interleave simulation with other work, to
// observe results mid-stream (result() is exact after every step), or to
// bound memory explicitly via session_options::chunk_records.
#ifndef DEW_DEW_SESSION_HPP
#define DEW_DEW_SESSION_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "dew/mra_stage.hpp"
#include "dew/sweep.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::core {

namespace detail {
// Type-erased simulator pass (one engine x instrumentation instantiation);
// defined in session.cpp.
class sweep_pass;
} // namespace detail

struct session_options {
    // Records pulled from the source per step().  Bounds the session's
    // resident buffers at roughly
    //   chunk_records * (sizeof(mem_access) + 13 * live streams)
    // bytes (see buffer_bytes()): per live stream and record, an 8-byte
    // block number and, for the DEW engine, stage 1's 1-byte depth and
    // 4-byte survivor slot (a 4-byte miss mask instead in a counted sweep
    // with use_mra_stop off).  DEW-engine simulator state — the records of
    // every pass plus one shared 8-byte-per-node MRA plane per block size —
    // is O(2^max_set_exp) and independent of both the chunk and the trace
    // length.  Per node, a fast pass holds 8 * A bytes of tags plus a
    // 4-byte FIFO cursor; a counted pass holds dew_tree's record (cursors,
    // ways and victim buffer with wave pointers, dew/tree.hpp).  The cipar
    // engine additionally keeps one presence map per pass that grows with
    // the distinct blocks the trace touches (see sweep_engine in
    // dew/sweep.hpp).  Must be > 0.
    std::size_t chunk_records{std::size_t{64} * 1024};
};

class session {
public:
    // Validates the request (see validate(sweep_request) — throws
    // std::invalid_argument) and builds one simulator pass per
    // (block size, associativity) pair.  The source must outlive the session.
    session(trace::source& src, const sweep_request& request,
            session_options options = {});
    ~session();

    session(const session&) = delete;
    session& operator=(const session&) = delete;

    // Pulls and simulates one chunk; returns false once the source is
    // exhausted (and never simulates again after that).  Post-exhaustion
    // stepping is idempotent: a drained session keeps returning false and a
    // failed session rethrows the stored fault on every call — schedulers
    // that re-poll sessions see the original error, never a silent
    // end-of-stream.
    bool step();

    // Drains the source: step() until end-of-stream.
    void run();

    // Records simulated so far / steps taken / end-of-stream flag.
    [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
    [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
    [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

    // True iff a step threw: the session is exhausted and every further
    // step() rethrows the stored exception.
    [[nodiscard]] bool failed() const noexcept {
        return error_ != nullptr;
    }

    // Current resident bytes of the session's chunk, stream and stage-1
    // buffers — the quantity session_options::chunk_records bounds.
    // Independent of how many records have streamed through.  Zero-copy
    // sources keep the chunk buffer empty, so in-memory sweeps only pay for
    // the streams.
    [[nodiscard]] std::size_t buffer_bytes() const noexcept;

    [[nodiscard]] const sweep_request& request() const noexcept {
        return request_;
    }

    // Exact results of everything simulated so far, in the same pass order
    // run_sweep reports (block-major, then associativity).  On a failed
    // session this rethrows the stored fault instead of returning
    // cross-pass-inconsistent counts (a partially-fed chunk advanced some
    // passes but not others).
    [[nodiscard]] sweep_result result() const;

private:
    struct pass_key {
        std::uint32_t block_size;
        std::uint32_t assoc;
        std::size_t stream; // index into the distinct block-size streams
    };

    // Persistent worker pool for the threaded path: threads are spawned once
    // per session and handed one chunk generation at a time, so per-chunk
    // cost is a wakeup, not a spawn+join cycle.  Defined in session.cpp.
    struct worker_pool;

    // Decodes the chunk at stream s's block size and, for the DEW engine,
    // runs stream s's stage 1 on it.
    void prepare_stream(std::span<const trace::mem_access> chunk,
                        std::size_t s);
    // Feeds the prepared stream of passes_[pass]'s block size to it.
    void feed_stream(std::size_t pass);
    void feed_serial(std::span<const trace::mem_access> chunk);
    void feed_threaded(std::span<const trace::mem_access> chunk);
    // A worker's share of one chunk generation (see worker_pool).
    void run_units(std::uint64_t generation);

    sweep_request request_;
    session_options options_;
    trace::source* source_;
    std::vector<pass_key> keys_;                    // block-major pass order
    std::vector<std::uint32_t> stream_block_sizes_; // distinct, first-listed
    std::vector<std::unique_ptr<detail::sweep_pass>> passes_;
    trace::mem_trace chunk_buffer_; // scratch for source::next_view
    // Serial: one stream buffer reused across block sizes.  Threaded: one
    // per distinct block size, all live for the current chunk.
    std::vector<std::vector<std::uint64_t>> streams_;
    // DEW engine only: one shared MRA plane per distinct block size, and
    // stage 1's per-record scratch, paired with streams_.
    std::vector<mra_stage> stages_;
    std::vector<mra_walk_buffer> walk_buffers_;
    // Stage 1's output for the current chunk, per distinct block size.
    std::vector<mra_walks> walks_;
    std::unique_ptr<worker_pool> pool_; // engaged iff the session is threaded
    std::uint64_t requests_{0};
    std::size_t steps_{0};
    bool exhausted_{false};
    std::exception_ptr error_; // set iff a step threw; rethrown on re-step
    double seconds_{0.0};
};

// One-call convenience: drain the source through a session.  This is what
// run_sweep(const trace::mem_trace&, ...) is built on.
[[nodiscard]] sweep_result run_sweep(trace::source& src,
                                     const sweep_request& request,
                                     session_options options = {});

} // namespace dew::core

#endif // DEW_DEW_SESSION_HPP
