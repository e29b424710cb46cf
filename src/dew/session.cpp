#include "dew/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cipar/simulator.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "dew/simulator.hpp"

namespace dew::core {

// Type-erased single pass: one (block size, associativity) pair of the
// sweep behind a virtual feed(), so the chunk loops are engine- and
// instrumentation-agnostic.  The virtual call is per chunk per pass, far
// off the per-access hot path.
class detail::sweep_pass {
public:
    virtual ~sweep_pass() = default;

    // Feeds one chunk of the pass's block size.  A DEW pass runs stage 2
    // on `walks`, the chunk's shared stage-1 output; a CIPAR pass takes the
    // pre-decoded block-number stream `blocks` (the simulate_blocks
    // contract).  Chunked feeding is bit-identical to one-shot feeding,
    // full instrumentation included (tests/dew/session_test.cpp,
    // tests/dew/chunked_equivalence_test.cpp).
    virtual void feed(std::span<const std::uint64_t> blocks,
                      const mra_walks& walks) = 0;

    [[nodiscard]] virtual dew_result result() const = 0;
};

namespace {

// One wrapper serves every engine, and both report the same dew_result
// shape: a DEW pass (basic_dew_pass) walks stage 1's output, a CIPAR pass
// takes the decoded stream.
template <class Sim>
class engine_pass final : public detail::sweep_pass {
public:
    template <class... Args>
    explicit engine_pass(Args&&... args)
        : sim_{std::forward<Args>(args)...} {}

    void feed(std::span<const std::uint64_t> blocks,
              const mra_walks& walks) override {
        if constexpr (requires { sim_.walk(walks); }) {
            sim_.walk(walks);
        } else {
            sim_.simulate_blocks(blocks);
        }
    }

    [[nodiscard]] dew_result result() const override { return sim_.result(); }

private:
    Sim sim_;
};

// Instantiates the pass the request selects: engine (dew | cipar) crossed
// with instrumentation (fast | full_counters), covering set counts
// 2^0..2^max_set_exp at the given block size and associativity.
// request.options apply to counted DEW passes only; the fast walk ignores
// them (dew/simulator.hpp).
std::unique_ptr<detail::sweep_pass>
make_sweep_pass(const sweep_request& request, std::uint32_t block_size,
                std::uint32_t assoc) {
    const bool counted =
        request.instrumentation == sweep_instrumentation::full_counters;
    if (request.engine == sweep_engine::cipar) {
        if (counted) {
            return std::make_unique<engine_pass<
                cipar::basic_cipar_simulator<cipar::full_counters>>>(
                request.max_set_exp, assoc, block_size);
        }
        return std::make_unique<
            engine_pass<cipar::basic_cipar_simulator<cipar::fast>>>(
            request.max_set_exp, assoc, block_size);
    }
    if (counted) {
        return std::make_unique<engine_pass<basic_dew_pass<full_counters>>>(
            request.max_set_exp, assoc, block_size, request.options);
    }
    return std::make_unique<engine_pass<basic_dew_pass<fast>>>(
        request.max_set_exp, assoc, block_size, request.options);
}

void decode_blocks(std::span<const trace::mem_access> chunk,
                   unsigned block_bits, std::vector<std::uint64_t>& out) {
    out.resize(chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        out[i] = chunk[i].address >> block_bits;
    }
}

} // namespace

// Chunk-generation barrier: the owning thread bumps `generation` and waits
// on done_cv; each worker takes units off the shared cursor for that
// generation, and the last one to finish signals completion.  The units of
// one chunk are one stream unit per distinct block size (decode, then stage
// 1 for the DEW engine), followed by one unit per pass.  Every stream unit
// is handed out before any pass unit, so a pass unit that finds its stream
// not yet published waits on `ready` for a stream already in progress.  The
// mutexed generation handoff orders the chunk before the workers' reads,
// `ready` orders each stream before its passes read it, and the completion
// wait orders the workers' simulator writes before the owner reads results.
//
// A throw from a unit on a worker must not escape the thread body (that
// would be std::terminate): the worker captures it here instead, and
// feed_threaded rethrows it on the owning thread once the generation
// barrier completes, so the caller sees the same exception the serial path
// would have thrown.  A failed stream unit still publishes its stream, as
// failed, so its passes skip it instead of waiting.  Only the first
// exception of a generation is kept; later ones (typically the same fault
// on sibling passes) are dropped.
struct session::worker_pool {
    std::mutex mutex; // dewlint: lock-order session-pool 10
    std::condition_variable start_cv;
    std::condition_variable done_cv;
    std::uint64_t generation{0};
    std::size_t running{0}; // workers still on the current generation
    bool stop{false};
    bool dead{false};         // a worker's barrier machinery itself threw
    std::exception_ptr error; // first worker throw of this generation
    std::span<const trace::mem_access> chunk; // of the current generation
    std::atomic<std::size_t> cursor{0};
    // Per distinct block size: 2 * generation + 1 once that generation's
    // stream is ready, 2 * generation if its unit threw.
    std::unique_ptr<std::atomic<std::uint64_t>[]> ready;
    std::vector<std::thread> workers;

    void keep_error(std::exception_ptr thrown) {
        const std::lock_guard<std::mutex> lock{mutex};
        if (!error) {
            error = std::move(thrown);
        }
    }

    ~worker_pool() {
        {
            const std::lock_guard<std::mutex> lock{mutex};
            stop = true;
        }
        start_cv.notify_all();
        for (std::thread& worker : workers) {
            worker.join();
        }
    }
};

session::session(trace::source& src, const sweep_request& request,
                 session_options options)
    : request_{request}, options_{options}, source_{&src} {
    validate(request_);
    if (options_.chunk_records == 0) {
        throw std::invalid_argument{
            "session_options::chunk_records must be > 0"};
    }

    keys_.reserve(request_.block_sizes.size() *
                  request_.associativities.size());
    stream_block_sizes_.reserve(request_.block_sizes.size());
    for (const std::uint32_t block : request_.block_sizes) {
        // One shared stream per distinct block size, first-listing order.
        std::size_t stream = 0;
        while (stream < stream_block_sizes_.size() &&
               stream_block_sizes_[stream] != block) {
            ++stream;
        }
        if (stream == stream_block_sizes_.size()) {
            stream_block_sizes_.push_back(block);
        }
        for (const std::uint32_t assoc : request_.associativities) {
            keys_.push_back({block, assoc, stream});
        }
    }

    passes_.reserve(keys_.size());
    for (const pass_key& key : keys_) {
        passes_.push_back(
            make_sweep_pass(request_, key.block_size, key.assoc));
    }

    const bool threaded = request_.threads > 0 && passes_.size() > 1;
    const std::size_t live_streams =
        threaded ? stream_block_sizes_.size() : 1;
    streams_.resize(live_streams);
    walks_.resize(stream_block_sizes_.size());
    if (request_.engine == sweep_engine::dew) {
        // Fast passes always walk with the MRA stop.
        const bool mra_stop =
            request_.instrumentation == sweep_instrumentation::fast ||
            request_.options.use_mra_stop;
        stages_.reserve(stream_block_sizes_.size());
        for (std::size_t s = 0; s < stream_block_sizes_.size(); ++s) {
            stages_.emplace_back(request_.max_set_exp, mra_stop);
        }
        walk_buffers_.resize(live_streams);
    }

    if (threaded) {
        pool_ = std::make_unique<worker_pool>();
        pool_->ready = std::make_unique<std::atomic<std::uint64_t>[]>(
            stream_block_sizes_.size());
        const unsigned worker_count = std::min<unsigned>(
            request_.threads, static_cast<unsigned>(passes_.size()));
        pool_->workers.reserve(worker_count);
        for (unsigned w = 0; w < worker_count; ++w) {
            pool_->workers.emplace_back([this] {
                worker_pool& pool = *pool_;
                // The inner try turns a simulate fault into pool.error and
                // a normal barrier exit.  The outer one covers the barrier
                // machinery itself (the lock/wait calls can in principle
                // throw): it marks the pool dead so feed_threaded's wait
                // wakes and rethrows instead of hanging on a worker that
                // will never decrement `running`.
                try {
                    std::uint64_t seen = 0;
                    for (;;) {
                        {
                            std::unique_lock<std::mutex> lock{pool.mutex};
                            pool.start_cv.wait(lock, [&] {
                                return pool.stop || pool.generation != seen;
                            });
                            if (pool.stop) {
                                return;
                            }
                            seen = pool.generation;
                        }
                        try {
                            run_units(seen);
                        } catch (...) {
                            pool.keep_error(std::current_exception());
                        }
                        {
                            const std::lock_guard<std::mutex> lock{
                                pool.mutex};
                            if (--pool.running == 0) {
                                pool.done_cv.notify_one();
                            }
                        }
                    }
                } catch (...) {
                    const std::lock_guard<std::mutex> lock{pool.mutex};
                    if (!pool.error) {
                        pool.error = std::current_exception();
                    }
                    pool.dead = true;
                    pool.done_cv.notify_all();
                }
            });
        }
    }
}

session::~session() = default;

void session::prepare_stream(std::span<const trace::mem_access> chunk,
                             std::size_t s) {
    // Serial sessions keep one live buffer and reuse it for every block size.
    const std::size_t buffer = std::min(s, streams_.size() - 1);
    std::vector<std::uint64_t>& stream = streams_[buffer];
    decode_blocks(chunk, log2_exact(stream_block_sizes_[s]), stream);
    if (!stages_.empty()) {
        walks_[s] = stages_[s].run(stream, walk_buffers_[buffer]);
    }
}

void session::feed_stream(std::size_t pass) {
    const std::size_t s = keys_[pass].stream;
    passes_[pass]->feed(streams_[std::min(s, streams_.size() - 1)],
                        walks_[s]);
}

void session::feed_serial(std::span<const trace::mem_access> chunk) {
    // One stream is live at a time: decode this chunk at one block size,
    // run its shared stage 1, feed every pass of that block size, then
    // reuse the buffers for the next block size.
    for (std::size_t s = 0; s < stream_block_sizes_.size(); ++s) {
        prepare_stream(chunk, s);
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i].stream == s) {
                feed_stream(i);
            }
        }
    }
}

void session::run_units(std::uint64_t generation) {
    worker_pool& pool = *pool_;
    const std::size_t streams = stream_block_sizes_.size();
    for (;;) {
        const std::size_t unit =
            pool.cursor.fetch_add(1, std::memory_order_relaxed);
        if (unit >= streams + passes_.size()) {
            return;
        }
        if (unit < streams) {
            std::uint64_t published = 2 * generation;
            try {
                prepare_stream(pool.chunk, unit);
                ++published;
            } catch (...) {
                pool.keep_error(std::current_exception());
            }
            pool.ready[unit].store(published, std::memory_order_release);
            pool.ready[unit].notify_all();
            continue;
        }
        const std::size_t pass = unit - streams;
        std::atomic<std::uint64_t>& ready = pool.ready[keys_[pass].stream];
        std::uint64_t seen = ready.load(std::memory_order_acquire);
        while (seen / 2 != generation) {
            ready.wait(seen, std::memory_order_acquire);
            seen = ready.load(std::memory_order_acquire);
        }
        if (seen % 2 == 1) {
            feed_stream(pass);
        }
    }
}

void session::feed_threaded(std::span<const trace::mem_access> chunk) {
    // Passes of different block sizes run concurrently, so every distinct
    // stream of this chunk is live at once — chunk * 13 bytes per distinct
    // block size, the O(chunk) threaded memory bound.  Hand the chunk to
    // the persistent pool and wait for the barrier: the atomic cursor
    // balances unit costs; passes are independent, so the assignment order
    // cannot affect results.
    worker_pool& pool = *pool_;
    {
        const std::lock_guard<std::mutex> lock{pool.mutex};
        pool.chunk = chunk;
        pool.cursor.store(0, std::memory_order_relaxed);
        pool.running = pool.workers.size();
        ++pool.generation;
    }
    pool.start_cv.notify_all();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock{pool.mutex};
        // `dead` unblocks the barrier when a worker died outside a
        // generation and `running` can therefore never reach zero.
        pool.done_cv.wait(lock,
                          [&] { return pool.running == 0 || pool.dead; });
        error = std::exchange(pool.error, nullptr);
    }
    if (error) {
        // Surface the worker's exception on the owning thread; step()'s
        // catch block marks the session exhausted, exactly as it does for
        // a serial-path throw.
        std::rethrow_exception(error);
    }
}

bool session::step() {
    // Post-exhaustion stepping is well-defined either way the stream ended:
    // a drained session keeps returning false, a failed session keeps
    // rethrowing the fault that stopped it.  A scheduler re-polling sessions
    // therefore observes the original error on every poll instead of a
    // silent end-of-stream.
    if (error_) {
        std::rethrow_exception(error_);
    }
    if (exhausted_) {
        return false;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::span<const trace::mem_access> chunk =
        source_->next_view(options_.chunk_records, chunk_buffer_);
    if (chunk.empty()) {
        exhausted_ = true;
        return false;
    }
    requests_ += chunk.size();
    ++steps_;
    try {
        if (request_.threads > 0 && passes_.size() > 1) {
            feed_threaded(chunk);
        } else {
            feed_serial(chunk);
        }
    } catch (...) {
        // A partially-fed chunk leaves the passes inconsistent with each
        // other; refuse further simulation and store the fault so every
        // later step() rethrows it instead of reporting end-of-stream.
        exhausted_ = true;
        error_ = std::current_exception();
        throw;
    }
    const auto stop = std::chrono::steady_clock::now();
    seconds_ += std::chrono::duration<double>(stop - start).count();
    return true;
}

void session::run() {
    while (step()) {
    }
}

std::size_t session::buffer_bytes() const noexcept {
    std::size_t total =
        chunk_buffer_.capacity() * sizeof(trace::mem_access);
    for (const std::vector<std::uint64_t>& stream : streams_) {
        total += stream.capacity() * sizeof(std::uint64_t);
    }
    for (const mra_walk_buffer& buffer : walk_buffers_) {
        total += buffer.bytes();
    }
    return total;
}

sweep_result session::result() const {
    // A failed step leaves the passes inconsistent with each other (the
    // chunk was partially fed); handing out a result would paper over
    // exactly the fault step() stores.  Rethrow it here too.
    if (error_) {
        std::rethrow_exception(error_);
    }
    sweep_result out;
    out.requests = requests_;
    out.seconds = seconds_;
    out.passes.reserve(passes_.size());
    for (const std::unique_ptr<detail::sweep_pass>& p : passes_) {
        out.passes.push_back(p->result());
    }
    return out;
}

sweep_result run_sweep(trace::source& src, const sweep_request& request,
                       session_options options) {
    session s{src, request, options};
    s.run();
    return s.result();
}

} // namespace dew::core
