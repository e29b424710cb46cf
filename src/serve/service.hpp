// serve::service — an in-process, multi-tenant sweep query engine for
// design-space-exploration workloads: thousands of sweep requests against
// a shared trace corpus, most of them duplicates of questions already
// answered.  It answers one kind of exact question, fast DEW miss counts;
// counted sweeps and the CIPAR engine stay core::run_sweep calls.
// docs/API.md §5 is the full contract.
//
//   * Content addressing.  Traces are identified by a streaming 128-bit
//     digest (trace/digest.hpp), requests by the fingerprint of their
//     canonical form (serve/key.hpp): the same question about the same
//     records is the same question however it was spelled.
//   * Result cache.  A sharded FIFO-bounded map (serve/cache.hpp) whose
//     only exact unit is one column: the (trace, block size B,
//     associativity A) pass at the depth it was computed.  Capacity counts
//     entries, so a request of |B| x |A| passes occupies that many.
//     save_cache / load_cache persist the columns with per-entry and
//     whole-file checksums and a salvage mode for crash-truncated files.
//   * Subsumption.  One DEW pass at depth L holds the exact misses of every
//     set count 2^0..2^L, so a column at depth L answers any request
//     at L' <= L as a prefix, and a deeper column replaces a shallower one.
//   * Scheduler.  submit() snapshots the columns an exact request needs.
//     When all are present it composes the answer on the calling thread (a
//     cache hit, so a repeated exact request is a composed hit, not a
//     stored pointer).  Otherwise identical in-flight requests coalesce:
//     N callers, one computation.  Jobs interleave on a fixed worker pool
//     above a bounded queue (overflow_policy: block, fail fast with
//     service_overloaded, or shed to the estimate tier past a
//     high-watermark).
//   * Tiers: two kinds of flight.  service_mode::exact runs one shard job
//     per block size with a missing column, each a run_sweep over the
//     canonical sweep narrowed to that block size and its missing
//     associativities (one decode and one stage 1 per block size).  At
//     settle it caches the new columns and composes the answer from the
//     snapshot plus the computed passes: run_sweep(trace,
//     canonical(request).sweep) bit for bit.  Nothing derived from a trace
//     but the columns outlives a job.
//     service_mode::representative is one job: the phase estimate
//     (src/phase/) and, with a positive error budget, one exact sweep that
//     calibrates it and, past the budget, is served as the fallback.
//   * Load shedding.  Under overflow_policy::degrade, submit() rewrites an
//     exact request that missed the cache and the in-flight map into its
//     estimate-tier question (the uncalibrated estimate at default phase
//     knobs and warm-up) and runs that through the same probe -> coalesce
//     -> create path under its own key.  Only the waiter is marked
//     degraded, so no exact waiter is ever handed an estimate.
//
// Failure semantics:
//
//   * Deadlines (service_request::deadline) are enforced at job pickup and
//     flight completion: a late waiter gets service_timeout, and a flight
//     with no live waiters is *abandoned* — queued jobs are skipped,
//     running ones discarded, nothing cached.
//   * submission::cancel() withdraws one waiter (service_cancelled); the
//     last one out abandons the flight as above.
//   * classify_fault sorts a failing flight's fault: *transient* flights
//     retry up to service_options::max_retries times with exponential
//     backoff capped at retry_backoff_cap; *permanent* ones fail every
//     waiter at once.  No failed flight is ever cached.
//   * service_options::fault_hook, if set, runs at the start of every job
//     and may throw: the seam the fault tests and benchmarks drive.
//
// Threading: every public method is safe to call from any thread.  Results
// are immutable and shared; stats() is a relaxed snapshot.
#ifndef DEW_SERVE_SERVICE_HPP
#define DEW_SERVE_SERVICE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "obs/event.hpp"
#include "serve/cache.hpp"
#include "serve/key.hpp"
#include "trace/record.hpp"

namespace dew::serve {

// Thrown by submit() under overflow_policy::fail_fast when the job queue
// cannot take the request's jobs.  Classified transient: the same request
// resubmitted later may well fit.
class service_overloaded : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Surfaced through a submission's future when its deadline passed before
// the answer was ready.
class service_timeout : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Surfaced through a submission's future after submission::cancel().
class service_cancelled : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class overflow_policy : std::uint8_t {
    block = 0,     // submit() waits for queue space (default)
    fail_fast = 1, // submit() throws service_overloaded
    // Graceful degradation: an exact request that misses the cache and the
    // in-flight map while the queue is at/above degrade_watermark is
    // answered by its estimate-tier question (the uncalibrated estimate at
    // default phase knobs and warm-up), flagged `degraded` and cached
    // under the estimate key only.  Below the watermark behaves like block.
    degrade = 2,
};

// How a failed flight's fault is treated (see classify_fault).
enum class fault_class : std::uint8_t {
    transient = 0, // worth retrying: I/O hiccups, overload, stream failures
    permanent = 1, // retry cannot help: bad input, contract violations
};

// Classifies the exception behind `error`.  Transient: trace::io_fault,
// service_overloaded, std::ios_base::failure and other std::system_error.
// Permanent: std::logic_error (invalid_argument, contract_violation, ...),
// service_timeout / service_cancelled, and anything unrecognised — when in
// doubt, do not retry.
[[nodiscard]] fault_class
classify_fault(const std::exception_ptr& error) noexcept;

// Upper bound of one transient-fault retry's backoff sleep: it bounds how
// long one fault can idle a worker thread.
inline constexpr std::chrono::nanoseconds retry_backoff_cap =
    std::chrono::milliseconds{50};

// Wide per-request event ring size: one obs::request_event per settled
// request, oldest dropped past this bound.
inline constexpr std::size_t event_ring_capacity = 1024;

struct service_options {
    // Worker threads executing jobs; >= 1.
    unsigned workers{2};
    // Bounded job queue: the backpressure surface.  A request needs one
    // queue slot per block size with a missing column (exact) or one slot
    // (representative).  Must be >= 1.
    std::size_t queue_capacity{256};
    overflow_policy overflow{overflow_policy::block};
    cache_options cache{};
    // Transient-fault retries per flight (0 = fail on first fault).  The
    // n-th retry sleeps min(retry_backoff * 2^n, retry_backoff_cap) on the
    // finishing worker before the flight's jobs requeue at the FRONT of
    // the queue (ahead of new work, and exempt from the capacity bound so
    // a full queue cannot deadlock a retry).
    unsigned max_retries{2};
    std::chrono::nanoseconds retry_backoff{std::chrono::milliseconds{1}};
    // overflow_policy::degrade only: queue length at/above which exact
    // requests degrade.  0 = half the queue capacity (at least 1).
    std::size_t degrade_watermark{0};
    // Fault-injection seam: if set, runs at the start of every shard-job
    // execution as fault_hook(shard_index, attempt) and may throw — the
    // exception fails the flight exactly as a real engine fault would.
    std::function<void(std::size_t, unsigned)> fault_hook{};

    // Fleet observability (docs/OBSERVABILITY.md, Fleet):
    //
    // This server's stable identity in wide events and aggregated scrapes
    // (0 = unnamed / single-process).  Pure telemetry.
    std::uint64_t node_id{0};
    // Rolling SLO over settled-request total latency: a settle slower than
    // slo_target burns error budget; the window is the horizon the
    // serve.slo.window_* gauges summarise.
    std::chrono::nanoseconds slo_target{std::chrono::milliseconds{100}};
    std::chrono::nanoseconds slo_window{std::chrono::seconds{60}};
};

struct service_result {
    // Exact tier (and representative fallback): the full sweep, equal to
    // run_sweep(trace, canonical(request).sweep) bit for bit.
    std::shared_ptr<const core::sweep_result> sweep;
    // Representative tier: the phase estimate (also set alongside `sweep`
    // when the service fell back, so the caller can see both).
    std::shared_ptr<const phase::representative_sweep_result> estimate;
    bool cache_hit{false};  // answered without any computation (an exact
                            // answer composed from cached columns)
    bool coalesced{false};  // joined another caller's in-flight computation
    bool estimated{false};  // served by the representative tier
    bool fell_back_exact{false}; // estimate exceeded the budget; sweep served
    // overflow_policy::degrade answered this exact request with its
    // estimate-tier question.  The answer is cached under the estimate key
    // only: the exact question, asked again under less load, is computed.
    bool degraded{false};
    // Transient-fault retries this flight needed before succeeding.
    unsigned flight_retries{0};
    double max_abs_error_pp{0.0}; // calibrated representative answers only
};

struct service_stats {
    std::uint64_t submitted{0};
    std::uint64_t completed{0};
    std::uint64_t cache_hits{0};   // submit-time cache answers (exact:
                                   // every column was cached)
    std::uint64_t coalesced{0};    // submits folded into an in-flight flight
    std::uint64_t computations{0}; // flights actually simulated
    std::uint64_t shard_jobs{0};   // jobs executed by the pool (exact:
                                   // one per block size missing a column)
    std::uint64_t stream_builds{0}; // block-size decodes shard jobs ran
    std::uint64_t stream_reuses{0}; // always 0: no decode is shared
    std::uint64_t rejected{0};      // fail-fast overflow rejections
    std::uint64_t representative_served{0}; // estimate-tier computations
                                            // served as estimates
    std::uint64_t exact_fallbacks{0}; // estimates that fell back to exact
    std::uint64_t cache_evictions{0};
    std::uint64_t timeouts{0};      // waiters settled with service_timeout
    std::uint64_t cancellations{0}; // waiters settled via cancel()
    std::uint64_t retries{0};       // retry attempts scheduled
    std::uint64_t retry_successes{0}; // flights that recovered via retry
    std::uint64_t transient_faults{0}; // flight faults classified transient
    std::uint64_t permanent_faults{0}; // flight faults classified permanent
    std::uint64_t degraded_served{0};  // degraded answers handed out
    std::uint64_t expired_flights{0};  // flights abandoned (no live waiters)

    // Gauges — instantaneous levels at the stats() call, not monotone
    // counts: jobs sitting in the bounded queue and flights in the air
    // (registered, not yet finished/failed).  Also exported, alongside
    // the stage latency histograms, through obs::registry::instance().
    std::uint64_t queue_depth{0};
    std::uint64_t inflight_flights{0};

    // Fraction of submits answered straight from the cache.
    [[nodiscard]] double cache_hit_rate() const noexcept {
        return submitted == 0 ? 0.0
                              : static_cast<double>(cache_hits) /
                                    static_cast<double>(submitted);
    }

    // Average submits folded into one computation: (computations +
    // coalesced) / computations.  1.0 = no duplicate in-flight work.
    [[nodiscard]] double coalesce_factor() const noexcept {
        return computations == 0
                   ? 1.0
                   : static_cast<double>(computations + coalesced) /
                         static_cast<double>(computations);
    }

    // Fraction of submissions that timed out.
    [[nodiscard]] double timeout_rate() const noexcept {
        return submitted == 0 ? 0.0
                              : static_cast<double>(timeouts) /
                                    static_cast<double>(submitted);
    }

    // Fraction of retry attempts that resolved their flight.  1.0 means
    // every retried flight recovered on its first retry.
    [[nodiscard]] double retry_success_rate() const noexcept {
        return retries == 0 ? 0.0
                            : static_cast<double>(retry_successes) /
                                  static_cast<double>(retries);
    }
};

// Every service_stats field with its name, in declaration order: the one
// list the wire codec and the router's fleet sum walk.
inline constexpr std::pair<const char*, std::uint64_t service_stats::*>
    service_stats_fields[] = {
        {"submitted", &service_stats::submitted},
        {"completed", &service_stats::completed},
        {"cache_hits", &service_stats::cache_hits},
        {"coalesced", &service_stats::coalesced},
        {"computations", &service_stats::computations},
        {"shard_jobs", &service_stats::shard_jobs},
        {"stream_builds", &service_stats::stream_builds},
        {"stream_reuses", &service_stats::stream_reuses},
        {"rejected", &service_stats::rejected},
        {"representative_served", &service_stats::representative_served},
        {"exact_fallbacks", &service_stats::exact_fallbacks},
        {"cache_evictions", &service_stats::cache_evictions},
        {"timeouts", &service_stats::timeouts},
        {"cancellations", &service_stats::cancellations},
        {"retries", &service_stats::retries},
        {"retry_successes", &service_stats::retry_successes},
        {"transient_faults", &service_stats::transient_faults},
        {"permanent_faults", &service_stats::permanent_faults},
        {"degraded_served", &service_stats::degraded_served},
        {"expired_flights", &service_stats::expired_flights},
        {"queue_depth", &service_stats::queue_depth},
        {"inflight_flights", &service_stats::inflight_flights},
};

// A submission's answer, delivered once: the result (null error) or the
// fault that replaced it.  It runs on the thread that settles the
// submission — a worker, the canceller, or the submitter itself on a cache
// hit — with no service lock held and after the settle's telemetry is
// recorded; a throw from it is trapped.  It may re-enter the service but
// must not wait on its progress (drain(), get()).  docs/API.md §5.
using completion =
    std::function<void(service_result result, std::exception_ptr error)>;

// Withdraws one submission (see submission::cancel); empty when it was
// answered before submit returned.
using cancel_lever = std::function<bool()>;

// The handle the future form of submit() returns: the result future plus
// the lever to withdraw the submission.  Movable, not copyable (it owns
// the future).  net::client hands out the same type.
class submission {
public:
    submission() = default;

    // The future form over a completion form: `start(done)` begins the
    // work with a completion that settles this future, and returns the
    // work's cancel lever.
    [[nodiscard]] static submission
    adapt(const std::function<cancel_lever(completion)>& start);

    // Future accessors, forwarded.  get() blocks and either returns the
    // result or rethrows the flight's fault / service_timeout /
    // service_cancelled.
    [[nodiscard]] service_result get() { return future_.get(); }
    void wait() const { future_.wait(); }
    template <class Rep, class Period>
    [[nodiscard]] std::future_status
    wait_for(const std::chrono::duration<Rep, Period>& timeout) const {
        return future_.wait_for(timeout);
    }
    [[nodiscard]] bool valid() const noexcept { return future_.valid(); }

    // Withdraws this submission: its future fails with service_cancelled,
    // and a flight left with no live waiters is abandoned — queued jobs
    // are skipped, running ones are discarded, nothing is cached.  Returns
    // true iff this call did the cancelling; false when the submission
    // already settled (answered, failed, timed out, or cancelled before) —
    // a settled answer stays readable through get().  Safe to call after
    // the service is gone; never blocks on a simulation.
    bool cancel() { return cancel_ && cancel_(); }

private:
    submission(std::future<service_result> future, cancel_lever cancel)
        : future_{std::move(future)}, cancel_{std::move(cancel)} {}

    std::future<service_result> future_;
    cancel_lever cancel_;
};

class service {
public:
    // Spawns the worker pool.  Throws std::invalid_argument on zero
    // workers/queue capacity (cache options validate in result_cache).
    explicit service(service_options options = {});

    // Completes all queued work, then stops the workers: destruction never
    // breaks an outstanding future.  (Abandoned flights' queued jobs are
    // skipped, so a cancelled backlog drains in bookkeeping time.)
    ~service();

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    // Registers `records` under `name` and returns the content digest.
    // Re-registering a name with identical content is a no-op; different
    // content throws std::invalid_argument (a name is an alias, not a
    // version).  Two names with equal content share cache entries — the
    // digest, not the name, is the identity.
    trace::trace_digest add_trace(std::string name, trace::mem_trace records);
    [[nodiscard]] bool has_trace(std::string_view name) const;

    // Asynchronously answers `request` against the named trace.  Throws
    // std::invalid_argument (unknown trace or ill-formed request)
    // and service_overloaded (fail-fast overflow); any fault inside the
    // computation surfaces through the submission's future after the retry
    // policy is exhausted.  The result flags say how the answer was
    // produced; the handle's cancel() withdraws it.
    [[nodiscard]] submission submit(std::string_view trace_name,
                                    const service_request& request);

    // The completion form, which the future form adapts: the same
    // admission, throws and settle semantics, answer delivered to `done`
    // (never run when submit throws).
    [[nodiscard]] cancel_lever submit(std::string_view trace_name,
                                      const service_request& request,
                                      completion done);

    // Blocks until every submitted request has completed.  (With pause()
    // in effect, waits for resume() first.)
    void drain();

    // Holds workers before their next job / releases them.  Lets tests and
    // operators stage a burst of submissions and observe coalescing
    // deterministically, or quiesce the pool before save_cache.
    void pause();
    void resume();

    [[nodiscard]] service_stats stats() const;

    // Oldest-first snapshot of the wide per-request event ring: one record
    // per settled request, capacity event_ring_capacity.
    // What the get_events wire pair ships and events_jsonl renders.
    [[nodiscard]] std::vector<obs::request_event> events() const;

    // Cache persistence (serve/cache.hpp); call on a quiesced service or
    // accept a racy-but-consistent snapshot.  load_cache in strict mode is
    // transactional (throws, cache untouched); salvage mode recovers the
    // verified prefix of a damaged file and reports what happened.
    void save_cache(std::ostream& out) const;
    cache_load_report load_cache(std::istream& in,
                                 load_mode mode = load_mode::strict);

private:
    struct trace_entry;
    struct flight;
    struct job;
    struct state;

    std::unique_ptr<state> state_;
};

} // namespace dew::serve

#endif // DEW_SERVE_SERVICE_HPP
