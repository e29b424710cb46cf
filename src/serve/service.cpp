#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dew/sweep.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "phase/representative_sweep.hpp"
#include "trace/digest.hpp"
#include "trace/fault.hpp"

namespace dew::serve {

fault_class classify_fault(const std::exception_ptr& error) noexcept {
    // Most-derived first; the generic std::runtime_error and the catch-all
    // land on permanent — when in doubt, do not retry.
    try {
        std::rethrow_exception(error);
    } catch (const trace::io_fault&) {
        return fault_class::transient;
    } catch (const service_overloaded&) {
        return fault_class::transient;
    } catch (const service_timeout&) {
        return fault_class::permanent; // a terminal outcome, not a hiccup
    } catch (const service_cancelled&) {
        return fault_class::permanent;
    } catch (const std::system_error&) {
        // std::ios_base::failure derives from here since C++11: stream and
        // OS-level I/O trouble is the canonical retryable fault.
        return fault_class::transient;
    } catch (const std::logic_error&) {
        // invalid_argument, contract_violation, ...: the request or the
        // code is wrong; the retry would fail identically.
        return fault_class::permanent;
    } catch (...) {
        return fault_class::permanent;
    }
}

namespace {

using clock = std::chrono::steady_clock;

constexpr clock::time_point no_deadline = clock::time_point::max();

// What an exact request sheds to under overflow_policy::degrade: the
// uncalibrated estimate of the same sweep at default phase knobs and
// warm-up, under its own key.
service_request estimate_question(const service_request& exact) {
    service_request question = exact;
    question.mode = service_mode::representative;
    question.phase = phase::phase_options{};
    question.warmup_records = service_request{}.warmup_records;
    question.error_budget_pp = 0.0;
    return canonical(question);
}

// The pass at depth `level` <= column.max_level().  In the binomial tree a
// level's misses depend only on the levels above it, so the shallower pass
// is a prefix of the deeper one.  A column's counters carry the request
// count alone, which does not depend on the depth.
core::dew_result prefix(const core::dew_result& column, unsigned level) {
    if (column.max_level() == level) {
        return column;
    }
    std::vector<std::uint64_t> misses_assoc(level + 1);
    std::vector<std::uint64_t> misses_dm(level + 1);
    for (unsigned l = 0; l <= level; ++l) {
        misses_assoc[l] = column.misses(l, column.associativity());
        misses_dm[l] = column.misses(l, 1);
    }
    return {level,
            column.associativity(),
            column.block_size(),
            column.requests(),
            std::move(misses_assoc),
            std::move(misses_dm),
            column.counters()};
}

// An exact request's columns, block-major (slot b * |A| + a of the
// canonical grids): each one's cache key, and the entry that answers it at
// the request's depth (null while missing).
struct column_set {
    std::vector<request_key> keys;
    std::vector<std::shared_ptr<const cached_value>> found;
};

column_set columns_of(const trace::trace_digest& digest,
                      const core::sweep_request& normal) {
    column_set columns;
    columns.keys.reserve(normal.block_sizes.size() *
                         normal.associativities.size());
    for (const std::uint32_t block : normal.block_sizes) {
        for (const std::uint32_t assoc : normal.associativities) {
            columns.keys.push_back(column_key(digest, block, assoc));
        }
    }
    columns.found.resize(columns.keys.size());
    return columns;
}

// run_sweep's answer to `normal` over `requests` records, assembled from
// its columns (every slot filled) in run_sweep's block-major order.
// `seconds` reports admission -> assembly.
std::shared_ptr<const core::sweep_result>
compose(const core::sweep_request& normal, std::uint64_t requests,
        const column_set& columns, std::uint64_t admitted_ns) {
    auto sweep = std::make_shared<core::sweep_result>();
    sweep->requests = requests;
    sweep->passes.reserve(columns.found.size());
    for (const std::shared_ptr<const cached_value>& column : columns.found) {
        sweep->passes.push_back(prefix(*column->column, normal.max_set_exp));
    }
    sweep->seconds = 1e-9 * static_cast<double>(obs::now_ns() - admitted_ns);
    return sweep;
}

// One shard job of an exact flight: a block size and the associativities
// whose columns were missing, with the slots they fill and, once the job
// ran, their passes.
struct shard_work {
    std::uint32_t block{0};
    std::vector<std::uint32_t> assocs;
    std::vector<std::size_t> slots;
    std::vector<core::dew_result> passes;
};

// One shard per block size that has a missing column: one decode and one
// stage 1 serve all of its missing associativities.
std::vector<shard_work> plan_shards(const core::sweep_request& normal,
                                    const column_set& columns) {
    std::vector<shard_work> shards;
    const std::size_t width = normal.associativities.size();
    for (std::size_t b = 0; b < normal.block_sizes.size(); ++b) {
        shard_work work;
        work.block = normal.block_sizes[b];
        for (std::size_t a = 0; a < width; ++a) {
            if (!columns.found[b * width + a]) {
                work.assocs.push_back(normal.associativities[a]);
                work.slots.push_back(b * width + a);
            }
        }
        if (!work.slots.empty()) {
            shards.push_back(std::move(work));
        }
    }
    return shards;
}

service_result to_result(const cached_value& value) {
    service_result out;
    out.sweep = value.sweep;
    out.estimate = value.estimate;
    out.estimated = value.estimated;
    out.fell_back_exact = value.fell_back_exact;
    out.max_abs_error_pp = value.max_abs_error_pp;
    return out;
}

static_assert(alignof(std::uint64_t) >=
              std::atomic_ref<std::uint64_t>::required_alignment);

// Every stat the service counts, in one shared block: submission handles
// (whose cancel() must keep counting after the service is destroyed) and
// the service itself update the same counters through a shared_ptr.
struct counters {
    // The service_stats counters, every access through a relaxed
    // std::atomic_ref.  The gauges and cache_evictions stay zero here;
    // stats() reads them from their owners.
    mutable service_stats totals;

    // Stage latency histograms (obs/histogram.hpp): relaxed atomics like
    // the counters above, recorded at stage granularity — submit, cache
    // probe, queue wait, shard execution, settle — never per access (the
    // hot loops stay unobserved by construction).
    obs::histogram submit_ns;
    obs::histogram cache_probe_ns;
    obs::histogram queue_wait_ns;
    obs::histogram shard_ns;
    obs::histogram settle_ns;

    // Exact columns that submits found in the cache or had to compute, one
    // count per column of each exact submit that did not coalesce.  Kept
    // out of service_stats, whose layout the wire freezes.
    std::atomic<std::uint64_t> column_hits{0};
    std::atomic<std::uint64_t> column_misses{0};

    void bump(std::uint64_t service_stats::*field) noexcept {
        std::atomic_ref<std::uint64_t>{totals.*field}.fetch_add(
            1, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t
    load(std::uint64_t service_stats::*field) const noexcept {
        return std::atomic_ref<std::uint64_t>{totals.*field}.load(
            std::memory_order_relaxed);
    }
};

// One caller of one flight.  `deadline` is absolute (no_deadline = none);
// `settled` flips exactly once — whichever of answer / fault / timeout /
// cancel gets there first moves the completion out and fires it.
struct waiter {
    completion done;
    clock::time_point deadline{no_deadline};
    bool settled{false};
    // This caller's own telemetry identity (coalesced waiters each carried
    // their own submit frame and trace context): what their wide event is
    // stamped with, independent of the flight initiator's.
    std::uint64_t correlation{0};
    std::uint64_t trace_hi{0};
    std::uint64_t trace_lo{0};
    bool degraded{false}; // shed by submit to the estimate-tier question
};

} // namespace

// One registered trace: the records and their content digest, immutable
// once registered, so jobs read the records without a lock.
struct service::trace_entry {
    std::string name;
    trace::mem_trace records;
    trace::trace_digest digest;
};

// One coalesced computation: every submit of the same key while this flight
// is in the air appends a waiter instead of new work.
struct service::flight {
    service_request request; // canonical form — what actually runs
    request_key key;
    std::shared_ptr<trace_entry> trace;

    // Guards waiters/live/earliest_deadline/shard passes/value/error.
    std::mutex mutex; // dewlint: lock-order serve-flight 40
    std::vector<waiter> waiters; // [0] = initiator; indices never move
    std::size_t live{0};         // waiters not yet settled
    clock::time_point earliest_deadline{no_deadline};
    // Exact tier: the columns submit snapshotted from the cache, completed
    // at settle with what the shard jobs computed, and one shard job per
    // block size with a missing column.
    column_set columns;
    std::vector<shard_work> shards;
    cached_value value; // the answer; an exact one is composed at settle
    std::exception_ptr error; // first failing job wins

    // No live waiters left (all timed out / cancelled): queued jobs skip,
    // running ones are discarded, nothing is cached.  Set under `mutex`,
    // read lock-free by the job runner; never unset.
    std::atomic<bool> abandoned{false};
    std::atomic<unsigned> attempt{0};      // 0 = first try
    std::atomic<std::size_t> remaining{0}; // jobs not yet finished

    // Every span this flight emits is tagged with request.obs_correlation
    // (the submit frame's DSNW id, 0 = local) and key.request[0]; start_ns
    // anchors the whole-flight span (0 when recording is off at creation).
    std::uint64_t start_ns{0};

    // Wide-event timestamps, independent of the recorder's on/off state
    // (the event ring always runs): admission time, and the first job
    // pickup (0 = never picked up) — together they split a settled
    // request's total into queue_ns and run_ns.  An exact flight's
    // assembled sweep reports admission -> settle as its seconds.
    std::uint64_t admitted_ns{0};
    std::atomic<std::uint64_t> pickup_ns{0};
};

struct service::job {
    std::shared_ptr<flight> target;
    std::size_t shard{0}; // exact tier: index into flight::shards
    // When the job entered the queue (0 = recording off): the queue-wait
    // span/histogram sample is taken by the worker that picks it up.
    std::uint64_t enqueued_ns{0};
};

struct service::state {
    service_options options;
    result_cache cache;
    std::shared_ptr<counters> ctrs = std::make_shared<counters>();

    // Wide per-request events and the rolling SLO window, shared like the
    // counters: cancel() closures settle waiters after the service may be
    // gone and must still record the outcome.
    std::shared_ptr<obs::event_ring> events;
    std::shared_ptr<obs::slo_window> slo;

    mutable std::mutex traces_mutex; // dewlint: lock-order serve-traces 20
    std::unordered_map<std::string, std::shared_ptr<trace_entry>> traces;

    // Mutable: stats() and the metrics provider read the gauge levels
    // (flights.size(), queue.size(), active_jobs) from const context.
    mutable std::mutex flights_mutex; // dewlint: lock-order serve-flights 30
    std::unordered_map<request_key, std::shared_ptr<flight>,
                       request_key_hash>
        flights;

    mutable std::mutex queue_mutex; // dewlint: lock-order serve-queue 60
    std::condition_variable queue_space_cv; // submitters wait for room
    std::condition_variable queue_work_cv;  // workers wait for jobs
    std::condition_variable idle_cv;        // drain() waits here
    std::deque<job> queue;
    std::size_t active_jobs{0};
    // Flights registered but not yet finished/failed — guarded by
    // queue_mutex so drain() can wait on it.  Covers the window where a
    // blocking-mode submit is still pushing a flight's later shard jobs
    // while the earlier ones already ran (queue empty + no active job does
    // NOT imply that flight is done).
    std::size_t open_flights{0};
    bool paused{false};
    bool stop{false};
    // First unrecoverable worker-thread fault (the settling machinery
    // itself failed); rethrown by drain().  Guarded by queue_mutex.
    std::exception_ptr worker_error;
    std::vector<std::thread> workers;

    // True once any submission ever carried a deadline; gates the deadline
    // sweeps so a deadline-free workload pays one relaxed load per job.
    std::atomic<bool> has_deadlines{false};

    // obs::registry::instance() provider handle; 0 = not registered.
    // Registered by the service constructor, revoked first thing in the
    // destructor (remove_provider blocks out in-flight snapshots, so the
    // provider never outlives this state).
    std::uint64_t obs_provider_id{0};

    explicit state(const service_options& opts)
        : options{opts}, cache{opts.cache},
          events{std::make_shared<obs::event_ring>(event_ring_capacity)},
          slo{std::make_shared<obs::slo_window>(
              opts.slo_target.count() > 0
                  ? static_cast<std::uint64_t>(opts.slo_target.count())
                  : 0,
              opts.slo_window.count() > 0
                  ? static_cast<std::uint64_t>(opts.slo_window.count())
                  : 1)} {}

    // One settled waiter -> one wide event + one SLO recording.  Static
    // (state-free) so the cancel closures can call it through their own
    // captured ring/window after the service is destroyed.
    static void settle_event(obs::event_ring& ring, obs::slo_window& window,
                             obs::request_event event) {
        const std::uint64_t now = obs::now_ns();
        if (event.start_ns == 0) {
            event.start_ns = now >= event.total_ns ? now - event.total_ns : 0;
        }
        ring.push(event);
        window.record(now, event.total_ns);
    }

    // The flight-derived parts of a wide event; the caller fills the
    // per-waiter identity (correlation/trace) and the disposition.
    static obs::request_event flight_event(const flight& f,
                                           std::uint64_t node) {
        obs::request_event e;
        e.key_hi = f.key.request[0];
        e.key_lo = f.key.request[1];
        e.node = node;
        e.tier = f.request.mode == service_mode::exact ? 0 : 1;
        e.retries = f.attempt.load(std::memory_order_relaxed);
        e.start_ns = f.admitted_ns;
        const std::uint64_t now = obs::now_ns();
        e.total_ns = now >= f.admitted_ns ? now - f.admitted_ns : 0;
        const std::uint64_t pickup =
            f.pickup_ns.load(std::memory_order_relaxed);
        if (pickup >= f.admitted_ns && pickup != 0) {
            e.queue_ns = pickup - f.admitted_ns;
            e.run_ns = now >= pickup ? now - pickup : 0;
        }
        return e;
    }

    // A waiter settled under its flight's lock: the completion to fire and
    // the wide event to record once the lock is released.
    struct taken {
        completion done;
        obs::request_event event;
        bool joined{false};
    };

    // A shed waiter's answer, however it was served: its disposition (which
    // flags the result too) and the counter, before the completion fires.
    static void mark_degraded(taken& t, counters& c) {
        t.event.disposition = obs::event_disposition::degraded;
        c.bump(&service_stats::degraded_served);
    }

    // Settles waiter `i` of `f` (f.mutex held).  `settled` flips once, so
    // the first settle site here owns the completion; cancel levers index
    // the vector, so waiters are never erased.
    static taken take(flight& f, std::size_t i, std::uint64_t node,
                      obs::event_disposition disposition, counters& c) {
        waiter& w = f.waiters[i];
        w.settled = true;
        --f.live;
        // Before the completion fires: get() must observe `completed`.
        c.bump(&service_stats::completed);
        obs::request_event e = flight_event(f, node);
        e.correlation = w.correlation;
        e.trace_hi = w.trace_hi;
        e.trace_lo = w.trace_lo;
        e.disposition = disposition;
        taken t{std::move(w.done), e, i > 0};
        if (w.degraded && (disposition == obs::event_disposition::computed ||
                           disposition == obs::event_disposition::coalesced)) {
            mark_degraded(t, c);
        }
        return t;
    }

    // Every still-live waiter of `f`: the initiator as `first`, coalesced
    // joiners as `joined`.
    std::vector<taken> take_live(flight& f, obs::event_disposition first,
                                 obs::event_disposition joined) {
        std::vector<taken> batch;
        const std::lock_guard<std::mutex> lock{f.mutex};
        batch.reserve(f.live);
        for (std::size_t i = 0; i < f.waiters.size(); ++i) {
            if (!f.waiters[i].settled) {
                batch.push_back(take(f, i, options.node_id,
                                     i > 0 ? joined : first, *ctrs));
            }
        }
        return batch;
    }

    // Every settle site's delivery, with no lock held: all wide events,
    // then each completion (`error`, or `answer` flagged per waiter).  A
    // completion may send the reply and so close the requester's span;
    // telemetry after it would fall outside that span (obs.stitch_test and
    // obs.fleet_test prove the containment).
    static void deliver(const std::vector<taken>& batch,
                        obs::event_ring& ring, obs::slo_window& window,
                        const std::exception_ptr& error,
                        const service_result& answer = {}) {
        for (const taken& t : batch) {
            settle_event(ring, window, t.event);
        }
        for (const taken& t : batch) {
            service_result result = error ? service_result{} : answer;
            result.coalesced = !error && t.joined;
            result.degraded =
                t.event.disposition == obs::event_disposition::degraded;
            try {
                if (t.done) {
                    t.done(std::move(result), error);
                }
            } catch (...) {
                // Trapped: a throwing completion must reach neither the
                // settling thread nor the waiters after it.
            }
        }
    }

    // The obs::registry provider: every counter, gauge and stage
    // histogram under one "serve." namespace (docs/OBSERVABILITY.md).
    // Runs with the registry mutex held — takes the gauge locks
    // sequentially, never nested, and never calls back into obs.
    void sample_metrics(std::vector<obs::metric_sample>& out) const {
        const counters& c = *ctrs;
        // Literal names rather than a walk of service_stats_fields: the
        // metric-catalogue lint checks these literals against the docs.
        const auto counter = [&out, &c](const char* name,
                                        std::uint64_t service_stats::*field) {
            out.push_back(
                {name, obs::metric_kind::counter, c.load(field), {}});
        };
        counter("serve.submitted", &service_stats::submitted);
        counter("serve.completed", &service_stats::completed);
        counter("serve.cache_hits", &service_stats::cache_hits);
        counter("serve.coalesced", &service_stats::coalesced);
        counter("serve.computations", &service_stats::computations);
        counter("serve.shard_jobs", &service_stats::shard_jobs);
        counter("serve.stream_builds", &service_stats::stream_builds);
        counter("serve.stream_reuses", &service_stats::stream_reuses);
        counter("serve.rejected", &service_stats::rejected);
        counter("serve.representative_served",
                &service_stats::representative_served);
        counter("serve.exact_fallbacks", &service_stats::exact_fallbacks);
        counter("serve.timeouts", &service_stats::timeouts);
        counter("serve.cancellations", &service_stats::cancellations);
        counter("serve.retries", &service_stats::retries);
        counter("serve.retry_successes", &service_stats::retry_successes);
        counter("serve.transient_faults", &service_stats::transient_faults);
        counter("serve.permanent_faults", &service_stats::permanent_faults);
        counter("serve.degraded_served", &service_stats::degraded_served);
        counter("serve.expired_flights", &service_stats::expired_flights);
        const cache_stats cstats = cache.stats();
        const auto plain = [&out](const char* name, obs::metric_kind kind,
                                  std::uint64_t value) {
            out.push_back({name, kind, value, {}});
        };
        plain("serve.cache.hits", obs::metric_kind::counter, cstats.hits);
        plain("serve.cache.misses", obs::metric_kind::counter,
              cstats.misses);
        plain("serve.cache.insertions", obs::metric_kind::counter,
              cstats.insertions);
        plain("serve.cache.evictions", obs::metric_kind::counter,
              cstats.evictions);
        plain("serve.cache.entries", obs::metric_kind::gauge,
              cstats.entries);
        plain("serve.cache.column_hits", obs::metric_kind::counter,
              c.column_hits.load(std::memory_order_relaxed));
        plain("serve.cache.column_misses", obs::metric_kind::counter,
              c.column_misses.load(std::memory_order_relaxed));
        std::uint64_t depth = 0;
        std::uint64_t occupancy = 0;
        {
            const std::lock_guard<std::mutex> lock{queue_mutex};
            depth = queue.size();
            occupancy = active_jobs;
        }
        plain("serve.queue_depth", obs::metric_kind::gauge, depth);
        plain("serve.pool_occupancy", obs::metric_kind::gauge, occupancy);
        std::uint64_t inflight = 0;
        {
            const std::lock_guard<std::mutex> lock{flights_mutex};
            inflight = flights.size();
        }
        plain("serve.inflight_flights", obs::metric_kind::gauge, inflight);
        plain("serve.node_id", obs::metric_kind::gauge, options.node_id);
        // The wide-event ring's lifetime totals: recorded - dropped is the
        // retained window a get_events scrape can still see.
        plain("serve.events.recorded", obs::metric_kind::counter,
              events->recorded());
        plain("serve.events.dropped", obs::metric_kind::counter,
              events->dropped());
        plain("serve.events.capacity", obs::metric_kind::gauge,
              events->capacity());
        // Rolling SLO window (docs/OBSERVABILITY.md, Fleet): the burn
        // counter is monotone; the window_* gauges cover the last
        // slo_window nanoseconds only.
        plain("serve.slo.target_ns", obs::metric_kind::gauge,
              slo->target_ns());
        plain("serve.slo.window_ns", obs::metric_kind::gauge,
              slo->window_ns());
        plain("serve.slo.p99_violations", obs::metric_kind::counter,
              slo->total_violations());
        const obs::slo_window::window_view slo_view =
            slo->view(obs::now_ns());
        plain("serve.slo.window_count", obs::metric_kind::gauge,
              slo_view.hist.total());
        plain("serve.slo.window_violations", obs::metric_kind::gauge,
              slo_view.violations);
        plain("serve.slo.window_p99_ns", obs::metric_kind::gauge,
              slo_view.hist.p99());
        const auto latency = [&out](const char* name,
                                    const obs::histogram& h) {
            out.push_back({name, obs::metric_kind::latency, 0,
                           h.snapshot()});
        };
        latency("serve.submit_ns", c.submit_ns);
        latency("serve.cache_probe_ns", c.cache_probe_ns);
        latency("serve.queue_wait_ns", c.queue_wait_ns);
        latency("serve.shard_ns", c.shard_ns);
        latency("serve.settle_ns", c.settle_ns);
    }

    // overflow_policy::degrade: an exact request finding the queue at/above
    // the high-watermark is answered by its estimate-tier question instead.
    [[nodiscard]] bool sheds(const service_request& normal) {
        if (options.overflow != overflow_policy::degrade ||
            normal.mode != service_mode::exact) {
            return false;
        }
        const std::size_t watermark =
            options.degrade_watermark != 0
                ? options.degrade_watermark
                : std::max<std::size_t>(options.queue_capacity / 2, 1);
        const std::lock_guard<std::mutex> lock{queue_mutex};
        return queue.size() >= watermark;
    }

    // The cached answer to `normal`, or null, timed as its own stage.  A
    // representative request is one entry.  An exact one is its columns:
    // every slot of `columns` still missing is looked up, and once all are
    // present they compose run_sweep's answer over `requests` records.
    [[nodiscard]] std::shared_ptr<const cached_value>
    probe_cache(const request_key& key, const service_request& normal,
                column_set& columns, std::uint64_t requests,
                std::uint64_t admitted_ns) {
        obs::span probe{"serve.cache_probe", &ctrs->cache_probe_ns,
                        normal.obs_correlation, key.request[0]};
        probe.set_trace(normal.obs_trace_hi, normal.obs_trace_lo);
        if (normal.mode != service_mode::exact) {
            return cache.find(key);
        }
        bool complete = true;
        for (std::size_t i = 0; i < columns.keys.size(); ++i) {
            if (columns.found[i]) {
                continue;
            }
            std::shared_ptr<const cached_value> hit =
                cache.find(columns.keys[i]);
            // A column answers every depth up to its own.
            if (hit && hit->column &&
                hit->column->max_level() >= normal.sweep.max_set_exp) {
                columns.found[i] = std::move(hit);
            } else {
                complete = false;
            }
        }
        if (!complete) {
            return nullptr;
        }
        ctrs->column_hits.fetch_add(columns.keys.size(),
                                    std::memory_order_relaxed);
        auto composed = std::make_shared<cached_value>();
        composed->sweep = compose(normal.sweep, requests, columns, admitted_ns);
        return composed;
    }

    // A submission answered from the cache, settled like a waiter (there
    // is no flight, and no cancel lever: nothing is left to withdraw).
    [[nodiscard]] taken cache_hit(const service_request& normal,
                                  const request_key& key,
                                  std::uint64_t admitted_ns, completion done,
                                  bool degraded) {
        ctrs->bump(&service_stats::cache_hits);
        ctrs->bump(&service_stats::completed);
        obs::request_event e;
        e.trace_hi = normal.obs_trace_hi;
        e.trace_lo = normal.obs_trace_lo;
        e.correlation = normal.obs_correlation;
        e.key_hi = key.request[0];
        e.key_lo = key.request[1];
        e.node = options.node_id;
        e.tier = normal.mode == service_mode::representative ? 1 : 0;
        e.disposition = obs::event_disposition::cache_hit;
        e.start_ns = admitted_ns;
        const std::uint64_t now = obs::now_ns();
        e.total_ns = now >= admitted_ns ? now - admitted_ns : 0;
        taken t{std::move(done), e, false};
        if (degraded) {
            mark_degraded(t, *ctrs);
        }
        return t;
    }

    // The cancel lever for waiter `index` of `f`.  Captures only the
    // flight and the counters (both shared), so it outlives the service.
    [[nodiscard]] cancel_lever make_cancel(std::shared_ptr<flight> f,
                                           std::size_t index) {
        return [f = std::move(f), index, c = ctrs, ring = events,
                window = slo, node = options.node_id]() -> bool {
            std::vector<taken> cancelled;
            {
                const std::lock_guard<std::mutex> lock{f->mutex};
                if (f->waiters[index].settled) {
                    return false;
                }
                cancelled.push_back(take(*f, index, node,
                                         obs::event_disposition::cancelled,
                                         *c));
                c->bump(&service_stats::cancellations);
                if (f->live == 0) {
                    f->abandoned.store(true, std::memory_order_release);
                }
            }
            deliver(cancelled, *ring, *window,
                    std::make_exception_ptr(
                        service_cancelled{"serve: submission cancelled"}));
            return true;
        };
    }

    // Settles every waiter whose deadline has passed.  Called at the two
    // scheduling points (job pickup, flight completion); gated on
    // has_deadlines so deadline-free workloads skip even the clock read.
    void sweep_deadlines(flight& f) {
        if (!has_deadlines.load(std::memory_order_relaxed)) {
            return;
        }
        const clock::time_point now = clock::now();
        std::vector<taken> expired;
        {
            const std::lock_guard<std::mutex> lock{f.mutex};
            if (now < f.earliest_deadline) {
                return;
            }
            clock::time_point next = no_deadline;
            for (std::size_t i = 0; i < f.waiters.size(); ++i) {
                const waiter& w = f.waiters[i];
                if (w.settled) {
                    continue;
                }
                if (now < w.deadline) {
                    next = std::min(next, w.deadline);
                    continue;
                }
                expired.push_back(take(f, i, options.node_id,
                                       obs::event_disposition::timeout,
                                       *ctrs));
                ctrs->bump(&service_stats::timeouts);
            }
            f.earliest_deadline = next;
            if (f.live == 0 &&
                !f.abandoned.load(std::memory_order_relaxed)) {
                f.abandoned.store(true, std::memory_order_release);
                ctrs->bump(&service_stats::expired_flights);
            }
        }
        deliver(expired, *events, *slo,
                std::make_exception_ptr(service_timeout{
                    "serve: submission deadline passed before the answer "
                    "was ready"}));
    }

    [[nodiscard]] static std::size_t job_count(const flight& f) noexcept {
        return f.request.mode == service_mode::exact ? f.shards.size() : 1;
    }

    // One shard of an exact flight: the canonical sweep narrowed to one
    // block size and its missing associativities, run through run_sweep.
    // Its session decodes the records at that block size chunk by chunk
    // and feeds every associativity pass, so the shard keeps no stream
    // beyond one chunk.  (A shard's block and assocs never change after
    // submit; only its passes are guarded.)
    void run_exact_shard(flight& f, std::size_t shard) {
        core::sweep_request narrowed = f.request.sweep;
        narrowed.block_sizes = {f.shards[shard].block};
        narrowed.associativities = f.shards[shard].assocs;
        ctrs->bump(&service_stats::stream_builds);
        core::sweep_result result =
            core::run_sweep(f.trace->records, narrowed);
        const std::lock_guard<std::mutex> lock{f.mutex};
        f.shards[shard].passes = std::move(result.passes);
    }

    // The estimate and, with a positive budget, one exact sweep that
    // calibrates it and is kept only as the fallback past the budget.
    void run_representative(flight& f) {
        phase::representative_sweep_result estimate =
            phase::representative_sweep(
                f.trace->records, {f.request.sweep, f.request.phase,
                                   f.request.warmup_records, false});
        cached_value value;
        value.estimated = true;
        if (f.request.error_budget_pp > 0.0) {
            auto exact = std::make_shared<const core::sweep_result>(
                core::run_sweep(f.trace->records, f.request.sweep));
            phase::calibrate(estimate, *exact);
            if (estimate.max_abs_error_pp > f.request.error_budget_pp) {
                value.sweep = std::move(exact);
                value.fell_back_exact = true;
            }
        }
        ctrs->bump(value.fell_back_exact
                       ? &service_stats::exact_fallbacks
                       : &service_stats::representative_served);
        value.max_abs_error_pp = estimate.max_abs_error_pp;
        value.estimate =
            std::make_shared<const phase::representative_sweep_result>(
                std::move(estimate));
        const std::lock_guard<std::mutex> lock{f.mutex};
        f.value = std::move(value);
    }

    void run_job(const job& j) {
        flight& f = *j.target;
        // First pickup wins: the wide event's queue_ns/run_ns boundary.
        std::uint64_t never = 0;
        f.pickup_ns.compare_exchange_strong(never, obs::now_ns(),
                                            std::memory_order_relaxed);
        // The queue-wait sample covers enqueue -> pickup, recorded by the
        // worker that picked the job up (one span per shard job).
        if (j.enqueued_ns != 0) {
            const std::uint64_t waited = obs::now_ns() - j.enqueued_ns;
            ctrs->queue_wait_ns.record(waited);
            obs::recorder::instance().record(
                "serve.queue_wait", j.enqueued_ns, waited,
                f.request.obs_correlation, f.key.request[0],
                f.request.obs_trace_hi, f.request.obs_trace_lo);
        }
        sweep_deadlines(f);
        if (f.abandoned.load(std::memory_order_acquire)) {
            // Skipped, never started: nobody is waiting for this work.
            if (f.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                finish(j.target);
            }
            return;
        }
        ctrs->bump(&service_stats::shard_jobs);
        try {
            obs::span sp{"serve.shard", &ctrs->shard_ns,
                         f.request.obs_correlation, f.key.request[0]};
            sp.set_trace(f.request.obs_trace_hi, f.request.obs_trace_lo);
            if (options.fault_hook) {
                options.fault_hook(
                    j.shard, f.attempt.load(std::memory_order_relaxed));
            }
            if (f.request.mode == service_mode::exact) {
                run_exact_shard(f, j.shard);
            } else {
                run_representative(f);
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock{f.mutex};
            if (!f.error) {
                f.error = std::current_exception();
            }
        }
        if (f.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            finish(j.target);
        }
    }

    // Retried flights jump the queue: pushed at the FRONT (ahead of new
    // work — their waiters have been waiting longest) and exempt from the
    // capacity bound.  The exemption is a deadlock matter, not a
    // convenience: the requeue runs on a worker, and a worker blocking on
    // queue space it is itself responsible for freeing never wakes.
    void requeue_front(const std::shared_ptr<flight>& f, std::size_t jobs) {
        const std::uint64_t enqueued = obs::timestamp_if_enabled();
        {
            const std::lock_guard<std::mutex> lock{queue_mutex};
            for (std::size_t i = jobs; i-- > 0;) {
                queue.push_front({f, i, enqueued});
            }
        }
        queue_work_cv.notify_all();
    }

    // Last job of a flight: classify faults and retry transient ones,
    // then assemble, cache, unmap, fulfil every live waiter — in that
    // order.  The result enters the cache *before* the flight leaves the
    // in-flight map, so a submit racing with completion either coalesces
    // (flight still mapped) or hits the cache: there is no window in
    // which a duplicate restarts an already-answered computation.  (A
    // failed or abandoned flight is the exception: it is unmapped without
    // caching, so the next submit retries rather than being served a
    // poisoned or partial entry.)
    void finish(const std::shared_ptr<flight>& f) {
        // A waiter whose deadline passed while the flight computed gets
        // service_timeout even though an answer exists now: a deadline
        // bounds when the answer is useful, not whether it is computable.
        sweep_deadlines(*f);
        const bool abandoned = f->abandoned.load(std::memory_order_acquire);

        std::exception_ptr error;
        {
            const std::lock_guard<std::mutex> lock{f->mutex};
            error = f->error;
        }

        if (error) {
            const fault_class cls = classify_fault(error);
            if (cls == fault_class::transient) {
                ctrs->bump(&service_stats::transient_faults);
            } else {
                ctrs->bump(&service_stats::permanent_faults);
            }
            const unsigned attempt =
                f->attempt.load(std::memory_order_relaxed);
            if (cls == fault_class::transient && !abandoned &&
                attempt < options.max_retries) {
                ctrs->bump(&service_stats::retries);
                // Capped exponential backoff, slept on this worker: the
                // cap bounds how long one transient fault can idle a
                // worker thread.
                std::chrono::nanoseconds delay = options.retry_backoff;
                for (unsigned i = 0; i < attempt && delay < retry_backoff_cap;
                     ++i) {
                    delay *= 2;
                }
                std::this_thread::sleep_for(std::min(delay, retry_backoff_cap));
                const std::size_t jobs = job_count(*f);
                {
                    const std::lock_guard<std::mutex> lock{f->mutex};
                    f->error = nullptr;
                    f->value = {};
                    for (shard_work& work : f->shards) {
                        work.passes.clear();
                    }
                }
                f->attempt.fetch_add(1, std::memory_order_relaxed);
                f->remaining.store(jobs, std::memory_order_release);
                requeue_front(f, jobs);
                return; // the flight stays open and mapped
            }
        }

        // Settle: assemble the answer, cache it, unmap the flight, fulfil
        // every live waiter — the tail latency a caller sees after the
        // last shard finished.  An exact answer is composed from the
        // snapshot plus the computed columns, never looked up again, so an
        // eviction since submit cannot break it.
        obs::span settle_span{"serve.settle", &ctrs->settle_ns,
                              f->request.obs_correlation, f->key.request[0]};
        settle_span.set_trace(f->request.obs_trace_hi,
                              f->request.obs_trace_lo);
        cached_value value;
        std::vector<std::pair<request_key, std::shared_ptr<const cached_value>>>
            computed;
        if (!error && !abandoned) {
            const std::lock_guard<std::mutex> lock{f->mutex};
            if (f->request.mode == service_mode::exact) {
                column_set& columns = f->columns;
                for (shard_work& work : f->shards) {
                    for (std::size_t i = 0; i < work.slots.size(); ++i) {
                        auto column = std::make_shared<cached_value>();
                        column->column.emplace(std::move(work.passes[i]));
                        columns.found[work.slots[i]] = column;
                        computed.emplace_back(columns.keys[work.slots[i]],
                                              std::move(column));
                    }
                }
                f->value.sweep =
                    compose(f->request.sweep, f->trace->records.size(),
                            columns, f->admitted_ns);
            }
            value = f->value; // shared payload; waiters and cache alias it
        }
        if (!error && !abandoned) {
            ctrs->bump(&service_stats::computations);
            if (f->attempt.load(std::memory_order_relaxed) > 0) {
                ctrs->bump(&service_stats::retry_successes);
            }
            if (f->request.mode == service_mode::exact) {
                for (auto& [slot_key, column] : computed) {
                    cache.insert(slot_key, std::move(column));
                }
            } else {
                cache.insert(f->key,
                             std::make_shared<const cached_value>(value));
            }
        }
        unmap(f);
        // Settle the live waiters; the disposition ranks failure >
        // degraded (per waiter, see take) > coalesced.
        const std::vector<taken> settled =
            error ? take_live(*f, obs::event_disposition::failed,
                              obs::event_disposition::failed)
                  : take_live(*f, obs::event_disposition::computed,
                              obs::event_disposition::coalesced);
        settle_span.finish();
        // The whole-flight span: creation -> settled, the envelope the
        // queue/shard/settle spans decompose.
        if (f->start_ns != 0) {
            obs::recorder::instance().record(
                "serve.flight", f->start_ns, obs::now_ns() - f->start_ns,
                f->request.obs_correlation, f->key.request[0],
                f->request.obs_trace_hi, f->request.obs_trace_lo);
        }
        service_result answer;
        if (!error) {
            answer = to_result(value);
            answer.flight_retries = f->attempt.load(std::memory_order_relaxed);
        }
        deliver(settled, *events, *slo, error, answer);
        close_flight();
    }

    // Out of the in-flight map — conditionally: an abandoned flight may
    // already have been replaced by a fresh one for the same key, and that
    // newcomer must not be evicted by its predecessor's funeral.
    void unmap(const std::shared_ptr<flight>& f) {
        const std::lock_guard<std::mutex> lock{flights_mutex};
        const auto it = flights.find(f->key);
        if (it != flights.end() && it->second == f) {
            flights.erase(it);
        }
    }

    void close_flight() {
        const std::lock_guard<std::mutex> lock{queue_mutex};
        --open_flights;
        if (open_flights == 0 && queue.empty() && active_jobs == 0) {
            idle_cv.notify_all();
        }
    }

    // Queue the flight's jobs under the backpressure policy.  Throws
    // service_overloaded (fail-fast, or a request wider than the whole
    // queue); the caller unwinds the flight.  overflow_policy::degrade
    // blocks here like `block` — submit has already shed what it sheds.
    void enqueue(const std::shared_ptr<flight>& f, std::size_t jobs) {
        const std::uint64_t enqueued = obs::timestamp_if_enabled();
        std::unique_lock<std::mutex> lock{queue_mutex};
        if (options.overflow == overflow_policy::fail_fast) {
            if (queue.size() + jobs > options.queue_capacity) {
                ctrs->bump(&service_stats::rejected);
                throw service_overloaded{
                    "serve: job queue full (" +
                    std::to_string(queue.size()) + " of " +
                    std::to_string(options.queue_capacity) +
                    " slots taken, request needs " + std::to_string(jobs) +
                    ")"};
            }
            for (std::size_t i = 0; i < jobs; ++i) {
                queue.push_back({f, i, enqueued});
            }
        } else {
            for (std::size_t i = 0; i < jobs; ++i) {
                queue_space_cv.wait(lock, [&] {
                    return queue.size() < options.queue_capacity;
                });
                queue.push_back({f, i, enqueued});
                queue_work_cv.notify_one();
            }
        }
        queue_work_cv.notify_all();
    }

    // Unwind a flight whose jobs could not be queued: out of the in-flight
    // map first (no new joiners), then every live waiter — including
    // coalescers that joined while we were trying — sees the failure.
    void fail_flight(const std::shared_ptr<flight>& f,
                     const std::exception_ptr& error) {
        unmap(f);
        // A queue rejection and an internal fault are different outcomes
        // in the wide-event record even though both unwind the same way.
        obs::event_disposition disposition = obs::event_disposition::failed;
        try {
            std::rethrow_exception(error);
        } catch (const service_overloaded&) {
            disposition = obs::event_disposition::rejected;
        } catch (...) {
        }
        // Unwound submissions are still completed submissions: the
        // submitted/completed balance must survive a rejection.
        deliver(take_live(*f, disposition, disposition), *events, *slo,
                error);
        close_flight();
    }

    // dewlint: thread-body worker_loop
    void worker_loop() {
        // `counted` tracks whether this worker holds an active_jobs slot,
        // so the trap below can release it without double-counting.
        bool counted = false;
        try {
            for (;;) {
                job j;
                {
                    std::unique_lock<std::mutex> lock{queue_mutex};
                    queue_work_cv.wait(lock, [&] {
                        return stop || (!paused && !queue.empty());
                    });
                    // pause/stop only mutate under queue_mutex, so an
                    // empty queue here implies stop (drained; exit), and a
                    // non-empty one is ours to pop — stop overrides pause.
                    if (queue.empty()) {
                        return;
                    }
                    j = std::move(queue.front());
                    queue.pop_front();
                    ++active_jobs;
                    counted = true;
                }
                queue_space_cv.notify_one();
                try {
                    run_job(j);
                } catch (...) {
                    // run_job settles engine faults into the flight, so a
                    // throw here is the settling machinery itself failing
                    // (e.g. an allocation mid-finish, always before the
                    // flight's close_flight).  Fail the flight so its
                    // waiters see the fault instead of never settling.
                    fail_flight(j.target, std::current_exception());
                }
                {
                    const std::lock_guard<std::mutex> lock{queue_mutex};
                    --active_jobs;
                    counted = false;
                    if (open_flights == 0 && queue.empty() &&
                        active_jobs == 0) {
                        idle_cv.notify_all();
                    }
                }
            }
        } catch (...) {
            // Even the flight-failure path threw (or the queue machinery
            // did): record the fault for drain() and retire this worker —
            // an escape would std::terminate the whole process.
            const std::lock_guard<std::mutex> lock{queue_mutex};
            if (!worker_error) {
                worker_error = std::current_exception();
            }
            if (counted) {
                --active_jobs;
            }
            if (open_flights == 0 && queue.empty() && active_jobs == 0) {
                idle_cv.notify_all();
            }
        }
    }
};

service::service(service_options options) {
    if (options.workers == 0) {
        throw std::invalid_argument{"service_options::workers must be > 0"};
    }
    if (options.queue_capacity == 0) {
        throw std::invalid_argument{
            "service_options::queue_capacity must be > 0"};
    }
    state_ = std::make_unique<state>(options);
    state_->workers.reserve(options.workers);
    for (unsigned w = 0; w < options.workers; ++w) {
        state_->workers.emplace_back([s = state_.get()] { s->worker_loop(); });
    }
    state_->obs_provider_id = obs::registry::instance().add_provider(
        [s = state_.get()](std::vector<obs::metric_sample>& out) {
            s->sample_metrics(out);
        });
}

service::~service() {
    // Revoke the metrics provider before anything else dies: once
    // remove_provider returns, no snapshot can touch this state again.
    if (state_->obs_provider_id != 0) {
        obs::registry::instance().remove_provider(state_->obs_provider_id);
    }
    {
        const std::lock_guard<std::mutex> lock{state_->queue_mutex};
        state_->stop = true; // workers drain the queue, then exit
    }
    state_->queue_work_cv.notify_all();
    for (std::thread& worker : state_->workers) {
        worker.join();
    }
}

trace::trace_digest service::add_trace(std::string name,
                                       trace::mem_trace records) {
    const trace::trace_digest digest = trace::compute_digest(records);
    const std::lock_guard<std::mutex> lock{state_->traces_mutex};
    const auto it = state_->traces.find(name);
    if (it != state_->traces.end()) {
        if (it->second->digest == digest) {
            return digest; // same content, idempotent
        }
        throw std::invalid_argument{
            "serve: trace \"" + name +
            "\" is already registered with different content (digest " +
            to_string(it->second->digest) + " vs " + to_string(digest) +
            "); names are aliases, not versions"};
    }
    // A new name for already-registered content aliases the existing
    // entry: one copy of the records under every name.  (Linear scan: a
    // corpus holds tens of traces, not thousands.)
    for (const auto& [existing_name, existing] : state_->traces) {
        if (existing->digest == digest) {
            state_->traces.emplace(std::move(name), existing);
            return digest;
        }
    }
    auto entry = std::make_shared<trace_entry>();
    entry->name = name;
    entry->records = std::move(records);
    entry->digest = digest;
    state_->traces.emplace(std::move(name), std::move(entry));
    return digest;
}

bool service::has_trace(std::string_view name) const {
    const std::lock_guard<std::mutex> lock{state_->traces_mutex};
    return state_->traces.find(std::string{name}) != state_->traces.end();
}

submission submission::adapt(
    const std::function<cancel_lever(completion)>& start) {
    auto promise = std::make_shared<std::promise<service_result>>();
    std::future<service_result> future = promise->get_future();
    cancel_lever cancel =
        start([promise](service_result result, std::exception_ptr error) {
            if (error) {
                promise->set_exception(std::move(error));
            } else {
                promise->set_value(std::move(result));
            }
        });
    return submission{std::move(future), std::move(cancel)};
}

submission service::submit(std::string_view trace_name,
                           const service_request& request) {
    return submission::adapt([&](completion done) {
        return submit(trace_name, request, std::move(done));
    });
}

cancel_lever service::submit(std::string_view trace_name,
                             const service_request& request,
                             completion done) {
    state& s = *state_;
    // The submit span covers validation, the cache probes and the
    // coalesce-or-enqueue decision — everything on the caller's thread.
    // The fingerprint tag is patched in once the key exists.  It finishes
    // before the waiter can settle: every span of a request must close
    // before its answer goes out.
    obs::span submit_span{"serve.submit", &s.ctrs->submit_ns,
                          request.obs_correlation};
    submit_span.set_trace(request.obs_trace_hi, request.obs_trace_lo);
    // Admission time for the wide event, independent of the recorder's
    // on/off state (the event ring always runs).
    const std::uint64_t admitted_ns = obs::now_ns();
    service_request normal = canonical(request); // throws up front
    // Relative deadline -> absolute, pinned at submit time (before any
    // queueing): the deadline clock starts when the caller asked, not when
    // the service got around to it.
    const clock::time_point deadline_at =
        request.deadline.count() > 0 ? clock::now() + request.deadline
                                     : no_deadline;

    std::shared_ptr<trace_entry> entry;
    {
        const std::lock_guard<std::mutex> lock{s.traces_mutex};
        const auto it = s.traces.find(std::string{trace_name});
        if (it == s.traces.end()) {
            throw std::invalid_argument{
                "serve: unknown trace \"" + std::string{trace_name} +
                "\" (register it with add_trace first)"};
        }
        entry = it->second;
    }
    s.ctrs->bump(&service_stats::submitted);
    if (deadline_at != no_deadline) {
        s.has_deadlines.store(true, std::memory_order_relaxed);
    }

    // `normal` is already canonical; the plain fingerprint()/make_key path
    // would re-normalise (copy + sort + validate) on every submit.
    request_key key{entry->digest, fingerprint_canonical(normal)};
    submit_span.set_fingerprint(key.request[0]);
    // Exact: the columns the answer is composed from, filled by the probes.
    column_set columns = normal.mode == service_mode::exact
                             ? columns_of(entry->digest, normal.sweep)
                             : column_set{};
    const auto probe = [&] {
        return s.probe_cache(key, normal, columns, entry->records.size(),
                             admitted_ns);
    };
    // Set once load shedding has replaced `normal` and `key` with the
    // estimate-tier question; what follows then answers that question.
    bool degraded = false;
    // Answered without touching a simulator or the queue, on this thread.
    const auto serve_cached = [&](const cached_value& cached) {
        service_result answer = to_result(cached);
        answer.cache_hit = true;
        const std::vector<state::taken> hit{s.cache_hit(
            normal, key, admitted_ns, std::move(done), degraded)};
        submit_span.finish();
        state::deliver(hit, *s.events, *s.slo, nullptr, answer);
        return cancel_lever{};
    };
    // Adds this caller to `target`, returning its waiter index.
    const auto join = [&](flight& target) {
        waiter& w = target.waiters.emplace_back();
        w.done = std::move(done);
        w.deadline = deadline_at;
        w.correlation = normal.obs_correlation;
        w.trace_hi = normal.obs_trace_hi;
        w.trace_lo = normal.obs_trace_lo;
        w.degraded = degraded;
        target.earliest_deadline =
            std::min(target.earliest_deadline, deadline_at);
        ++target.live;
        return target.waiters.size() - 1;
    };
    if (const auto cached = probe()) {
        return serve_cached(*cached);
    }

    std::shared_ptr<flight> f;
    {
        std::unique_lock<std::mutex> lock{s.flights_mutex};
        // Coalesce or probe again; shed at most once, then retry both
        // under the estimate-tier question's key.
        for (;;) {
            const auto it = s.flights.find(key);
            if (it != s.flights.end()) {
                const std::shared_ptr<flight>& current = it->second;
                const std::lock_guard<std::mutex> fl{current->mutex};
                // An abandoned flight still in the map is a corpse that
                // can answer no one: replace it rather than join it.
                if (!current->abandoned.load(std::memory_order_acquire)) {
                    submit_span.finish();
                    s.ctrs->bump(&service_stats::coalesced);
                    return s.make_cancel(current, join(*current));
                }
            }
            // finish() caches *before* unmapping, so a flight that finished
            // since the probe above is a hit here, not a recomputation.
            // (finish() never holds a cache shard lock while taking
            // flights_mutex: no deadlock.)  A hit is answered unlocked:
            // completions never run under a service lock.
            if (const auto cached = probe()) {
                lock.unlock();
                return serve_cached(*cached);
            }
            // Shed only once both probes missed: a hit on either beats
            // degrading and costs no queue slot.
            if (degraded || !s.sheds(normal)) {
                break;
            }
            normal = estimate_question(normal);
            key = {entry->digest, fingerprint_canonical(normal)};
            submit_span.set_fingerprint(key.request[0]);
            degraded = true;
        }
        f = std::make_shared<flight>();
        f->request = normal;
        f->key = key;
        f->trace = entry;
        f->start_ns = obs::timestamp_if_enabled();
        f->admitted_ns = admitted_ns;
        (void)join(*f);
        if (normal.mode == service_mode::exact) {
            const std::size_t missing = static_cast<std::size_t>(
                std::count(columns.found.begin(), columns.found.end(),
                           nullptr));
            s.ctrs->column_hits.fetch_add(columns.found.size() - missing,
                                          std::memory_order_relaxed);
            s.ctrs->column_misses.fetch_add(missing,
                                            std::memory_order_relaxed);
            f->shards = plan_shards(normal.sweep, columns);
            f->columns = std::move(columns);
        }
        f->remaining.store(state::job_count(*f), std::memory_order_relaxed);
        // insert_or_assign, not emplace: the slot may hold the abandoned
        // corpse detected above.
        s.flights.insert_or_assign(key, f);
        // Registered from drain()'s point of view before any job is
        // queued, so a drain racing a blocking enqueue waits for this
        // flight even while its later shards are still being pushed.
        const std::lock_guard<std::mutex> qlock{s.queue_mutex};
        ++s.open_flights;
    }
    // The first job may settle the flight before enqueue() returns; time
    // spent waiting for queue space is in serve.queue_wait instead.
    submit_span.finish();
    try {
        s.enqueue(f, state::job_count(*f));
    } catch (...) {
        // The throw answers the initiator; joiners get theirs.
        {
            const std::lock_guard<std::mutex> lock{f->mutex};
            f->waiters.front().done = nullptr;
        }
        s.fail_flight(f, std::current_exception());
        throw;
    }
    return s.make_cancel(f, 0);
}

void service::drain() {
    std::unique_lock<std::mutex> lock{state_->queue_mutex};
    state_->idle_cv.wait(lock, [s = state_.get()] {
        return s->open_flights == 0 && s->queue.empty() &&
               s->active_jobs == 0;
    });
    // A worker that died on an unrecoverable fault (see worker_loop's
    // outer catch) has already settled or failed its flight; drain is the
    // supervision point where the loss of the thread itself surfaces.
    if (state_->worker_error) {
        std::rethrow_exception(
            std::exchange(state_->worker_error, nullptr));
    }
}

void service::pause() {
    const std::lock_guard<std::mutex> lock{state_->queue_mutex};
    state_->paused = true;
}

void service::resume() {
    {
        const std::lock_guard<std::mutex> lock{state_->queue_mutex};
        state_->paused = false;
    }
    state_->queue_work_cv.notify_all();
}

service_stats service::stats() const {
    const counters& c = *state_->ctrs;
    service_stats out;
    for (const auto& [name, field] : service_stats_fields) {
        out.*field = c.load(field);
    }
    out.cache_evictions = state_->cache.stats().evictions;
    {
        const std::lock_guard<std::mutex> lock{state_->flights_mutex};
        out.inflight_flights = state_->flights.size();
    }
    {
        const std::lock_guard<std::mutex> lock{state_->queue_mutex};
        out.queue_depth = state_->queue.size();
    }
    return out;
}

std::vector<obs::request_event> service::events() const {
    return state_->events->snapshot();
}

void service::save_cache(std::ostream& out) const {
    state_->cache.save(out);
}

cache_load_report service::load_cache(std::istream& in, load_mode mode) {
    return state_->cache.load(in, mode);
}

} // namespace dew::serve
