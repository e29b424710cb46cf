// Fractional ("sampled") simulation support — the speed-for-accuracy trade
// of the paper's related work (Horiuchi et al. [12], Li et al. [16]): keep
// only part of the trace, simulate that, and extrapolate.  DEW makes the
// trade unnecessary for FIFO L1 sweeps, but the library ships it so the
// contrast is measurable (bench_sampling_accuracy) and so users with
// billion-reference traces can still pre-screen cheaply.
//
// Two classic samplers are provided:
//
//  * Time sampling: keep a window of `window` consecutive references out of
//    every `period` (systematic sampling).  Cheap and unbiased for
//    stationary workloads; cold-start bias inside each window makes it
//    overestimate miss rates for large caches.
//
//  * Set sampling: keep only references whose set index (at a chosen
//    set count / block size) falls in a sampled subset of sets.  Each
//    sampled set sees its complete, uninterrupted reference stream, so
//    per-set behaviour is exact; the error comes from set imbalance only.
//    This is the sampler hardware performance counters use.
#ifndef DEW_TRACE_SAMPLING_HPP
#define DEW_TRACE_SAMPLING_HPP

#include <cstdint>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::trace {

struct time_sample_spec {
    std::uint64_t period{10};  // take one window every `period` references
    std::uint64_t window{1};   // references kept per window; <= period
    std::uint64_t offset{0};   // start of the first window
};

struct time_sample_result {
    mem_trace sampled;
    std::uint64_t source_requests{0};
    // Fraction of the source kept (exact, not window/period — tail windows
    // may be partial).
    [[nodiscard]] double kept_fraction() const noexcept {
        return source_requests == 0
                   ? 0.0
                   : static_cast<double>(sampled.size()) /
                         static_cast<double>(source_requests);
    }
};

[[nodiscard]] time_sample_result time_sample(const mem_trace& trace,
                                             const time_sample_spec& spec);

struct set_sample_spec {
    std::uint32_t set_count{64};   // the set space sampled over (power of 2)
    std::uint32_t block_size{32};  // block size defining the index bits
    std::uint32_t keep_one_in{8};  // keep sets with index % keep_one_in == phase
    std::uint32_t phase{0};        // which residue class to keep
};

struct set_sample_result {
    mem_trace sampled;
    std::uint64_t source_requests{0};
    [[nodiscard]] double kept_fraction() const noexcept {
        return source_requests == 0
                   ? 0.0
                   : static_cast<double>(sampled.size()) /
                         static_cast<double>(source_requests);
    }
};

[[nodiscard]] set_sample_result set_sample(const mem_trace& trace,
                                           const set_sample_spec& spec);

// Extrapolates a miss count measured on a sample back to the full trace:
// the sampler's kept fraction scales the estimate linearly.
[[nodiscard]] std::uint64_t extrapolate_misses(std::uint64_t sampled_misses,
                                               double kept_fraction);

// --- Streaming sampler adapters ---------------------------------------
//
// The same two samplers as trace::source filters, so fractional simulation
// composes with the chunked dew::session pipeline instead of requiring a
// materialised mem_trace: wrap any source (file reader, generator,
// in-memory span) and feed the wrapper to a session, run_sweep or explore,
// then read kept() / source_requests() for extrapolate_misses.  Records
// kept are exactly the records the eager samplers keep, for every upstream
// chunking (tests/trace/sampling_test.cpp proves drained == eager).  The
// upstream source must outlive the adapter.

// Common machinery of the filters below: the pull-until-one-record-survives
// loop (a source must not return 0 while records remain) and the
// consumed/kept bookkeeping.  Derived classes supply only the predicate.
class sample_source_base : public source {
public:
    std::size_t next(std::span<mem_access> out) final;

    // Upstream records consumed / records kept so far.
    [[nodiscard]] std::uint64_t source_requests() const noexcept {
        return consumed_;
    }
    [[nodiscard]] std::uint64_t kept() const noexcept { return kept_; }
    [[nodiscard]] double kept_fraction() const noexcept {
        return consumed_ == 0 ? 0.0
                              : static_cast<double>(kept_) /
                                    static_cast<double>(consumed_);
    }

protected:
    explicit sample_source_base(source& upstream) noexcept
        : upstream_{&upstream} {}

    // True iff the record at absolute upstream index `index` is kept.
    [[nodiscard]] virtual bool keep(const mem_access& record,
                                    std::uint64_t index) const = 0;

private:
    source* upstream_;
    std::uint64_t consumed_{0};
    std::uint64_t kept_{0};
};

class time_sample_source final : public sample_source_base {
public:
    // Precondition (contract_violation otherwise): period > 0,
    // 0 < window <= period.
    time_sample_source(source& upstream, const time_sample_spec& spec);

private:
    [[nodiscard]] bool keep(const mem_access& record,
                            std::uint64_t index) const override;

    time_sample_spec spec_;
};

class set_sample_source final : public sample_source_base {
public:
    // Precondition (contract_violation otherwise): power-of-two set_count
    // and block_size, keep_one_in > 0, phase < keep_one_in.
    set_sample_source(source& upstream, const set_sample_spec& spec);

private:
    [[nodiscard]] bool keep(const mem_access& record,
                            std::uint64_t index) const override;

    set_sample_spec spec_;
    unsigned block_bits_;
    std::uint64_t index_mask_;
};

// Keeps the instruction fetches (want_ifetch) or the loads and stores.
// Split I/D L1 tuning is one run_sweep per side, each over this filter of
// its own pass through a re-readable trace (docs/API.md §2).
class type_filter_source final : public sample_source_base {
public:
    type_filter_source(source& upstream, bool want_ifetch) noexcept
        : sample_source_base{upstream}, want_ifetch_{want_ifetch} {}

private:
    [[nodiscard]] bool keep(const mem_access& record,
                            std::uint64_t /*index*/) const override {
        return (record.type == access_type::ifetch) == want_ifetch_;
    }

    bool want_ifetch_;
};

} // namespace dew::trace

#endif // DEW_TRACE_SAMPLING_HPP
