// Instrumentation counters of one DEW run — exactly the quantities the
// paper's evaluation reports (Tables 3 and 4, Figures 5 and 6).
#ifndef DEW_DEW_COUNTERS_HPP
#define DEW_DEW_COUNTERS_HPP

#include <cstdint>

namespace dew::core {

struct dew_counters {
    std::uint64_t requests{0};

    // Tree-node touches.  `unoptimized_evaluations` follows the paper's
    // Table 4 column 2 convention: the set evaluations per-configuration
    // simulation would need, i.e. requests x levels x |{1, A}| (30 per
    // request for the paper's 15 levels at A != 1) — "the worst case number
    // of evaluations for any algorithm".  One DEW tree node serves both the
    // A-way and the direct-mapped configuration of its level, which is
    // exactly where the gap between the two counters comes from.
    std::uint64_t node_evaluations{0};
    std::uint64_t unoptimized_evaluations{0};

    // Per-node resolution outcome; each evaluated node resolves in exactly
    // one of these four ways, so they partition node_evaluations.
    std::uint64_t mra_hits{0};           // Property 2 (Table 4 "MRA count")
    std::uint64_t wave_checks{0};        // Property 3 (Table 4 "Wave count")
    std::uint64_t mre_determinations{0}; // Property 4 (Table 4 "MRE count")
    std::uint64_t searches{0};           // full tag-list search performed

    // Property 3 split: the single wave probe decided a hit or a miss.
    std::uint64_t wave_hit_determinations{0};
    std::uint64_t wave_miss_determinations{0};

    // Evict/re-fetch swaps through the MRE entry that happened inside miss
    // handling after the miss was already determined by a wave pointer
    // (Algorithm 2 line 4 firing on the wave path).
    std::uint64_t mre_swaps{0};

    // Every tag equality test: MRA probes, wave probes, MRE probes, and each
    // valid tag-list entry examined during a search (Table 3 right half).
    std::uint64_t tag_comparisons{0};
};

// --- Instrumentation policies -----------------------------------------------
// basic_dew_simulator is templated on one of these.  The policy picks the
// walk at compile time: `full_counters` runs the paper's walk with the exact
// Table-3/Table-4 bookkeeping for the benches and ablations, while `fast`
// runs a tags-only walk with no counters at all, so production sweeps pay
// zero instrumentation cost (dew/simulator.hpp).  Both policies produce
// bit-identical miss counts — the equivalence test suite proves it.

// Full bookkeeping: the simulator owns a dew_counters and updates it on the
// hot path exactly as the seed implementation did.
struct full_counters {
    static constexpr bool counted = true;
    dew_counters counters{};
};

// Zero-overhead mode: no counter storage, no counter updates.  The simulator
// still tracks the request count (needed to derive hits from misses) in a
// plain member outside the policy.
struct fast {
    static constexpr bool counted = false;
};

} // namespace dew::core

#endif // DEW_DEW_COUNTERS_HPP
