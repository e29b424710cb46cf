// Feature switches for DEW's optimisation properties (Section 3.2 of the
// paper).  All switches default to on — that is DEW.  Turning one off keeps
// the simulation exact (the test suite proves it) but costs comparisons,
// which is precisely what Table 4 and the ablation bench measure.  They
// shape the counted walk only: the fast walk counts no comparisons and
// ignores them (dew/simulator.hpp).
#ifndef DEW_DEW_OPTIONS_HPP
#define DEW_DEW_OPTIONS_HPP

#include <cstdint>

namespace dew::core {

// Not part of the service's request identity: each switch changes the
// counted walk, never the misses, and the service answers miss counts only
// (sweep_request::options).
struct dew_options {
    // Property 2: a request matching a node's MRA tag is a certified hit at
    // this and every deeper level, so the walk stops.
    bool use_mra_stop{true};
    // Property 3: decide hit/miss with one probe at the parent entry's wave
    // pointer instead of searching the tag list.
    bool use_wave{true};
    // Property 4: keep a most-recently-evicted victim entry per node; a
    // match proves a miss without a search, and the swap preserves the
    // evicted tag's wave pointer across an evict/re-fetch cycle.
    bool use_mre{true};
    // Extension (this library): number of (tag, wave) victim-buffer entries
    // per node.  1 = the paper's single MRE entry; larger depths prove more
    // misses without a search and keep more wave pointers alive, at one
    // comparison per probed entry.  Ignored when use_mre is false.
    std::uint32_t mre_depth{1};

    // Everything off = "Property 1 only": the plain binomial-tree walk whose
    // evaluation count is the worst case reported in Table 4, column 2.
    [[nodiscard]] static constexpr dew_options unoptimized() noexcept {
        return {false, false, false, 1};
    }

    // The victim-buffer depth actually allocated and probed.
    [[nodiscard]] constexpr std::uint32_t effective_mre_depth() const noexcept {
        return use_mre ? mre_depth : 0;
    }
};

} // namespace dew::core

#endif // DEW_DEW_OPTIONS_HPP
