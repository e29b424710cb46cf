// Test helper: distinct exact questions about one trace, told apart by
// their grids alone.  The index picks a nonempty subset of the block sizes
// {4, 8, 16, 32, 64} and a nonempty subset of the associativities
// {2, 4, 8}, so indices 0..216 are 217 different fingerprints (suites
// assert the count they rely on; higher indices wrap).  The sweeps stay
// small: at most 15 passes at the caller's depth.
#ifndef DEW_TESTS_SUPPORT_GRID_QUESTIONS_HPP
#define DEW_TESTS_SUPPORT_GRID_QUESTIONS_HPP

#include <cstddef>
#include <cstdint>

#include "serve/key.hpp"

namespace dew::test_support {

[[nodiscard]] inline serve::service_request
grid_question(std::size_t index, unsigned max_set_exp) {
    constexpr std::uint32_t blocks[] = {4, 8, 16, 32, 64};
    constexpr std::uint32_t assocs[] = {2, 4, 8};
    const std::size_t block_mask = index % 31 + 1;
    const std::size_t assoc_mask = index / 31 % 7 + 1;
    serve::service_request request;
    request.sweep.max_set_exp = max_set_exp;
    request.sweep.block_sizes.clear();
    request.sweep.associativities.clear();
    for (std::size_t i = 0; i < 5; ++i) {
        if ((block_mask >> i) & 1) {
            request.sweep.block_sizes.push_back(blocks[i]);
        }
    }
    for (std::size_t i = 0; i < 3; ++i) {
        if ((assoc_mask >> i) & 1) {
            request.sweep.associativities.push_back(assocs[i]);
        }
    }
    return request;
}

} // namespace dew::test_support

#endif // DEW_TESTS_SUPPORT_GRID_QUESTIONS_HPP
