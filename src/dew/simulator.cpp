#include "dew/simulator.hpp"

namespace dew::core {

// The two instrumentation policies, instantiated exactly once.  The header
// declares them extern so every other translation unit links against these
// definitions (while remaining free to inline the hot path, whose bodies
// are visible in the header).
template class basic_dew_pass<full_counters>;
template class basic_dew_pass<fast>;
template class basic_dew_simulator<full_counters>;
template class basic_dew_simulator<fast>;

} // namespace dew::core
