// Compiler hint macros used on the simulation hot paths.
//
// DEW_ALWAYS_INLINE forces a helper into its caller: the DEW walk relies on
// the miss-handling helpers being inlined so that per-object state (tree
// base, stride, option flags, counters) is hoisted into registers across
// the whole trace loop — GCC declines by default because the templated
// helpers are sizeable COMDAT functions.  DEW_NOINLINE does the opposite:
// it keeps each statically-specialised stream loop a compact standalone
// function instead of letting the dispatch switch merge every
// specialisation into one oversized caller.  Both degrade gracefully to
// plain `inline`/nothing on compilers without the attribute.
//
// prefetch_for_write asks for the cache line holding `address`, for a
// coming store, and is a no-op where the builtin does not exist.
#ifndef DEW_COMMON_HINTS_HPP
#define DEW_COMMON_HINTS_HPP

#if defined(__GNUC__) || defined(__clang__)
#define DEW_ALWAYS_INLINE [[gnu::always_inline]] inline
#define DEW_NOINLINE [[gnu::noinline]]
#else
#define DEW_ALWAYS_INLINE inline
#define DEW_NOINLINE
#endif

namespace dew {

inline void prefetch_for_write(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(address, 1, 3);
#else
    (void)address;
#endif
}

} // namespace dew

#endif // DEW_COMMON_HINTS_HPP
