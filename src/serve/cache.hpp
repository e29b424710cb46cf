// Sharded, capacity-bounded result cache of the sweep service.
//
// The map is (trace digest, fingerprint) -> cached value.  It holds two
// kinds of entry:
//
//   * exact columns, the only exact unit: one (trace, block size,
//     associativity) DEW pass at the depth it was computed, keyed by
//     serve::column_key.  The service composes every exact answer from
//     them.  A column at depth L answers any depth L' <= L as a
//     prefix, so a deeper column replaces a shallower one under the same
//     key and a shallower one never replaces a deeper one (insert);
//   * representative answers, keyed by the request fingerprint.
//
// Keys spread over independently-locked shards (the key hash is already
// avalanche-mixed, so the low bits shard evenly) and each shard evicts in
// FIFO order once its slice of the capacity fills — the same replacement
// discipline the simulated caches use, and the right one here too: sweep
// answers do not age, they are either still asked for or not.  Capacity
// counts entries, so an exact request of |B| x |A| passes occupies that
// many.
//
// Values are shared_ptr-to-const: a hit hands out a reference to the cached
// payload, eviction never invalidates a result a caller still holds, and
// concurrent readers share one immutable object.  Hit/miss/insert/evict
// counters are atomics readable while the cache is hot.
//
// Persistence reuses dew::result_io's hardened binary round trip: save()
// writes every column (estimates are cheap to recompute and carry analysis
// state that is not worth freezing) and checksums each entry plus the
// whole file.  load() is transactional in strict mode — a malformed or
// checksum-failing file throws the byte-offset-naming errors of
// read_binary_result and inserts NOTHING — and crash-tolerant in salvage
// mode: every entry framed and checksummed before the first fault byte is
// recovered, the rest reported, never a partial or unverified entry.
// Only counter-free (fast) passes load as columns; a counted one, in a
// version 2 file (whose entries were whole exact requests) or a version 3
// file saved while the service still served counted sweeps, is skipped.
#ifndef DEW_SERVE_CACHE_HPP
#define DEW_SERVE_CACHE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dew/sweep.hpp"
#include "phase/representative_sweep.hpp"
#include "serve/key.hpp"

namespace dew::serve {

struct cache_options {
    // Independently-locked shards; rounded up to a power of two, >= 1.
    std::size_t shards{8};
    // Maximum cached entries across all shards (split evenly; each shard
    // holds at least one).  Must be > 0.
    std::size_t capacity{1024};
};

// One cached entry.  An exact column carries only `column`.  A
// representative answer carries `estimate`; one that fell back to exact
// also carries the exact sweep (that is what was served) with
// fell_back_exact set.
struct cached_value {
    std::optional<core::dew_result> column;
    std::shared_ptr<const core::sweep_result> sweep;
    std::shared_ptr<const phase::representative_sweep_result> estimate;
    bool estimated{false};
    bool fell_back_exact{false};
    double max_abs_error_pp{0.0};
};

// How load() treats a damaged file.
enum class load_mode : std::uint8_t {
    // All-or-nothing: any framing fault, checksum mismatch or trailing
    // garbage throws std::runtime_error (byte-offset-naming) and the cache
    // is left exactly as it was — no partially-loaded state.
    strict = 0,
    // Crash recovery: keep every entry up to the first fault byte, skip
    // the rest, report what happened instead of throwing.  Entries are
    // inserted only after their framing AND per-entry checksum verify, so
    // a salvaged cache never serves a damaged answer.
    salvage = 1,
};

struct cache_load_report {
    std::size_t loaded{0};  // columns inserted into the cache
    // Declared entries not recovered (salvage only), plus version 2
    // entries with counters, which hold no reusable column.
    std::size_t skipped{0};
    // True iff a fault was tolerated (salvage mode); salvaged_at is then
    // the byte offset of the first byte that could not be used — every
    // loaded entry was framed entirely inside [0, salvaged_at).
    bool salvaged{false};
    std::uint64_t salvaged_at{0};
    // Whole-file footer checksum verified.  Always true in strict mode (a
    // mismatch throws); in salvage mode false means the file was damaged
    // even if every recovered entry passed its own checksum.
    bool checksum_ok{true};
};

struct cache_stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
    std::uint64_t entries{0}; // current
};

class result_cache {
public:
    // Throws std::invalid_argument on zero shards or capacity.
    explicit result_cache(cache_options options = {});

    // nullptr on miss.  Counts a hit or a miss.
    [[nodiscard]] std::shared_ptr<const cached_value>
    find(const request_key& key);

    // Inserts and evicts the shard's oldest entry when its slice of the
    // capacity is full.  An existing key keeps its incumbent (concurrent
    // duplicate computations produce identical payloads) unless both are
    // columns and the new one is deeper: then the value is replaced in
    // place, keeping its FIFO position.
    void insert(const request_key& key,
                std::shared_ptr<const cached_value> value);

    [[nodiscard]] cache_stats stats() const;
    [[nodiscard]] std::size_t size() const;
    void clear();

    // Columns only; format documented in cache.cpp (version 3: one column
    // per entry, per-entry checksums + a whole-file footer checksum; load
    // also reads version 2).  load() stages every entry before inserting
    // any: strict mode is transactional (throws on any fault, cache
    // untouched), salvage mode recovers the verified prefix and reports
    // the rest (see load_mode / cache_load_report).
    void save(std::ostream& out) const;
    cache_load_report load(std::istream& in,
                           load_mode mode = load_mode::strict);

private:
    struct shard {
        mutable std::mutex mutex; // dewlint: lock-order serve-cache-shard 70
        std::unordered_map<request_key, std::shared_ptr<const cached_value>,
                           request_key_hash>
            map;
        std::deque<request_key> fifo; // insertion order, oldest first
    };

    [[nodiscard]] shard& shard_of(const request_key& key) noexcept;
    [[nodiscard]] const shard& shard_of(const request_key& key) const noexcept;

    std::size_t shard_capacity_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> insertions_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace dew::serve

#endif // DEW_SERVE_CACHE_HPP
