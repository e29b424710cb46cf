#include "serve/cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/bits.hpp"
#include "common/io.hpp"
#include "dew/result_io.hpp"

namespace dew::serve {

// Cache file layout, version 3 (all integers little-endian):
//   magic   4 bytes  "DSCF"
//   version u32      currently 3
//   count   u64      number of entries
//   entries count x { key 4 x u64 (trace digest words, column key words),
//                     one dew::core result record ("DSWR", self-delimiting)
//                     holding exactly one pass: the column,
//                     checksum u64 of this entry's key + record bytes }
//   footer  u64      checksum of every preceding byte of the file
// The per-entry checksums are what make salvage loading safe: an entry
// whose bytes rotted but still happen to frame is caught entry-precisely,
// so recovery keeps exactly the verified prefix.  The footer catches
// header/count damage and (in strict mode) any trailing garbage.
//
// Version 2 had the same framing, but each entry was one whole exact
// request: its request key and its sweep.  load() turns a v2 entry whose
// passes carry no counters beyond the request count into one column per
// pass (keyed by column_key, at the entry's depth).  It skips a counted
// entry of either version: nothing looks a counted column up.
namespace {

constexpr char cache_magic[4] = {'D', 'S', 'C', 'F'};
constexpr std::uint32_t cache_version = 3;
constexpr std::uint32_t cache_version_requests = 2;

// Little-endian writers shared with every other binary format.
using dew::put_u32_le;
using dew::put_u64_le;

// FNV-1a over the bytes, splitmix-finalised so short/regular inputs still
// avalanche.  Not cryptographic — it detects truncation and bit rot, not
// adversaries (the cache file is a local artifact, not an input channel).
std::uint64_t checksum64(std::string_view data) noexcept {
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ull;
    }
    return mix64(hash);
}

// `where` names the field and, for fixed-offset header fields, its byte
// offset; entry-relative faults are located by the entry ordinal the
// caller prefixes.
std::uint64_t get_u64(std::istream& in, const char* where) {
    std::array<char, 8> bytes{};
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
        throw std::runtime_error{"truncated cache file: " +
                                 std::string{where} + " needs 8 bytes"};
    }
    std::uint64_t value = 0;
    for (std::size_t i = 8; i-- > 0;) {
        value = (value << 8) | static_cast<unsigned char>(bytes[i]);
    }
    return value;
}

// True when `pass` carries no counter beyond the request count: a fast
// pass, whose misses are all a column holds.
bool counter_free(const core::dew_result& pass) noexcept {
    const core::dew_counters& c = pass.counters();
    return c.node_evaluations == 0 && c.unoptimized_evaluations == 0 &&
           c.mra_hits == 0 && c.wave_checks == 0 &&
           c.mre_determinations == 0 && c.searches == 0 &&
           c.wave_hit_determinations == 0 &&
           c.wave_miss_determinations == 0 && c.mre_swaps == 0 &&
           c.tag_comparisons == 0;
}

std::shared_ptr<const cached_value> column_value(core::dew_result pass) {
    auto value = std::make_shared<cached_value>();
    value->column.emplace(std::move(pass));
    return value;
}

} // namespace

result_cache::result_cache(cache_options options) {
    if (options.shards == 0) {
        throw std::invalid_argument{"cache_options::shards must be > 0"};
    }
    if (options.capacity == 0) {
        throw std::invalid_argument{"cache_options::capacity must be > 0"};
    }
    const std::size_t shard_count = std::bit_ceil(options.shards);
    shard_capacity_ =
        (options.capacity + shard_count - 1) / shard_count; // >= 1
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        shards_.push_back(std::make_unique<shard>());
    }
}

result_cache::shard&
result_cache::shard_of(const request_key& key) noexcept {
    return *shards_[request_key_hash{}(key) & (shards_.size() - 1)];
}

const result_cache::shard&
result_cache::shard_of(const request_key& key) const noexcept {
    return *shards_[request_key_hash{}(key) & (shards_.size() - 1)];
}

std::shared_ptr<const cached_value>
result_cache::find(const request_key& key) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock{s.mutex};
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void result_cache::insert(const request_key& key,
                          std::shared_ptr<const cached_value> value) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock{s.mutex};
    const auto [it, inserted] = s.map.try_emplace(key, value);
    if (!inserted) {
        // Two racing computations of one key compute identical payloads:
        // keep the incumbent and its FIFO position.  A deeper column holds
        // every answer of the shallower one, so it takes the slot, and a
        // shallower one never does, whatever order the flights finish in.
        const std::shared_ptr<const cached_value>& incumbent = it->second;
        if (value->column && incumbent->column &&
            value->column->max_level() > incumbent->column->max_level()) {
            it->second = std::move(value);
        }
        return;
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    s.fifo.push_back(key);
    while (s.map.size() > shard_capacity_) {
        s.map.erase(s.fifo.front());
        s.fifo.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

cache_stats result_cache::stats() const {
    cache_stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = size();
    return out;
}

std::size_t result_cache::size() const {
    std::size_t total = 0;
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        total += s->map.size();
    }
    return total;
}

void result_cache::clear() {
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        s->map.clear();
        s->fifo.clear();
    }
}

void result_cache::save(std::ostream& out) const {
    // Snapshot the columns shard by shard; persistence is an offline
    // operation, so briefly holding each shard lock in turn is fine.
    std::vector<std::pair<request_key, std::shared_ptr<const cached_value>>>
        entries;
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        for (const request_key& key : s->fifo) {
            const auto it = s->map.find(key);
            if (it != s->map.end() && it->second->column) {
                entries.emplace_back(key, it->second);
            }
        }
    }
    // Stage the whole file so the footer checksum can cover every byte
    // before it; the staging cost is the file itself, which persistence
    // pays anyway.
    std::ostringstream buffer;
    buffer.write(cache_magic, sizeof(cache_magic));
    put_u32_le(buffer, cache_version);
    put_u64_le(buffer, entries.size());
    for (const auto& [key, value] : entries) {
        std::ostringstream entry;
        put_u64_le(entry, key.trace.words[0]);
        put_u64_le(entry, key.trace.words[1]);
        put_u64_le(entry, key.request[0]);
        put_u64_le(entry, key.request[1]);
        core::sweep_result column;
        column.requests = value->column->requests();
        column.passes.push_back(*value->column);
        core::write_binary_result(entry, column);
        const std::string bytes = entry.str();
        buffer.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        put_u64_le(buffer, checksum64(bytes));
    }
    const std::string body = buffer.str();
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    put_u64_le(out, checksum64(body));
}

cache_load_report result_cache::load(std::istream& in, load_mode mode) {
    // The whole stream is read up front: salvage needs byte-exact fault
    // offsets, strict needs all-or-nothing semantics, and the footer
    // checksum covers every byte — all three want a resident image.
    const std::string bytes{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
    const std::string_view view{bytes};
    cache_load_report report;
    // Entries parse and verify into here first; nothing touches the cache
    // until the mode's acceptance rule has run (strict: the whole file;
    // salvage: the verified prefix).
    std::vector<std::pair<request_key, std::shared_ptr<const cached_value>>>
        staged;

    // In salvage mode a fault ends parsing instead of escaping; `fail`
    // routes every fault through one place so the two modes cannot drift.
    const auto fail = [&](std::uint64_t offset, const std::string& what) {
        if (mode == load_mode::strict) {
            throw std::runtime_error{what};
        }
        report.salvaged = true;
        report.salvaged_at = offset;
        report.checksum_ok = false;
    };

    std::istringstream parse{bytes};
    std::uint64_t count = 0;
    bool header_ok = false;
    bool columns_only = true; // version 3; false: version 2 requests
    std::uint64_t verified = 0; // entries whose framing and checksum held
    std::uint64_t counted = 0;  // verified entries with counters
    try {
        std::array<char, 8> header{};
        parse.read(header.data(),
                   static_cast<std::streamsize>(header.size()));
        if (parse.gcount() != static_cast<std::streamsize>(header.size())) {
            throw std::runtime_error{
                "truncated cache file: header needs 8 bytes, stream ended "
                "at byte offset " + std::to_string(parse.gcount())};
        }
        if (std::memcmp(header.data(), cache_magic, sizeof(cache_magic)) !=
            0) {
            throw std::runtime_error{
                "bad cache file magic at byte offset 0 (want \"DSCF\")"};
        }
        std::uint32_t version = 0;
        for (std::size_t i = 8; i-- > 4;) {
            version = (version << 8) | static_cast<unsigned char>(header[i]);
        }
        if (version != cache_version && version != cache_version_requests) {
            throw std::runtime_error{"unsupported cache file version " +
                                     std::to_string(version) +
                                     " at byte offset 4"};
        }
        columns_only = version == cache_version;
        count = get_u64(parse, "entry count at byte offset 8");
        header_ok = true;
    } catch (const std::runtime_error& error) {
        fail(0, error.what());
    }

    if (header_ok) {
        for (std::uint64_t entry = 0; entry < count; ++entry) {
            const std::uint64_t start =
                static_cast<std::uint64_t>(parse.tellg());
            try {
                request_key key;
                key.trace.words[0] = get_u64(parse, "trace digest");
                key.trace.words[1] = get_u64(parse, "trace digest");
                key.request[0] = get_u64(parse, "request fingerprint");
                key.request[1] = get_u64(parse, "request fingerprint");
                core::sweep_result record = core::read_binary_result(parse);
                const std::uint64_t end =
                    static_cast<std::uint64_t>(parse.tellg());
                const std::uint64_t want =
                    get_u64(parse, "entry checksum");
                const std::uint64_t got = checksum64(
                    view.substr(static_cast<std::size_t>(start),
                                static_cast<std::size_t>(end - start)));
                if (want != got) {
                    throw std::runtime_error{
                        "entry checksum mismatch over bytes [" +
                        std::to_string(start) + ", " + std::to_string(end) +
                        ")"};
                }
                if (columns_only && record.passes.size() != 1) {
                    throw std::runtime_error{
                        "column entry over bytes [" + std::to_string(start) +
                        ", " + std::to_string(end) + ") holds " +
                        std::to_string(record.passes.size()) +
                        " passes, not 1"};
                }
                if (!std::all_of(record.passes.begin(), record.passes.end(),
                                 counter_free)) {
                    ++counted;
                } else if (columns_only) {
                    staged.emplace_back(
                        key, column_value(std::move(record.passes.front())));
                } else {
                    for (core::dew_result& pass : record.passes) {
                        staged.emplace_back(
                            column_key(key.trace, pass.block_size(),
                                       pass.associativity()),
                            column_value(std::move(pass)));
                    }
                }
                ++verified;
            } catch (const std::runtime_error& error) {
                // Offsets of later entries depend on variable-length
                // payloads; the entry ordinal locates the fault, the
                // nested reader the byte.
                fail(start, "cache file entry " + std::to_string(entry) +
                                " of " + std::to_string(count) + ": " +
                                error.what());
                break;
            }
        }
    }

    if (header_ok && !report.salvaged) {
        // Footer: 8 bytes checksumming everything before them.
        const std::uint64_t footer_at =
            static_cast<std::uint64_t>(parse.tellg());
        try {
            const std::uint64_t want = get_u64(parse, "footer checksum");
            const std::uint64_t got = checksum64(
                view.substr(0, static_cast<std::size_t>(footer_at)));
            if (want != got) {
                throw std::runtime_error{
                    "footer checksum mismatch at byte offset " +
                    std::to_string(footer_at) +
                    " (header or entry framing bytes are damaged)"};
            }
            report.checksum_ok = true;
        } catch (const std::runtime_error& error) {
            fail(footer_at, error.what());
        }
        if (!report.salvaged &&
            static_cast<std::uint64_t>(footer_at) + 8 < bytes.size()) {
            // Entries and footer verified but bytes follow: corruption by
            // construction (the file is the whole stream).  Strict rejects;
            // salvage keeps the verified entries and flags the tail.
            if (mode == load_mode::strict) {
                throw std::runtime_error{
                    "over-long cache file: trailing bytes after the "
                    "declared " + std::to_string(count) + " entries"};
            }
            report.salvaged = true;
            report.salvaged_at = footer_at + 8;
        }
    }

    for (auto& [key, value] : staged) {
        insert(key, std::move(value));
    }
    report.loaded = staged.size();
    report.skipped = static_cast<std::size_t>(count - verified + counted);
    return report;
}

} // namespace dew::serve
