// The sharded result cache: hit/miss/eviction accounting, shared immutable
// values, deeper-column replacement, and the hardened persistence round
// trip (DSCF version 3, and version 2 images turned into columns; counted
// entries of either version are skipped).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>
#include <sstream>
#include <stdexcept>

#include "common/bits.hpp"
#include "dew/result_io.hpp"
#include "dew/sweep.hpp"
#include "serve/cache.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

request_key key_of(std::uint64_t n) {
    return {{{n, n * 3 + 1}}, {mix64(n), mix64(n + 1)}};
}

const trace::mem_trace& small_trace() {
    static const trace::mem_trace records =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 2000);
    return records;
}

// One fast (16 B, 2-way) column at depth `max_set_exp`.
std::shared_ptr<const cached_value> exact_value(unsigned max_set_exp = 3) {
    core::sweep_request request;
    request.max_set_exp = max_set_exp;
    request.block_sizes = {16};
    request.associativities = {2};
    auto value = std::make_shared<cached_value>();
    value->column.emplace(
        core::run_sweep(small_trace(), request).passes.front());
    return value;
}

TEST(ServeCache, HitsMissesAndEntriesAreCounted) {
    result_cache cache{{4, 64}};
    EXPECT_EQ(cache.find(key_of(1)), nullptr);
    cache.insert(key_of(1), exact_value());
    const auto hit = cache.find(key_of(1));
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->column.has_value());
    EXPECT_EQ(cache.find(key_of(2)), nullptr);

    const cache_stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, CapacityBoundsEntriesWithFifoEviction) {
    // One shard, capacity 4: the fifth insert evicts the oldest.
    result_cache cache{{1, 4}};
    const auto value = exact_value();
    for (std::uint64_t n = 0; n < 5; ++n) {
        cache.insert(key_of(n), value);
    }
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(key_of(0)), nullptr); // oldest gone
    EXPECT_NE(cache.find(key_of(4)), nullptr); // newest present

    // Eviction never invalidates a value a caller still holds.
    const auto held = cache.find(key_of(1));
    ASSERT_NE(held, nullptr);
    for (std::uint64_t n = 5; n < 20; ++n) {
        cache.insert(key_of(n), value);
    }
    EXPECT_EQ(cache.find(key_of(1)), nullptr);
    EXPECT_TRUE(held->column.has_value()); // alive through our reference
}

TEST(ServeCache, DuplicateInsertKeepsIncumbent) {
    result_cache cache{{2, 16}};
    const auto first = exact_value();
    cache.insert(key_of(7), first);
    cache.insert(key_of(7), exact_value());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.find(key_of(7)), first);
}

TEST(ServeCache, DeeperColumnReplacesShallowerNeverTheReverse) {
    result_cache cache{{2, 16}};
    cache.insert(key_of(7), exact_value(4));
    const auto deeper = exact_value(6);
    cache.insert(key_of(7), deeper);
    EXPECT_EQ(cache.find(key_of(7)), deeper);
    cache.insert(key_of(7), exact_value(5));
    EXPECT_EQ(cache.find(key_of(7)), deeper);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u); // replacements are not new keys
}

TEST(ServeCache, RejectsZeroShardsOrCapacity) {
    EXPECT_THROW((result_cache{{0, 16}}), std::invalid_argument);
    EXPECT_THROW((result_cache{{4, 0}}), std::invalid_argument);
}

TEST(ServeCache, PersistenceRoundTripsColumns) {
    result_cache cache{{4, 64}};
    cache.insert(key_of(1), exact_value());
    cache.insert(key_of(2), exact_value());
    // An estimated entry must not be persisted, nor the exact sweep a
    // representative answer fell back to.
    auto estimated = std::make_shared<cached_value>();
    estimated->estimated = true;
    estimated->fell_back_exact = true;
    estimated->sweep = std::make_shared<const core::sweep_result>();
    cache.insert(key_of(3), estimated);

    std::ostringstream out;
    cache.save(out);

    result_cache restored{{4, 64}};
    std::istringstream in{out.str()};
    const cache_load_report report = restored.load(in);
    EXPECT_EQ(report.loaded, 2u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_FALSE(report.salvaged);
    EXPECT_TRUE(report.checksum_ok);
    EXPECT_EQ(restored.size(), 2u);
    const auto hit = restored.find(key_of(1));
    ASSERT_NE(hit, nullptr);
    ASSERT_TRUE(hit->column.has_value());
    const auto original = cache.find(key_of(1));
    EXPECT_EQ(hit->column->max_level(), original->column->max_level());
    EXPECT_EQ(hit->column->requests(), original->column->requests());
    EXPECT_EQ(hit->column->misses(3, 2),
              original->column->misses(3, 2));
    EXPECT_EQ(restored.find(key_of(3)), nullptr);
}

TEST(ServeCache, LoadRejectsMalformedPayloads) {
    result_cache cache{{4, 64}};
    cache.insert(key_of(1), exact_value());
    std::ostringstream out;
    cache.save(out);
    const std::string payload = out.str();

    // Truncations at the header, mid-key, and mid-result all throw and
    // leave no partial entry behind.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{5}, std::size_t{20},
          payload.size() / 2, payload.size() - 1}) {
        result_cache victim{{4, 64}};
        std::istringstream in{payload.substr(0, cut)};
        EXPECT_THROW((void)victim.load(in), std::runtime_error)
            << "cut at " << cut;
    }

    // Trailing garbage after the declared entries is rejected.
    result_cache victim{{4, 64}};
    std::istringstream in{payload + "junk"};
    try {
        (void)victim.load(in);
        FAIL() << "trailing bytes accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("over-long"),
                  std::string::npos)
            << error.what();
    }

    // Bad magic.
    std::string bad = payload;
    bad[0] = 'X';
    result_cache magic_victim{{4, 64}};
    std::istringstream magic_in{bad};
    EXPECT_THROW((void)magic_victim.load(magic_in), std::runtime_error);
}

// A three-entry file truncated at EVERY byte boundary: strict mode must
// throw and leave the cache completely empty — no partial mutation, the
// crash-recovery contract's transactional half.
TEST(ServeCache, StrictLoadIsTransactionalAtEveryCutPoint) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    std::ostringstream out;
    cache.save(out);
    const std::string payload = out.str();

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        result_cache victim{{2, 16}};
        std::istringstream in{payload.substr(0, cut)};
        EXPECT_THROW((void)victim.load(in, load_mode::strict),
                     std::runtime_error)
            << "cut at " << cut;
        EXPECT_EQ(victim.size(), 0u)
            << "strict load left partial state behind at cut " << cut;
    }
}

// The same file, same cuts, salvage mode: never throws, recovers exactly
// the entries framed and checksummed before the cut, and reports a fault
// offset no later than the cut itself.
TEST(ServeCache, SalvageLoadRecoversVerifiedPrefixAtEveryCutPoint) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    std::ostringstream out;
    cache.save(out);
    const std::string payload = out.str();
    const auto reference = cache.find(key_of(1));
    ASSERT_NE(reference, nullptr);

    std::size_t best = 0; // recovery must be monotone in the cut point
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        result_cache victim{{2, 16}};
        std::istringstream in{payload.substr(0, cut)};
        cache_load_report report;
        ASSERT_NO_THROW(report = victim.load(in, load_mode::salvage))
            << "cut at " << cut;
        EXPECT_TRUE(report.salvaged) << "cut at " << cut;
        EXPECT_FALSE(report.checksum_ok) << "cut at " << cut;
        EXPECT_LE(report.salvaged_at, cut) << "cut at " << cut;
        EXPECT_EQ(victim.size(), report.loaded) << "cut at " << cut;
        EXPECT_LE(report.loaded, 3u);
        if (cut >= 16) {
            // Header intact: the declared count is known, so loaded +
            // skipped must account for every declared entry.
            EXPECT_EQ(report.loaded + report.skipped, 3u)
                << "cut at " << cut;
        } else {
            EXPECT_EQ(report.loaded, 0u) << "cut at " << cut;
            EXPECT_EQ(report.skipped, 0u) << "cut at " << cut;
        }
        EXPECT_GE(report.loaded, best) << "cut at " << cut;
        best = report.loaded;
        // Every recovered entry is bit-identical to what was saved.  The
        // file's entry order is the save's shard order, so any subset of
        // the three keys may be the surviving prefix.
        std::size_t found = 0;
        for (std::uint64_t n = 1; n <= 3; ++n) {
            const auto hit = victim.find(key_of(n));
            if (hit == nullptr) {
                continue;
            }
            ++found;
            ASSERT_TRUE(hit->column.has_value()) << "cut at " << cut;
            EXPECT_EQ(hit->column->misses(3, 2),
                      reference->column->misses(3, 2));
        }
        EXPECT_EQ(found, report.loaded) << "cut at " << cut;
    }
    EXPECT_EQ(best, 3u); // near-complete files recover everything

    // The undamaged file salvages losslessly and reports clean.
    result_cache whole{{2, 16}};
    std::istringstream in{payload};
    const cache_load_report report = whole.load(in, load_mode::salvage);
    EXPECT_EQ(report.loaded, 3u);
    EXPECT_FALSE(report.salvaged);
    EXPECT_TRUE(report.checksum_ok);
}

// Bit rot inside an entry's payload (framing intact): the per-entry
// checksum catches it — strict throws, salvage keeps only the entries
// before the damage.
TEST(ServeCache, ChecksumsCatchBitRotThatStillFrames) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    std::ostringstream out;
    cache.save(out);
    std::string payload = out.str();

    // Flip one byte in the middle of the file body (inside some entry's
    // record bytes, past the 16-byte header).
    const std::size_t victim_byte = payload.size() / 2;
    payload[victim_byte] = static_cast<char>(payload[victim_byte] ^ 0x40);

    result_cache strict_victim{{2, 16}};
    std::istringstream strict_in{payload};
    EXPECT_THROW((void)strict_victim.load(strict_in, load_mode::strict),
                 std::runtime_error);
    EXPECT_EQ(strict_victim.size(), 0u);

    result_cache salvage_victim{{2, 16}};
    std::istringstream salvage_in{payload};
    const cache_load_report report =
        salvage_victim.load(salvage_in, load_mode::salvage);
    EXPECT_TRUE(report.salvaged);
    EXPECT_LT(report.loaded, 3u);
    EXPECT_LE(report.salvaged_at, victim_byte);
    EXPECT_EQ(salvage_victim.size(), report.loaded);
}

// Damage confined to the footer: every entry verifies individually, so
// salvage recovers all of them but still reports the file as damaged.
TEST(ServeCache, FooterDamageSalvagesEverythingButReportsIt) {
    result_cache cache{{2, 16}};
    cache.insert(key_of(1), exact_value());
    std::ostringstream out;
    cache.save(out);
    std::string payload = out.str();
    payload.back() = static_cast<char>(payload.back() ^ 0x01);

    result_cache strict_victim{{2, 16}};
    std::istringstream strict_in{payload};
    try {
        (void)strict_victim.load(strict_in, load_mode::strict);
        FAIL() << "corrupt footer accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("footer"),
                  std::string::npos)
            << error.what();
    }

    result_cache salvage_victim{{2, 16}};
    std::istringstream salvage_in{payload};
    const cache_load_report report =
        salvage_victim.load(salvage_in, load_mode::salvage);
    EXPECT_EQ(report.loaded, 1u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_TRUE(report.salvaged);
    EXPECT_FALSE(report.checksum_ok);
}

// --- Hand-written images -----------------------------------------------------

// A DSCF writer that puts any sweep under any key, for the images
// result_cache::save never writes: version 2 (each entry one whole exact
// request, its request key and its sweep) and counted or multi-pass
// version 3 entries.
std::uint64_t checksum64(std::string_view data) {
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ull;
    }
    return mix64(hash);
}

void put_u64(std::ostream& out, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        out.put(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
}

std::string image_of(
    char version,
    const std::vector<std::pair<request_key, core::sweep_result>>& entries) {
    std::ostringstream buffer;
    buffer.write("DSCF", 4);
    for (int i = 0; i < 4; ++i) {
        buffer.put(i == 0 ? version : '\0');
    }
    put_u64(buffer, entries.size());
    for (const auto& [key, sweep] : entries) {
        std::ostringstream entry;
        put_u64(entry, key.trace.words[0]);
        put_u64(entry, key.trace.words[1]);
        put_u64(entry, key.request[0]);
        put_u64(entry, key.request[1]);
        core::write_binary_result(entry, sweep);
        const std::string bytes = entry.str();
        buffer << bytes;
        put_u64(buffer, checksum64(bytes));
    }
    std::string body = buffer.str();
    std::ostringstream footer;
    put_u64(footer, checksum64(body));
    return body + footer.str();
}

TEST(ServeCache, VersionTwoFastEntriesLoadAsColumnsAndCountedOnesAreSkipped) {
    const trace::trace_digest digest{{11, 12}};
    core::sweep_request fast;
    fast.max_set_exp = 5;
    fast.block_sizes = {16, 32};
    fast.associativities = {2, 4};
    const core::sweep_result fast_sweep = core::run_sweep(small_trace(), fast);
    core::sweep_request counted = fast;
    counted.block_sizes = {64};
    counted.instrumentation = core::sweep_instrumentation::full_counters;
    const core::sweep_result counted_sweep =
        core::run_sweep(small_trace(), counted);
    const std::string image =
        image_of(2, {{{digest, {1, 2}}, fast_sweep},
                     {{digest, {3, 4}}, counted_sweep}});

    for (const load_mode mode : {load_mode::strict, load_mode::salvage}) {
        result_cache cache{{4, 64}};
        std::istringstream in{image};
        const cache_load_report report = cache.load(in, mode);
        EXPECT_EQ(report.loaded, 4u); // the fast entry's four passes
        EXPECT_EQ(report.skipped, 1u); // the counted entry
        EXPECT_FALSE(report.salvaged);
        EXPECT_TRUE(report.checksum_ok);
        EXPECT_EQ(cache.size(), 4u);
        for (const core::dew_result& pass : fast_sweep.passes) {
            const auto hit = cache.find(
                column_key(digest, pass.block_size(), pass.associativity()));
            ASSERT_NE(hit, nullptr);
            ASSERT_TRUE(hit->column.has_value());
            ASSERT_EQ(hit->column->max_level(), fast.max_set_exp);
            for (unsigned level = 0; level <= fast.max_set_exp; ++level) {
                EXPECT_EQ(hit->column->misses(level, pass.associativity()),
                          pass.misses(level, pass.associativity()));
                EXPECT_EQ(hit->column->misses(level, 1),
                          pass.misses(level, 1));
            }
        }
        // The counted pass left no column.
        EXPECT_EQ(cache.find(column_key(digest, 64, 2)), nullptr);
    }

    // A v2 image is framed like v3: a cut one is still strict-rejected.
    result_cache victim{{4, 64}};
    std::istringstream cut{image.substr(0, image.size() / 2)};
    EXPECT_THROW((void)victim.load(cut), std::runtime_error);
    EXPECT_EQ(victim.size(), 0u);
}

TEST(ServeCache, VersionThreeCountedColumnsAreSkipped) {
    // A counted column, as a service that still served counted sweeps
    // saved it, between two fast ones: it loads into `skipped` and leaves
    // no entry, in both modes, and the fast columns around it still load.
    const trace::trace_digest digest{{21, 22}};
    core::sweep_request request;
    request.max_set_exp = 4;
    request.block_sizes = {16};
    request.associativities = {2};
    const core::sweep_result fast_column =
        core::run_sweep(small_trace(), request);
    request.instrumentation = core::sweep_instrumentation::full_counters;
    const core::sweep_result counted_column =
        core::run_sweep(small_trace(), request);
    const std::string image =
        image_of(3, {{column_key(digest, 16, 2), fast_column},
                     {key_of(7), counted_column},
                     {key_of(8), fast_column}});

    for (const load_mode mode : {load_mode::strict, load_mode::salvage}) {
        SCOPED_TRACE(mode == load_mode::strict ? "strict" : "salvage");
        result_cache cache{{4, 64}};
        std::istringstream in{image};
        const cache_load_report report = cache.load(in, mode);
        EXPECT_EQ(report.loaded, 2u);
        EXPECT_EQ(report.skipped, 1u);
        EXPECT_FALSE(report.salvaged);
        EXPECT_TRUE(report.checksum_ok);
        EXPECT_EQ(cache.size(), 2u);
        EXPECT_EQ(cache.find(key_of(7)), nullptr);
        const auto hit = cache.find(column_key(digest, 16, 2));
        ASSERT_NE(hit, nullptr);
        ASSERT_TRUE(hit->column.has_value());
        EXPECT_EQ(hit->column->misses(4, 2),
                  fast_column.passes.front().misses(4, 2));
    }
}

TEST(ServeCache, VersionThreeEntryMustHoldExactlyOneColumn) {
    // A v3 image over a two-pass record: framed and checksummed, but not
    // a column.
    core::sweep_request request;
    request.max_set_exp = 3;
    request.block_sizes = {16};
    request.associativities = {2, 4};
    const std::string image = image_of(
        3, {{key_of(1), core::run_sweep(small_trace(), request)}});

    result_cache cache{{4, 64}};
    std::istringstream in{image};
    try {
        (void)cache.load(in);
        FAIL() << "a two-pass column entry was accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("not 1"), std::string::npos)
            << error.what();
    }
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
