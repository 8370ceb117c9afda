// Assembled program image.
//
// The guest address space is Harvard-style, mirroring the paper's tightly
// coupled memories: code lives in the instruction SRAM region starting at 0,
// data in the data SRAM region starting at kDataBase. The assembler's
// `.text` / `.data` directives switch the location counter between the two.
//
// The image is stored flat: a sorted list of contiguous address runs
// (segments), one byte array each, so a program costs its image size plus a
// few words per run. The listing keeps (address, word, source line) per
// emitted instruction; disassembly is rendered only by listing_text().
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace focs::assembler {

/// Base address of the data SRAM region in the flat guest address space.
inline constexpr std::uint32_t kDataBase = 0x0010'0000;

/// One emitted instruction word of the assembly listing.
struct ListingEntry {
    std::uint32_t address = 0;
    std::uint32_t word = 0;
    int source_line = 0;
};

/// One contiguous run of image bytes starting at `base`.
struct Segment {
    std::uint32_t base = 0;
    std::vector<std::uint8_t> bytes;

    /// One past the last byte (64-bit: a run may end at 2^32).
    std::uint64_t end() const { return std::uint64_t{base} + bytes.size(); }
};

/// A fully assembled, relocated program image with symbols and a listing.
class Program {
public:
    /// Stores `bytes` at `addr`; later stores to the same address overwrite.
    /// The range must end at or below 2^32.
    void store(std::uint32_t addr, std::span<const std::uint8_t> bytes);

    /// Stores `count` copies of `value` at `addr` (same rules as store).
    void fill(std::uint32_t addr, std::uint32_t count, std::uint8_t value);

    /// Stores a 32-bit word big-endian (OpenRISC byte order).
    void set_word(std::uint32_t addr, std::uint32_t value) {
        const std::uint8_t bytes[4] = {
            static_cast<std::uint8_t>(value >> 24), static_cast<std::uint8_t>(value >> 16),
            static_cast<std::uint8_t>(value >> 8), static_cast<std::uint8_t>(value)};
        store(addr, bytes);
    }

    /// Reads back one byte (0 for unset bytes).
    std::uint8_t byte_at(std::uint32_t addr) const;

    /// Reads back a big-endian word (0 for unset bytes).
    std::uint32_t word_at(std::uint32_t addr) const {
        return std::uint32_t{byte_at(addr)} << 24 | std::uint32_t{byte_at(addr + 1)} << 16 |
               std::uint32_t{byte_at(addr + 2)} << 8 | byte_at(addr + 3);
    }

    /// The image as address runs: sorted by base, disjoint and never
    /// adjacent (touching stores merge into one run).
    const std::vector<Segment>& segments() const { return segments_; }

    /// Number of distinct addresses the image stores.
    std::size_t image_size() const;

    void set_entry(std::uint32_t entry) { entry_ = entry; }
    std::uint32_t entry() const { return entry_; }

    void define_symbol(const std::string& name, std::uint32_t value) { symbols_[name] = value; }
    std::optional<std::uint32_t> symbol(const std::string& name) const {
        const auto it = symbols_.find(name);
        if (it == symbols_.end()) return std::nullopt;
        return it->second;
    }
    const std::map<std::string, std::uint32_t>& symbols() const { return symbols_; }

    void add_listing(ListingEntry entry) { listing_.push_back(entry); }
    const std::vector<ListingEntry>& listing() const { return listing_; }

    /// Renders the listing as "address: word  disassembly" lines, decoding
    /// each listed word.
    std::string listing_text() const;

    /// Deterministic resident-size estimate for cache byte budgeting: the
    /// image bytes plus flat allowances per run, listing entry and symbol
    /// (platform-independent on purpose, so LRU eviction order is
    /// reproducible across builds).
    std::uint64_t estimated_bytes() const {
        std::uint64_t total = 128 + image_size() + 32 * segments_.size();
        total += 12 * listing_.size();
        for (const auto& [name, value] : symbols_) total += 64 + name.size() + sizeof value;
        return total;
    }

private:
    /// Makes [addr, addr + count) part of the image, merging every run it
    /// touches, and returns the first byte of that range.
    std::uint8_t* claim(std::uint32_t addr, std::uint64_t count);

    std::vector<Segment> segments_;
    std::map<std::string, std::uint32_t> symbols_;
    std::vector<ListingEntry> listing_;
    std::uint32_t entry_ = 0;
};

}  // namespace focs::assembler
