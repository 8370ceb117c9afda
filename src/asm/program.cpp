#include "asm/program.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"

namespace focs::assembler {

std::uint8_t* Program::claim(std::uint32_t addr, std::uint64_t count) {
    const std::uint64_t end = std::uint64_t{addr} + count;
    check(end <= std::uint64_t{1} << 32, "program image range passes 0xffffffff");
    // Runs that overlap or touch [addr, end): the first one whose end
    // reaches addr, up to the last one starting at or before end.
    const auto first = std::lower_bound(
        segments_.begin(), segments_.end(), addr,
        [](const Segment& segment, std::uint32_t a) { return segment.end() < a; });
    auto last = first;
    while (last != segments_.end() && last->base <= end) ++last;
    if (first == last) {
        return segments_.insert(first, Segment{addr, std::vector<std::uint8_t>(count)})
            ->bytes.data();
    }
    // Merge the touched runs into the first. Any gap between them lies
    // inside [addr, end), which the caller is about to write.
    const std::uint32_t base = std::min(first->base, addr);
    const std::uint64_t merged_end = std::max(end, std::prev(last)->end());
    std::vector<std::uint8_t>& bytes = first->bytes;
    bytes.insert(bytes.begin(), first->base - base, 0);
    bytes.resize(merged_end - base);
    for (auto it = std::next(first); it != last; ++it) {
        std::copy(it->bytes.begin(), it->bytes.end(), bytes.begin() + (it->base - base));
    }
    first->base = base;
    const auto out = bytes.data() + (addr - base);
    segments_.erase(std::next(first), last);
    return out;
}

void Program::store(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    std::copy(bytes.begin(), bytes.end(), claim(addr, bytes.size()));
}

void Program::fill(std::uint32_t addr, std::uint32_t count, std::uint8_t value) {
    if (count == 0) return;
    std::fill_n(claim(addr, count), count, value);
}

std::uint8_t Program::byte_at(std::uint32_t addr) const {
    const auto after = std::upper_bound(
        segments_.begin(), segments_.end(), addr,
        [](std::uint32_t a, const Segment& segment) { return a < segment.base; });
    if (after == segments_.begin()) return 0;
    const Segment& segment = *std::prev(after);
    const std::uint32_t offset = addr - segment.base;
    return offset < segment.bytes.size() ? segment.bytes[offset] : 0;
}

std::size_t Program::image_size() const {
    std::size_t total = 0;
    for (const auto& segment : segments_) total += segment.bytes.size();
    return total;
}

std::string Program::listing_text() const {
    std::string out;
    char buf[64];
    for (const auto& e : listing_) {
        std::snprintf(buf, sizeof buf, "%08x: %08x  ", e.address, e.word);
        out += buf;
        out += isa::disassemble(isa::decode(e.word), e.address);
        out += '\n';
    }
    return out;
}

}  // namespace focs::assembler
