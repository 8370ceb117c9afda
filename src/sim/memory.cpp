#include "sim/memory.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace focs::sim {

Sram::Sram(std::string name, std::uint32_t base, std::uint32_t size)
    : name_(std::move(name)), base_(base), bytes_(size, 0) {
    check(size > 0 && size % 4 == 0, "SRAM size must be a positive multiple of 4");
}

std::uint32_t Sram::offset_checked(std::uint32_t addr, std::uint32_t bytes) const {
    if (!contains(addr, bytes)) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s: access to 0x%08x (%u bytes) outside [0x%08x, 0x%08x)",
                      name_.c_str(), addr, bytes, base_, base_ + size());
        throw GuestError(buf);
    }
    if (addr % bytes != 0) {
        char buf[80];
        std::snprintf(buf, sizeof buf, "%s: misaligned %u-byte access to 0x%08x", name_.c_str(),
                      bytes, addr);
        throw GuestError(buf);
    }
    return addr - base_;
}

void Sram::write_block(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
    if (addr < base_ || addr - base_ + std::uint64_t{bytes.size()} > bytes_.size()) {
        char buf[112];
        std::snprintf(buf, sizeof buf, "%s: block of %zu bytes at 0x%08x outside [0x%08x, 0x%08x)",
                      name_.c_str(), bytes.size(), addr, base_, base_ + size());
        throw GuestError(buf);
    }
    std::copy(bytes.begin(), bytes.end(), bytes_.begin() + (addr - base_));
}

std::uint8_t Sram::read_u8(std::uint32_t addr) const { return bytes_[offset_checked(addr, 1)]; }

std::uint16_t Sram::read_u16(std::uint32_t addr) const {
    const std::uint32_t o = offset_checked(addr, 2);
    return static_cast<std::uint16_t>(bytes_[o] << 8 | bytes_[o + 1]);
}

std::uint32_t Sram::read_u32(std::uint32_t addr) const {
    const std::uint32_t o = offset_checked(addr, 4);
    return static_cast<std::uint32_t>(bytes_[o]) << 24 | static_cast<std::uint32_t>(bytes_[o + 1]) << 16 |
           static_cast<std::uint32_t>(bytes_[o + 2]) << 8 | bytes_[o + 3];
}

void Sram::write_u8(std::uint32_t addr, std::uint8_t value) {
    bytes_[offset_checked(addr, 1)] = value;
}

void Sram::write_u16(std::uint32_t addr, std::uint16_t value) {
    const std::uint32_t o = offset_checked(addr, 2);
    bytes_[o] = static_cast<std::uint8_t>(value >> 8);
    bytes_[o + 1] = static_cast<std::uint8_t>(value);
}

void Sram::write_u32(std::uint32_t addr, std::uint32_t value) {
    const std::uint32_t o = offset_checked(addr, 4);
    bytes_[o] = static_cast<std::uint8_t>(value >> 24);
    bytes_[o + 1] = static_cast<std::uint8_t>(value >> 16);
    bytes_[o + 2] = static_cast<std::uint8_t>(value >> 8);
    bytes_[o + 3] = static_cast<std::uint8_t>(value);
}

}  // namespace focs::sim
