// Tightly-coupled SRAM model.
//
// The case-study core uses single-cycle instruction and data SRAM macros
// (paper Sec. III-A). This class models one such macro: a byte array with
// big-endian word order (OpenRISC), bounds-checked accesses, and aligned
// word/half access requirements.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace focs::sim {

class Sram {
public:
    /// `base` is the first byte address served; `size` the capacity in bytes.
    Sram(std::string name, std::uint32_t base, std::uint32_t size);

    std::uint32_t base() const { return base_; }
    std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }
    const std::string& name() const { return name_; }

    bool contains(std::uint32_t addr, std::uint32_t bytes = 1) const {
        return addr >= base_ && addr - base_ + bytes <= size();
    }

    std::uint8_t read_u8(std::uint32_t addr) const;
    std::uint16_t read_u16(std::uint32_t addr) const;  ///< requires 2-byte alignment
    std::uint32_t read_u32(std::uint32_t addr) const;  ///< requires 4-byte alignment

    void write_u8(std::uint32_t addr, std::uint8_t value);
    void write_u16(std::uint32_t addr, std::uint16_t value);
    void write_u32(std::uint32_t addr, std::uint32_t value);

    /// Copies `bytes` to [addr, addr + bytes.size()) with no alignment
    /// requirement (program loading); throws focs::GuestError when the
    /// range is not inside the macro.
    void write_block(std::uint32_t addr, std::span<const std::uint8_t> bytes);

private:
    /// Validates range and alignment; throws focs::GuestError on violation.
    std::uint32_t offset_checked(std::uint32_t addr, std::uint32_t bytes) const;

    std::string name_;
    std::uint32_t base_;
    std::vector<std::uint8_t> bytes_;
};

}  // namespace focs::sim
