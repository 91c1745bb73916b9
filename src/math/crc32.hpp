// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Guards both persisted artefacts (model bundles) and every wire frame
// (net/wire chains it over each frame's header and payload), so it sits on
// the streaming hot path: a single flipped bit anywhere is detected before
// any length field is trusted. Slice-by-8: eight table lookups per eight
// input bytes, with a bytewise loop for the tail. Values are those of the
// classic bytewise algorithm for any length, alignment and seed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hbrp::math {

/// Incremental CRC-32: pass the previous return value as `seed` to continue
/// a running checksum (initial call uses the default seed).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace hbrp::math
