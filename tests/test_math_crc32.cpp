// Tests for math/crc32.hpp: the standard check value, and equality of the
// slice-by-8 implementation with a plain bytewise reference for every
// length up to 4 KiB, every start alignment and chained seeds.
#include "math/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "math/rng.hpp"

namespace {

using hbrp::math::crc32;

/// The bytewise table loop math::crc32 used before slice-by-8.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t n,
                              std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  hbrp::math::Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.uniform_index(256));
  return v;
}

TEST(Crc32, CheckValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceForEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 4096;
  const auto buf = random_bytes(kMaxLen + 8, 20261021);
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= kMaxLen; ++len)
      ASSERT_EQ(crc32(p, len), crc32_reference(p, len))
          << "len " << len << " align " << align;
  }
}

TEST(Crc32, ChainedSeedsEqualOneShot) {
  const auto buf = random_bytes(3000, 7);
  hbrp::math::Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t cut = rng.uniform_index(buf.size() + 1);
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head),
              crc32(buf.data(), buf.size()));
    // An arbitrary seed continues exactly like the reference.
    const auto seed = static_cast<std::uint32_t>(rng.uniform_index(1ull << 32));
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, seed),
              crc32_reference(buf.data() + cut, buf.size() - cut, seed));
  }
}

}  // namespace
