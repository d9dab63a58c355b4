#include "util/cipher.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace iotaxo {

CipherKey derive_key(std::string_view passphrase) noexcept {
  std::uint64_t state = fnv1a(passphrase);
  CipherKey key{};
  for (auto& word : key) {
    word = static_cast<std::uint32_t>(splitmix64(state) >> 16);
  }
  return key;
}

namespace {
constexpr std::uint32_t kDelta = 0x9E3779B9u;
constexpr int kRounds = 32;
}  // namespace

std::uint64_t xtea_encrypt_block(std::uint64_t block,
                                 const CipherKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block);
  auto v1 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t sum = 0;
  for (int i = 0; i < kRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  return static_cast<std::uint64_t>(v0) |
         (static_cast<std::uint64_t>(v1) << 32);
}

std::uint64_t xtea_decrypt_block(std::uint64_t block,
                                 const CipherKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block);
  auto v1 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t sum = kDelta * static_cast<std::uint32_t>(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
  }
  return static_cast<std::uint64_t>(v0) |
         (static_cast<std::uint64_t>(v1) << 32);
}

namespace {

[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  std::memcpy(p, &v, 8);
}

/// Blocks decrypted in lockstep by cbc_decrypt_blocks. CBC decryption has
/// no chain between block decryptions (P[i] = D(C[i]) ^ C[i-1]), so the
/// rounds run lane-interleaved over this many independent blocks; 32 lanes
/// of two u32 halves fill the sixteen 128-bit registers of baseline x86-64.
constexpr std::size_t kLanes = 32;

/// CBC-decrypt the whole 8-byte blocks of `in` into `out` (same length),
/// chaining from `iv`. Byte-identical to applying xtea_decrypt_block to
/// each block in turn.
void cbc_decrypt_blocks(std::span<const std::uint8_t> in, std::uint8_t* out,
                        const CipherKey& key, std::uint64_t iv) noexcept {
  // The key schedule of xtea_decrypt_block, hoisted out of the block loop:
  // round r subtracts with rk[2r] on v1, then rk[2r + 1] on v0.
  std::array<std::uint32_t, 2 * kRounds> rk{};
  std::uint32_t sum = kDelta * static_cast<std::uint32_t>(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    rk[2 * r] = sum + key[(sum >> 11) & 3];
    sum -= kDelta;
    rk[2 * r + 1] = sum + key[sum & 3];
  }
  const std::size_t nblocks = in.size() / 8;
  for (std::size_t first = 0; first < nblocks; first += kLanes) {
    // The last group may be partial: its idle lanes decrypt zeros and are
    // never stored.
    const std::size_t lanes = std::min(kLanes, nblocks - first);
    alignas(64) std::uint32_t v0[kLanes] = {};
    alignas(64) std::uint32_t v1[kLanes] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t c = load_u64(in.data() + 8 * (first + l));
      v0[l] = static_cast<std::uint32_t>(c);
      v1[l] = static_cast<std::uint32_t>(c >> 32);
    }
    for (int r = 0; r < kRounds; ++r) {
      const std::uint32_t k1 = rk[2 * r];
      const std::uint32_t k0 = rk[2 * r + 1];
#if defined(_OPENMP) || defined(IOTAXO_OPENMP_SIMD)
#pragma omp simd
#endif
      for (std::size_t l = 0; l < kLanes; ++l) {
        v1[l] -= (((v0[l] << 4) ^ (v0[l] >> 5)) + v0[l]) ^ k1;
        v0[l] -= (((v1[l] << 4) ^ (v1[l] >> 5)) + v1[l]) ^ k0;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t i = first + l;
      const std::uint64_t prev =
          i == 0 ? iv : load_u64(in.data() + 8 * (i - 1));
      const std::uint64_t plain = static_cast<std::uint64_t>(v0[l]) |
                                  (static_cast<std::uint64_t>(v1[l]) << 32);
      store_u64(out + 8 * i, plain ^ prev);
    }
  }
}

/// Check and strip PKCS#7 padding (1..8 bytes, each equal to the count).
void strip_padding(std::vector<std::uint8_t>& out) {
  if (out.empty()) {
    throw FormatError("cbc: empty payload");
  }
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > 8 || pad > out.size()) {
    throw FormatError("cbc: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      throw FormatError("cbc: bad padding bytes");
    }
  }
  out.erase(out.end() - pad, out.end());
}

}  // namespace

std::vector<std::uint8_t> cbc_encrypt(std::span<const std::uint8_t> plaintext,
                                      const CipherKey& key,
                                      std::uint64_t iv_seed) {
  // PKCS#7 padding to an 8-byte boundary (always at least one pad byte).
  const std::size_t pad = 8 - (plaintext.size() % 8);
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  buf.insert(buf.end(), pad, static_cast<std::uint8_t>(pad));

  const std::uint64_t iv = mix64(iv_seed ^ 0xC0FFEE1234ULL);
  std::vector<std::uint8_t> out(8 + buf.size());
  store_u64(out.data(), iv);

  std::uint64_t prev = iv;
  for (std::size_t i = 0; i < buf.size(); i += 8) {
    const std::uint64_t block = load_u64(&buf[i]) ^ prev;
    prev = xtea_encrypt_block(block, key);
    store_u64(&out[8 + i], prev);
  }
  return out;
}

std::vector<std::uint8_t> cbc_decrypt(std::span<const std::uint8_t> ciphertext,
                                      const CipherKey& key) {
  if (ciphertext.size() < 16 || ciphertext.size() % 8 != 0) {
    throw FormatError("cbc: ciphertext length invalid");
  }
  std::vector<std::uint8_t> out(ciphertext.size() - 8);
  cbc_decrypt_blocks(ciphertext.subspan(8), out.data(), key,
                     load_u64(ciphertext.data()));
  strip_padding(out);
  return out;
}

std::vector<std::uint8_t> cbc_encrypt_with_iv(
    std::span<const std::uint8_t> plaintext, const CipherKey& key,
    std::uint64_t iv) {
  const std::size_t pad = 8 - (plaintext.size() % 8);
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  buf.insert(buf.end(), pad, static_cast<std::uint8_t>(pad));

  std::vector<std::uint8_t> out(buf.size());
  std::uint64_t prev = iv;
  for (std::size_t i = 0; i < buf.size(); i += 8) {
    const std::uint64_t block = load_u64(&buf[i]) ^ prev;
    prev = xtea_encrypt_block(block, key);
    store_u64(&out[i], prev);
  }
  return out;
}

std::vector<std::uint8_t> cbc_decrypt_with_iv(
    std::span<const std::uint8_t> ciphertext, const CipherKey& key,
    std::uint64_t iv) {
  if (ciphertext.size() < 8 || ciphertext.size() % 8 != 0) {
    throw FormatError("cbc: ciphertext length invalid");
  }
  std::vector<std::uint8_t> out(ciphertext.size());
  cbc_decrypt_blocks(ciphertext, out.data(), key, iv);
  strip_padding(out);
  return out;
}

std::string cbc_encrypt_field(std::string_view plaintext, const CipherKey& key,
                              std::uint64_t iv_seed) {
  const auto ct = cbc_encrypt(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(plaintext.data()),
          plaintext.size()),
      key, iv_seed);
  return hex_encode(ct);
}

std::string cbc_decrypt_field(std::string_view hex_ciphertext,
                              const CipherKey& key) {
  const auto ct = hex_decode(hex_ciphertext);
  const auto pt = cbc_decrypt(ct, key);
  return std::string(reinterpret_cast<const char*>(pt.data()), pt.size());
}

}  // namespace iotaxo
