// XTEA block cipher with CBC mode, implemented from scratch (the toolkit
// assumes no external crypto library). Used for Tracefs-style trace-data
// anonymization ("secret key encryption using Cipher Block Chaining") and
// for encrypted binary trace files.
//
// This is a simulation-grade cipher: XTEA is a real, published algorithm
// (Needham & Wheeler, 1997) and our implementation is correct, but key
// handling here is deliberately simple (passphrase -> KDF) and should not
// be treated as production cryptography.
//
// CBC decryption runs 32 blocks in lockstep: each plaintext block is
// D(C[i]) ^ C[i-1], so no block's decryption waits on another's, and the
// XTEA rounds run lane-interleaved over 32 blocks in one vectorizable loop
// (byte-identical to chaining xtea_decrypt_block). CBC encryption stays
// serial by construction: each block's input is the previous block's
// ciphertext.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace iotaxo {

/// 128-bit key for XTEA.
using CipherKey = std::array<std::uint32_t, 4>;

/// Derive a key from a passphrase (iterated FNV/SplitMix mixing).
[[nodiscard]] CipherKey derive_key(std::string_view passphrase) noexcept;

/// Encrypt one 64-bit block (32 rounds).
[[nodiscard]] std::uint64_t xtea_encrypt_block(std::uint64_t block,
                                               const CipherKey& key) noexcept;
[[nodiscard]] std::uint64_t xtea_decrypt_block(std::uint64_t block,
                                               const CipherKey& key) noexcept;

/// CBC encrypt with PKCS#7-style padding; a fresh IV is derived from
/// `iv_seed` and prepended to the ciphertext.
[[nodiscard]] std::vector<std::uint8_t> cbc_encrypt(
    std::span<const std::uint8_t> plaintext, const CipherKey& key,
    std::uint64_t iv_seed);

/// CBC decrypt; throws FormatError on bad padding or truncated input.
[[nodiscard]] std::vector<std::uint8_t> cbc_decrypt(
    std::span<const std::uint8_t> ciphertext, const CipherKey& key);

/// CBC encrypt with a caller-supplied IV that is NOT stored in the
/// ciphertext: both sides derive the IV from context (the IOTB3 block
/// container uses a pure function of the block ordinal and column group).
/// Output is PKCS#7-padded plaintext length only (+1..8 bytes).
[[nodiscard]] std::vector<std::uint8_t> cbc_encrypt_with_iv(
    std::span<const std::uint8_t> plaintext, const CipherKey& key,
    std::uint64_t iv);

/// Inverse of cbc_encrypt_with_iv; throws FormatError on bad length or
/// padding (which is also what a wrong IV or key degrades into).
[[nodiscard]] std::vector<std::uint8_t> cbc_decrypt_with_iv(
    std::span<const std::uint8_t> ciphertext, const CipherKey& key,
    std::uint64_t iv);

/// Convenience: string in/out, hex-armored ciphertext (used when encrypting
/// individual trace fields in otherwise human-readable output).
[[nodiscard]] std::string cbc_encrypt_field(std::string_view plaintext,
                                            const CipherKey& key,
                                            std::uint64_t iv_seed);
[[nodiscard]] std::string cbc_decrypt_field(std::string_view hex_ciphertext,
                                            const CipherKey& key);

}  // namespace iotaxo
