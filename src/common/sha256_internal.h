#ifndef MLCASK_COMMON_SHA256_INTERNAL_H_
#define MLCASK_COMMON_SHA256_INTERNAL_H_

// The SHA-256 block functions behind Sha256, exposed so tests can run each
// one against the FIPS 180-4 vectors and against each other. Library code
// uses Sha256, never these.

#include <cstddef>
#include <cstdint>

namespace mlcask::sha256_internal {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using BlockFn = void (*)(uint32_t state[8], const uint8_t* data,
                         size_t blocks);

/// Portable FIPS 180-4 compression; every build has it.
void ScalarBlocks(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The x86-64 SHA-extensions compression, or nullptr when the build target
/// is not x86-64 or CPUID reports no SHA/SSSE3/SSE4.1 support.
BlockFn ShaNiBlocks();

/// What Sha256 runs: ShaNiBlocks() when present, else ScalarBlocks. Chosen
/// once, on first use, so it is safe during static initialization.
BlockFn DispatchedBlocks();

}  // namespace mlcask::sha256_internal

#endif  // MLCASK_COMMON_SHA256_INTERNAL_H_
