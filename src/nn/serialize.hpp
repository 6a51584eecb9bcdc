// Binary (de)serialisation of network parameters.
//
// Current format (v2, magic "ADR2", checkpoint format of DESIGN.md §7):
//   magic "ADR2" | u32 version = 2 | u64 tag | u32 parameter count |
//   per parameter: u64 element count + raw float32 data |
//   u32 CRC32 of everything after the magic.
// All integers and floats are little-endian host order (the library targets
// a single host, not an interchange format). `tag` is caller-owned metadata
// — the trainer stores the next epoch index there for resumable training.
//
// Writes are atomic: the file is written to `<path>.tmp` and renamed over
// `path` only after every byte (CRC included) went out, so a crash or I/O
// failure mid-save never leaves a torn checkpoint behind.
//
// Loads are all-or-nothing: the whole file is read and CRC-verified into a
// staging buffer before the first parameter is touched, so a truncated or
// bit-flipped checkpoint is rejected without a partial parameter load.
// Only v2 loads: any other magic, including the retired v1 "ADRW" format
// (no tag, no CRC), is rejected the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace adarnet::nn {

/// Writes parameter values (and `tag`) to `path` atomically. Returns false
/// on I/O failure, in which case `path` is left untouched.
bool save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path, std::uint64_t tag = 0);

/// Reads parameter values from `path` into `params`; shapes must match the
/// saved element counts. Returns false on I/O failure, a magic other than
/// v2's, corruption (bad CRC, truncation, trailing bytes) or shape mismatch
/// — and then guarantees no parameter and no `*tag` was modified. `tag`,
/// when non-null, receives the saved tag.
bool load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path, std::uint64_t* tag = nullptr);

}  // namespace adarnet::nn
