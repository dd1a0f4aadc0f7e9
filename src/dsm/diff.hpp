// Twin/diff codec for the HLRC invalidate protocol.
//
// A non-home writer copies the page to a "twin" on its first write fault; at
// flush time (barrier or lock release) the current page is compared to the
// twin and only the changed bytes travel to the home, encoded as runs:
//   { u32 offset, u32 length, length bytes } *
// Comparison is word-granular (8 bytes) for speed; adjacent changed words
// coalesce into one run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/serialize.hpp"

namespace parade::dsm {

/// Encodes the byte runs where `current` differs from `twin`.
/// Both buffers are `page_bytes` long; `page_bytes` must be a multiple of 8.
/// The runtime streams diffs with append_diff; this vector form is the
/// reference the tests compare it against.
std::vector<std::uint8_t> encode_diff(const std::uint8_t* current,
                                      const std::uint8_t* twin,
                                      std::size_t page_bytes);

/// Streaming form: writes the runs straight into `out` in the exact
/// wire layout of put_vector<uint8_t> (u32 byte count, then the runs), so a
/// DiffMsg can be encoded without staging the diff in its own vector.
/// Returns the number of diff bytes written (0 = clean page).
std::size_t append_diff(WireBuffer& out, const std::uint8_t* current,
                        const std::uint8_t* twin, std::size_t page_bytes);

/// True when every run of `diff` is complete, non-empty and inside a page
/// of `page_bytes`.
bool diff_well_formed(std::size_t page_bytes, const std::uint8_t* diff,
                      std::size_t diff_bytes);

/// Applies an encoded diff onto `target` (a page of `page_bytes`).
/// Returns false, leaving `target` untouched, if the diff is not
/// diff_well_formed.
bool apply_diff(std::uint8_t* target, std::size_t page_bytes,
                const std::uint8_t* diff, std::size_t diff_bytes);

/// Number of payload bytes (sum of run lengths) described by a diff.
std::size_t diff_payload_bytes(const std::uint8_t* diff,
                               std::size_t diff_bytes);

}  // namespace parade::dsm
