// Versioned binary codec for FunctionSummary — the value format of the
// persistent summary cache.
//
// Layout (all integers little-endian):
//
//   u32 magic "DTSC"  | u16 version | payload ... | u64 FNV-1a checksum
//
// The checksum covers every byte before it, so bit flips and
// truncations anywhere in the blob are rejected with a clean Status
// (the cache then recomputes — a corrupted entry must never crash or,
// worse, silently alter analysis results). A version mismatch is
// likewise a decode error: bumping kSummaryCodecVersion invalidates
// every existing entry, which is the codec's whole invalidation story.
//
// Symbolic expressions are encoded with structural sharing: a summary
// is a DAG (per-path def pairs and constraints share subtrees), so
// each unique node is written once and later occurrences are a
// back-reference to its id. Path constraints are interned the same
// way, and so are whole constraint lists: every record on a path
// shares the path's list, so the same list recurs hundreds of times
// per summary. Lists are hash-consed (src/symexec/constraints.h), so
// the encoder keys them by pointer; equal pointers mean equal
// contents, so the bytes are those a content key would give. Blob
// size and decode time scale with the unique-node count, and decode
// rebuilds the same shared lists through the global interner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/symexec/defpairs.h"
#include "src/util/status.h"

namespace dtaint {

inline constexpr uint32_t kSummaryCodecMagic = 0x44545343;  // "DTSC"
/// 2: the per-summary count of alias twin pairs left the blob.
inline constexpr uint16_t kSummaryCodecVersion = 2;

/// Serializes a summary (def pairs, undefined uses, calls, return
/// values, types, exploration stats) into the versioned blob above.
/// Deterministic: equal summaries encode to equal bytes.
std::vector<uint8_t> EncodeSummary(const FunctionSummary& summary);

/// Decodes a blob produced by EncodeSummary. Any corruption —
/// truncation, bit flip, bad magic, over-long counts — yields a
/// kCorruptData error; a version mismatch yields kUnsupported. Never
/// crashes on hostile bytes.
Result<FunctionSummary> DecodeSummary(std::span<const uint8_t> bytes);

}  // namespace dtaint
