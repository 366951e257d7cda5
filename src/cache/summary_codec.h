// Versioned binary codec for FunctionSummary — the value format of the
// persistent summary cache.
//
// Layout (all integers little-endian):
//
//   u32 magic "DTSC"  | u16 version | payload ... | u64 checksum
//
// The checksum (SummaryBlobChecksum: Fingerprint128 over the bytes fed
// as whole 64-bit words) covers every byte before it, so bit flips and
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
// way. Constraint lists are written cell by cell: every record on a
// path shares the path's list, and the lists of one path share their
// older cells, so each distinct cell (constraint over tail list) gets
// an id, the empty list being 0. A list is one of
//
//   u8 0                                     the empty list
//   u8 0xFF | u32 id                         a list written before
//   u8 1 | u32 tail id | u32 n | n constraints
//
// where the last form pushes n new cells, oldest first, onto a list
// written before, and each new cell takes the next id. Lists are
// hash-consed (src/symexec/constraints.h), so the encoder keys cells
// by pointer; equal pointers mean equal contents, so the bytes are
// those a content key would give. Blob size and decode time scale with
// the unique-node and unique-cell counts: decode interns each distinct
// cell once, through the global interner, and so rebuilds the very
// lists the engine published.
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
/// 3: constraint lists written cell by cell over their tail's id, and
/// the SummaryBlobChecksum checksum.
inline constexpr uint16_t kSummaryCodecVersion = 3;

/// The checksum a blob ends with, over every byte before it.
uint64_t SummaryBlobChecksum(std::span<const uint8_t> payload);

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
