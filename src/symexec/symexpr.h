// Symbolic value expressions — the vocabulary of DTaint's "variable
// description through the memory" (paper §III-B).
//
// A variable is described by where it lives: absolute addresses stay
// concrete, indirect accesses become `deref(base + offset)` chains, and
// unknown inputs are named symbols:
//   * Arg(i)      — formal argument arg0..arg9 (calling convention)
//   * Sp0         — the stack pointer at function entry
//   * Ret(site)   — return value of the call at `site` (paper's
//                   ret_{callsite})
//   * Heap(id)    — heap pointer identified by the hash of its
//                   callsite chain (paper §III-E, Listing 1)
//   * Taint(site) — attacker-controlled bytes introduced by a source
//                   library call at `site`
//
// Expressions are immutable, shared, and hash-consed through the
// ExprInterner (src/symexec/intern.h), or through the calling thread's
// ScratchInterner while SymEngine::Analyze explores a function: the
// factories return the canonical node for each structure in the
// interner they route to, so structural equality is a
// pointer compare and Contains/Replace/taint queries short-circuit on
// per-node flags cached at construction (a kind bitmask and a subtree
// hash bloom). Add/Sub chains are normalized to `base + const` so that
// GetBasePtr-style decomposition (paper Algorithm 1) is syntactic.
//
// A SymRef is a plain pointer to a node in its interner's arena; it
// owns nothing, and the interner's generation (global) or the
// exploration (scratch) bounds its lifetime. A node is one 64-byte,
// trivially destructible record: raw child pointers, and a taint
// node's source name as length-prefixed bytes copied into the same
// arena, so dropping the arena drops everything.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/ir/expr.h"

namespace dtaint {

enum class SymKind : uint8_t {
  kConst,
  kArg,    // formal argument symbol
  kSp0,    // initial stack pointer
  kRet,    // return value of a callsite
  kHeap,   // heap object identity
  kTaint,  // attacker-controlled data from a source
  kInit,   // initial (unknown) value of a register
  kDeref,  // memory contents at an address expression
  kBin,    // binary operator over two symbolic values
};

class SymExpr;
class ExprInterner;
class ScratchInterner;
using SymRef = const SymExpr*;

class SymExpr {
 public:
  // ---- factories (normalizing) -------------------------------------------
  static SymRef Const(uint32_t value);
  static SymRef Arg(int index);
  static SymRef Sp0();
  static SymRef Ret(uint32_t callsite);
  static SymRef Heap(uint64_t id);
  static SymRef Taint(uint32_t site, std::string_view source);
  static SymRef InitReg(int reg);
  static SymRef Deref(SymRef addr, uint8_t size = 4);
  /// Binop with normalization: constants fold; Add/Sub re-associate so
  /// the constant offset bubbles to the top-right: ((x+c1)+c2)=(x+(c1+c2)).
  static SymRef Bin(BinOp op, SymRef lhs, SymRef rhs);

  // ---- accessors -----------------------------------------------------------
  SymKind kind() const { return kind_; }
  uint32_t const_value() const { return static_cast<uint32_t>(a_); }
  int arg_index() const { return static_cast<int>(a_); }
  uint32_t ret_site() const { return static_cast<uint32_t>(a_); }
  uint64_t heap_id() const { return a_; }
  uint32_t taint_site() const { return static_cast<uint32_t>(a_); }
  std::string_view taint_source() const { return Text(text_); }
  int init_reg() const { return static_cast<int>(a_); }
  uint8_t deref_size() const { return size_; }
  BinOp binop() const { return op_; }
  SymRef lhs() const { return lhs_; }
  SymRef rhs() const { return rhs_; }

  uint64_t hash() const { return hash_; }

  /// True if any node of kind `k` occurs in this expression (exact —
  /// the kind bitmask is unioned over the whole subtree at
  /// construction). The O(1) guard in front of kind-targeted rewrites
  /// like heap re-keying and formal-argument substitution.
  bool ContainsKind(SymKind k) const {
    return (kind_mask_ & KindBit(k)) != 0;
  }

  /// Structural equality: a pointer compare, since every node is
  /// canonical. Debug builds re-check distinct pointers with the deep
  /// walk.
  static bool Equal(SymRef a, SymRef b) {
    assert(a == b || !a || !b || !DeepEqual(*a, *b));
    return a == b;
  }

  /// Decomposes into (base, constant offset): `x` -> (x, 0),
  /// `x + 5` -> (x, 5). Constants decompose to (nullptr, c).
  struct BaseOffset {
    SymRef base = nullptr;  // nullptr when the value is purely constant
    int64_t offset = 0;
  };
  static BaseOffset SplitBaseOffset(SymRef expr);

  /// True if `needle` occurs anywhere inside this expression.
  bool Contains(SymRef needle) const;

  /// All Deref subexpressions acting as pointers inside `expr` (paper
  /// Algorithm 1's GetPtrInVar). Includes nested derefs; excludes the
  /// expression itself when skip_self is set.
  static void CollectDerefs(SymRef expr, std::vector<SymRef>* out,
                            bool skip_self = false);

  /// Structural replace: every occurrence of `from` becomes `to`.
  /// Returns this expression unchanged (same pointer) if absent.
  static SymRef Replace(SymRef self, SymRef from, SymRef to);

  /// Number of nodes (used to bound expression growth).
  int Depth() const { return depth_; }

  /// True if any Taint node occurs in the expression. O(1): answered
  /// from the kind bitmask cached at construction.
  bool IsTainted() const { return ContainsKind(SymKind::kTaint); }
  /// First (leftmost) taint node, if any. The descent only enters
  /// subtrees whose bitmask carries the taint bit.
  std::optional<std::pair<uint32_t, std::string>> FindTaint() const;

  /// Printable form mirroring the paper: "deref(arg0+0x4c)", "SP-0x100",
  /// "ret_{0x6c4c}", "taint@0x6c78".
  std::string ToString() const;

 private:
  friend class ExprInterner;     // constructs nodes in its arena
  friend class ScratchInterner;  // likewise, and publishes them

  /// `shape_hash` must be ShapeHash over the same fields — the
  /// interner's miss path has already computed it for the table probe,
  /// so the constructor takes it instead of hashing twice (debug builds
  /// assert the match). `text` is null or a name laid out by
  /// StoreText in the interner's arena.
  SymExpr(SymKind kind, uint64_t a, uint8_t size, BinOp op, SymRef lhs,
          SymRef rhs, const char* text, uint64_t shape_hash);

  static SymRef Make(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                     SymRef lhs, SymRef rhs, std::string_view text = {});

  /// Copies `text` into memory from `alloc(bytes, align)` as a uint32
  /// length followed by the bytes, and returns the pointer a node
  /// keeps; null for no text.
  template <typename Alloc>
  static const char* StoreText(std::string_view text, Alloc&& alloc) {
    if (text.empty()) return nullptr;
    // Names are source-model names or codec strings with a uint32
    // length, so the length always fits.
    const auto len = static_cast<uint32_t>(text.size());
    assert(len == text.size());
    auto* mem = static_cast<char*>(alloc(sizeof len + len, alignof(uint32_t)));
    std::memcpy(mem, &len, sizeof len);
    std::memcpy(mem + sizeof len, text.data(), len);
    return mem;
  }
  /// The name StoreText laid out at `text` (empty for null).
  static std::string_view Text(const char* text) {
    if (!text) return {};
    uint32_t len;
    std::memcpy(&len, text, sizeof len);
    return {text + sizeof len, len};
  }

  static constexpr uint16_t KindBit(SymKind k) {
    return static_cast<uint16_t>(uint16_t{1} << static_cast<int>(k));
  }
  static constexpr uint64_t BloomBit(uint64_t hash) {
    return uint64_t{1} << (hash & 63);
  }
  /// May `needle` occur inside this subtree? One-sided: false is
  /// definitive (kind bitmask + subtree hash bloom), true means "walk".
  bool MayContain(const SymExpr& needle) const {
    return (kind_mask_ & KindBit(needle.kind_)) != 0 &&
           (bloom_ & BloomBit(needle.hash_)) != 0;
  }

  /// The structural hash of a node with these fields (children by
  /// canonical identity of their own hashes). Single definition shared
  /// by the constructor and the interner's pre-construction lookup.
  static uint64_t ShapeHash(SymKind kind, uint64_t a, uint8_t size,
                            BinOp op, const SymExpr* lhs,
                            const SymExpr* rhs, std::string_view text);

  /// True if this node has exactly these fields (children by pointer):
  /// the interners' table-hit test.
  bool HasShape(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                const SymExpr* lhs, const SymExpr* rhs,
                std::string_view text) const {
    return kind_ == kind && a_ == a && size_ == size && op_ == op &&
           lhs_ == lhs && rhs_ == rhs && Text(text_) == text;
  }

  /// Full structural walk, hash-gated. The reference semantics Equal's
  /// pointer compare must agree with (debug builds assert this).
  static bool DeepEqual(const SymExpr& a, const SymExpr& b);

  bool ContainsImpl(const SymExpr& needle) const;

  SymKind kind_;
  uint8_t size_ = 4;
  BinOp op_ = BinOp::kAdd;
  bool scratch_ = false;    // lives in a ScratchInterner, not Global()
  uint16_t kind_mask_ = 0;  // union of KindBit over the subtree
  int depth_ = 1;
  uint64_t a_ = 0;          // const/arg/ret/heap/init payload
  SymRef lhs_ = nullptr;
  SymRef rhs_ = nullptr;
  const char* text_ = nullptr;  // taint source name (see StoreText)
  uint64_t hash_ = 0;
  uint64_t bloom_ = 0;      // union of BloomBit(hash) over the subtree
};

// A node fits in a cache line and leaves nothing for an arena to
// destroy: the interners drop whole blocks without visiting a node.
static_assert(sizeof(SymRef) == 8);
static_assert(sizeof(SymExpr) <= 64);
static_assert(std::is_trivially_destructible_v<SymExpr>);

/// Convenience: a + c (normalized).
SymRef SymAdd(SymRef a, int64_t c);

/// Strips symbolic index terms from an address base: after
/// normalization a residual Add with a non-constant right side is an
/// array walk (buf + i); the stable region base is the left spine.
/// StripIndex(buf + i) == buf; StripIndex(buf) == buf.
SymRef StripIndex(SymRef base);

}  // namespace dtaint
