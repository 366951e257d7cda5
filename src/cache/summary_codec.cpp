#include "src/cache/summary_codec.h"

#include <tuple>
#include <unordered_map>

#include "src/util/hash.h"

namespace dtaint {

namespace {

// Decoded expressions are rebuilt through the normalizing factories, so
// a blob can never smuggle in a tree shape the engine could not have
// produced. The depth cap bounds decoder recursion on hostile input;
// genuine summaries stay far below it (the engine widens expressions
// past ~100 nodes).
constexpr int kMaxExprDepth = 512;

// Summaries are expression *DAGs*: per-path def pairs and constraint
// lists share most subtrees. Each unique node (by pointer identity) is
// encoded once; re-occurrences are a back-reference tag + the node's
// post-order id. This keeps blobs and decode time proportional to the
// number of unique nodes instead of the fully-expanded tree, and the
// decoder reconstructs the same sharing, so encode(decode(b)) == b.
//
// The identity used is the node pointer, and every SymExpr is the
// canonical (hash-consed) node for its structure. That makes the
// sharing structure — and therefore the bytes — a function of the
// summary's value alone, independent of how its expressions were built
// (engine factories or a decode of an older blob).
// tests/golden_report_test pins the encoded bytes.
constexpr uint8_t kExprBackRef = 0xFF;

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void Expr(SymRef e) {
    if (!e) {
      U8(0);
      return;
    }
    auto it = expr_ids_.find(e);
    if (it != expr_ids_.end()) {
      U8(kExprBackRef);
      U32(it->second);
      return;
    }
    U8(static_cast<uint8_t>(e->kind()) + 1);
    switch (e->kind()) {
      case SymKind::kConst:
        U32(e->const_value());
        break;
      case SymKind::kArg:
        U32(static_cast<uint32_t>(e->arg_index()));
        break;
      case SymKind::kSp0:
        break;
      case SymKind::kRet:
        U32(e->ret_site());
        break;
      case SymKind::kHeap:
        U64(e->heap_id());
        break;
      case SymKind::kTaint:
        U32(e->taint_site());
        Str(e->taint_source());
        break;
      case SymKind::kInit:
        U32(static_cast<uint32_t>(e->init_reg()));
        break;
      case SymKind::kDeref:
        U8(e->deref_size());
        Expr(e->lhs());
        break;
      case SymKind::kBin:
        U8(static_cast<uint8_t>(e->binop()));
        Expr(e->lhs());
        Expr(e->rhs());
        break;
    }
    // Post-order id assignment (children first) — the decoder appends
    // to its pool in the same order.
    expr_ids_.emplace(e, next_expr_id_++);
  }

  void Constraint(const PathConstraint& c) {
    // Lists that differ only in their newest constraints share the
    // older ones, so the same constraint recurs hundreds of times per
    // summary (sharing its expression pointers). Intern them like
    // expression nodes: full record once, back-reference after.
    ConstraintKey key = KeyFor(c);
    auto it = constraint_ids_.find(key);
    if (it != constraint_ids_.end()) {
      U8(kExprBackRef);
      U32(it->second);
      return;
    }
    U8(1);
    U8(static_cast<uint8_t>(c.op));
    Expr(c.lhs);
    Expr(c.rhs);
    U8(c.taken ? 1 : 0);
    U32(c.site);
    constraint_ids_.emplace(key, next_constraint_id_++);
  }

  void List(ConstraintList list) {
    // Every def pair and call recorded on a path shares the path's
    // list, and the lists of one path share their older cells. Each
    // distinct cell gets an id (the empty list is 0), so a list is
    // written as its newest already-written tail plus the cells on top
    // of it, oldest first; a list seen before is a back-reference.
    // Lists are hash-consed, so a cell pointer names its contents.
    fresh_.clear();
    uint32_t tail_id = 0;
    for (const ConstraintCell* cell = list.head(); cell; cell = cell->tail) {
      auto it = list_ids_.find(cell);
      if (it != list_ids_.end()) {
        tail_id = it->second;
        break;
      }
      fresh_.push_back(cell);
    }
    if (fresh_.empty()) {
      if (tail_id == 0) {
        U8(0);
      } else {
        U8(kExprBackRef);
        U32(tail_id);
      }
      return;
    }
    U8(1);
    U32(tail_id);
    U32(static_cast<uint32_t>(fresh_.size()));
    for (auto it = fresh_.rbegin(); it != fresh_.rend(); ++it) {
      Constraint((*it)->c);
      list_ids_.emplace(*it, next_list_id_++);
    }
  }

  std::vector<uint8_t> Take() && { return std::move(out_); }

 private:
  using ConstraintKey =
      std::tuple<uint8_t, const SymExpr*, const SymExpr*, bool, uint32_t>;

  struct ConstraintKeyHash {
    size_t operator()(const ConstraintKey& key) const {
      const auto& [op, lhs, rhs, taken, site] = key;
      uint64_t h = HashCombine(op, reinterpret_cast<uintptr_t>(lhs));
      h = HashCombine(h, reinterpret_cast<uintptr_t>(rhs));
      return HashCombine(HashCombine(h, taken ? 1 : 0), site);
    }
  };

  // Constraint dedup keys carry canonical expression pointers for the
  // same reason Expr does: identical constraints must collide.
  static ConstraintKey KeyFor(const PathConstraint& c) {
    return ConstraintKey{static_cast<uint8_t>(c.op), c.lhs, c.rhs, c.taken,
                         c.site};
  }

  std::vector<uint8_t> out_;
  // Ids count up in first-seen order, so the bytes do not depend on
  // how these tables iterate.
  std::unordered_map<const SymExpr*, uint32_t> expr_ids_;
  uint32_t next_expr_id_ = 0;
  std::unordered_map<ConstraintKey, uint32_t, ConstraintKeyHash>
      constraint_ids_;
  uint32_t next_constraint_id_ = 0;
  std::unordered_map<const ConstraintCell*, uint32_t> list_ids_;
  uint32_t next_list_id_ = 1;
  std::vector<const ConstraintCell*> fresh_;  // List's scratch, newest first
};

/// Bounds-checked reader: the first overrun latches the fail flag and
/// every later read returns zero, so decode loops terminate and the
/// caller needs a single ok() check per structure.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const { return !failed_; }
  size_t remaining() const { return failed_ ? 0 : bytes_.size() - pos_; }

  uint8_t U8() {
    if (remaining() < 1) return Fail();
    return bytes_[pos_++];
  }
  uint16_t U16() {
    uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (U8() << 8));
  }
  uint32_t U32() {
    uint32_t lo = U16();
    return lo | (static_cast<uint32_t>(U16()) << 16);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | (static_cast<uint64_t>(U32()) << 32);
  }
  std::string Str() {
    uint32_t len = U32();
    if (remaining() < len) {
      Fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  /// Element count for a vector about to be decoded: each element costs
  /// at least one byte, so any count beyond the remaining bytes is
  /// corruption (and would otherwise allocate unboundedly).
  uint32_t Count() {
    uint32_t n = U32();
    if (n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }

  SymRef Expr(int depth = 0) {
    if (depth > kMaxExprDepth) {
      Fail();
      return nullptr;
    }
    uint8_t tag = U8();
    if (!ok() || tag == 0) return nullptr;
    if (tag == kExprBackRef) {
      uint32_t id = U32();
      if (id >= expr_pool_.size()) {
        Fail();
        return nullptr;
      }
      return expr_pool_[id];
    }
    SymRef node = nullptr;
    switch (static_cast<SymKind>(tag - 1)) {
      case SymKind::kConst:
        node = SymExpr::Const(U32());
        break;
      case SymKind::kArg:
        node = SymExpr::Arg(static_cast<int>(U32()));
        break;
      case SymKind::kSp0:
        node = SymExpr::Sp0();
        break;
      case SymKind::kRet:
        node = SymExpr::Ret(U32());
        break;
      case SymKind::kHeap:
        node = SymExpr::Heap(U64());
        break;
      case SymKind::kTaint: {
        uint32_t site = U32();
        node = SymExpr::Taint(site, Str());
        break;
      }
      case SymKind::kInit:
        node = SymExpr::InitReg(static_cast<int>(U32()));
        break;
      case SymKind::kDeref: {
        uint8_t size = U8();
        SymRef addr = Expr(depth + 1);
        if (!addr) {
          Fail();
          return nullptr;
        }
        node = SymExpr::Deref(addr, size);
        break;
      }
      case SymKind::kBin: {
        uint8_t op = U8();
        if (op > static_cast<uint8_t>(BinOp::kCmpGt)) {
          Fail();
          return nullptr;
        }
        SymRef lhs = Expr(depth + 1);
        SymRef rhs = Expr(depth + 1);
        if (!lhs || !rhs) {
          Fail();
          return nullptr;
        }
        node = SymExpr::Bin(static_cast<BinOp>(op), lhs, rhs);
        break;
      }
      default:
        Fail();
        return nullptr;
    }
    if (!ok() || !node) {
      Fail();
      return nullptr;
    }
    expr_pool_.push_back(node);
    return node;
  }

  PathConstraint Constraint() {
    PathConstraint c;
    uint8_t tag = U8();
    if (tag == kExprBackRef) {
      uint32_t id = U32();
      if (id >= constraint_pool_.size()) {
        Fail();
        return c;
      }
      return constraint_pool_[id];
    }
    if (tag != 1) {
      Fail();
      return c;
    }
    uint8_t op = U8();
    if (op > static_cast<uint8_t>(BinOp::kCmpGt)) {
      Fail();
      return c;
    }
    c.op = static_cast<BinOp>(op);
    c.lhs = Expr();
    c.rhs = Expr();
    c.taken = U8() != 0;
    c.site = U32();
    if (ok()) constraint_pool_.push_back(c);
    return c;
  }

  ConstraintList List() {
    uint8_t tag = U8();
    if (tag == 0) return {};
    if (tag == kExprBackRef) {
      uint32_t id = U32();
      if (id == 0 || id >= list_pool_.size()) {
        Fail();
        return {};
      }
      return list_pool_[id];
    }
    if (tag != 1) {
      Fail();
      return {};
    }
    // New cells over a list the blob already defined, oldest first.
    // Each distinct cell is interned once per blob, through the global
    // interner, so the list is the very one the engine published.
    uint32_t tail_id = U32();
    if (tail_id >= list_pool_.size()) {
      Fail();
      return {};
    }
    ConstraintList list = list_pool_[tail_id];
    uint32_t n = Count();
    if (n == 0) Fail();
    for (uint32_t i = 0; i < n && ok(); ++i) {
      PathConstraint c = Constraint();
      if (!ok()) break;
      list = list.Push(c);
      list_pool_.push_back(list);
    }
    return list;
  }

 private:
  uint8_t Fail() {
    failed_ = true;
    return 0;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::vector<SymRef> expr_pool_;
  std::vector<PathConstraint> constraint_pool_;
  std::vector<ConstraintList> list_pool_{ConstraintList()};  // 0: empty
};

}  // namespace

uint64_t SummaryBlobChecksum(std::span<const uint8_t> payload) {
  return Fingerprint128().Mix(payload).Digest().lo;
}

std::vector<uint8_t> EncodeSummary(const FunctionSummary& summary) {
  Writer w;
  w.U32(kSummaryCodecMagic);
  w.U16(kSummaryCodecVersion);

  w.Str(summary.name);
  w.U32(summary.addr);

  w.U32(static_cast<uint32_t>(summary.def_pairs.size()));
  for (const DefPair& dp : summary.def_pairs) {
    w.Expr(dp.d);
    w.Expr(dp.u);
    w.U32(dp.site);
    w.U32(static_cast<uint32_t>(dp.path_id));
    w.List(dp.constraints);
  }

  w.U32(static_cast<uint32_t>(summary.undefined_uses.size()));
  for (const UseRecord& use : summary.undefined_uses) {
    w.Expr(use.u);
    w.U32(use.site);
    w.U32(static_cast<uint32_t>(use.path_id));
  }

  w.U32(static_cast<uint32_t>(summary.calls.size()));
  for (const CallEvent& call : summary.calls) {
    w.U32(call.callsite);
    w.Str(call.callee);
    w.U8(call.is_import ? 1 : 0);
    w.U8(call.is_indirect ? 1 : 0);
    w.Expr(call.indirect_target);
    w.U32(static_cast<uint32_t>(call.args.size()));
    for (SymRef arg : call.args) w.Expr(arg);
    w.List(call.constraints);
    w.U32(static_cast<uint32_t>(call.path_id));
  }

  w.U32(static_cast<uint32_t>(summary.return_values.size()));
  for (SymRef ret : summary.return_values) w.Expr(ret);

  // TypeMap iterates its sorted underlying map — deterministic bytes.
  w.U32(static_cast<uint32_t>(summary.types.entries().size()));
  for (const auto& [hash, type] : summary.types.entries()) {
    w.U64(hash);
    w.U8(static_cast<uint8_t>(type));
  }

  w.U32(static_cast<uint32_t>(summary.paths_explored));
  w.U32(static_cast<uint32_t>(summary.blocks_visited));
  w.U8(summary.truncated ? 1 : 0);

  std::vector<uint8_t> out = std::move(w).Take();
  uint64_t checksum = SummaryBlobChecksum(out);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(checksum >> (8 * i)));
  }
  return out;
}

Result<FunctionSummary> DecodeSummary(std::span<const uint8_t> bytes) {
  if (bytes.size() < 4 + 2 + 8) {
    return CorruptData("summary blob too short");
  }
  uint64_t stored = 0;
  for (int i = 7; i >= 0; --i) {
    stored = (stored << 8) | bytes[bytes.size() - 8 + i];
  }
  std::span<const uint8_t> payload = bytes.first(bytes.size() - 8);
  if (SummaryBlobChecksum(payload) != stored) {
    return CorruptData("summary blob checksum mismatch");
  }

  Reader r(payload);
  if (r.U32() != kSummaryCodecMagic) {
    return CorruptData("summary blob bad magic");
  }
  uint16_t version = r.U16();
  if (version != kSummaryCodecVersion) {
    return Unsupported("summary codec version " + std::to_string(version) +
                       " (want " + std::to_string(kSummaryCodecVersion) +
                       ")");
  }

  FunctionSummary summary;
  summary.name = r.Str();
  summary.addr = r.U32();

  uint32_t def_count = r.Count();
  summary.def_pairs.reserve(def_count);
  for (uint32_t i = 0; i < def_count && r.ok(); ++i) {
    DefPair dp;
    dp.d = r.Expr();
    dp.u = r.Expr();
    dp.site = r.U32();
    dp.path_id = static_cast<int>(r.U32());
    dp.constraints = r.List();
    if (!dp.d || !dp.u) return CorruptData("def pair missing expression");
    summary.def_pairs.push_back(std::move(dp));
  }

  uint32_t use_count = r.Count();
  summary.undefined_uses.reserve(use_count);
  for (uint32_t i = 0; i < use_count && r.ok(); ++i) {
    UseRecord use;
    use.u = r.Expr();
    use.site = r.U32();
    use.path_id = static_cast<int>(r.U32());
    if (!use.u) return CorruptData("use record missing expression");
    summary.undefined_uses.push_back(std::move(use));
  }

  uint32_t call_count = r.Count();
  summary.calls.reserve(call_count);
  for (uint32_t i = 0; i < call_count && r.ok(); ++i) {
    CallEvent call;
    call.callsite = r.U32();
    call.callee = r.Str();
    call.is_import = r.U8() != 0;
    call.is_indirect = r.U8() != 0;
    call.indirect_target = r.Expr();
    uint32_t arg_count = r.Count();
    call.args.reserve(arg_count);
    for (uint32_t a = 0; a < arg_count && r.ok(); ++a) {
      call.args.push_back(r.Expr());
    }
    call.constraints = r.List();
    call.path_id = static_cast<int>(r.U32());
    summary.calls.push_back(std::move(call));
  }

  uint32_t ret_count = r.Count();
  summary.return_values.reserve(ret_count);
  for (uint32_t i = 0; i < ret_count && r.ok(); ++i) {
    summary.return_values.push_back(r.Expr());
  }

  uint32_t type_count = r.Count();
  for (uint32_t i = 0; i < type_count && r.ok(); ++i) {
    uint64_t hash = r.U64();
    uint8_t type = r.U8();
    if (type > static_cast<uint8_t>(ValueType::kCharPtr)) {
      return CorruptData("bad value type in summary blob");
    }
    summary.types.Restore(hash, static_cast<ValueType>(type));
  }

  summary.paths_explored = static_cast<int>(r.U32());
  summary.blocks_visited = static_cast<int>(r.U32());
  summary.truncated = r.U8() != 0;

  if (!r.ok()) return CorruptData("summary blob truncated");
  if (r.remaining() != 0) {
    return CorruptData("summary blob has trailing bytes");
  }
  return summary;
}

}  // namespace dtaint
