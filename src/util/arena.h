// Bump-pointer arena for same-lifetime allocations.
//
// The symbolic engine allocates a torrent of tiny objects per function
// — memory-trie nodes, constraint-trail links, overlay spill arrays —
// that all die together the moment the function's summary is
// produced. The lifter places every IR expression of a block in the
// block's own arena (IRBlock::arena), and the nodes die with the
// block. The path finder keeps its per-trace visited tables in one.
// A general-purpose allocator pays a sync'd free-list round-trip for
// each object; the arena pays one pointer bump, and the whole
// population is released wholesale by Reset() (or the destructor).
//
// The arena never runs a destructor: New and NewArray accept only
// trivially destructible types (a static_assert), so a reset just
// frees the chunks. IR nodes, the symbolic state's trie nodes, memory
// cells and trail links, constraint-list cells, the path finder's
// visited slots and the global interner's expression nodes all are.
//
// Single-threaded by design: each arena is filled by one thread (the
// one running the analysis, lifting the block or tracing the path).
// Not internally synchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace dtaint {

class BumpArena {
 public:
  static constexpr size_t kDefaultChunkBytes = 16 * 1024;

  explicit BumpArena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {}
  ~BumpArena() { Release(); }

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// Raw storage, uninitialized. Alignment must be a power of two.
  void* Alloc(size_t bytes, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      AddChunk(bytes + align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Constructs a T in the arena.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (Alloc(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Value-initialized array of n Ts.
  template <typename T>
  T* NewArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    T* arr = static_cast<T*>(Alloc(sizeof(T) * n, alignof(T)));
    for (size_t i = 0; i < n; ++i) new (arr + i) T();
    return arr;
  }

  /// Frees every chunk. The arena is immediately reusable.
  void Reset() {
    Release();
    chunks_ = nullptr;
    cursor_ = 0;
    limit_ = 0;
    bytes_reserved_ = 0;
  }

  /// Total bytes malloc'd for chunks (capacity, not live objects).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Chunk {
    Chunk* next;
    // payload follows
  };
  void AddChunk(size_t min_payload) {
    size_t payload = min_payload > chunk_bytes_ ? min_payload : chunk_bytes_;
    size_t total = sizeof(Chunk) + payload;
    auto* chunk = static_cast<Chunk*>(std::malloc(total));
    chunk->next = chunks_;
    chunks_ = chunk;
    cursor_ = reinterpret_cast<uintptr_t>(chunk) + sizeof(Chunk);
    limit_ = reinterpret_cast<uintptr_t>(chunk) + total;
    bytes_reserved_ += total;
  }

  void Release() {
    for (Chunk* chunk = chunks_; chunk;) {
      Chunk* next = chunk->next;
      std::free(chunk);
      chunk = next;
    }
  }

  size_t chunk_bytes_;
  Chunk* chunks_ = nullptr;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace dtaint
