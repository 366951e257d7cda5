// Bump-pointer arena for per-function analysis scratch.
//
// The symbolic engine allocates a torrent of tiny, same-lifetime
// objects per function — memory-trie nodes, constraint-trail links,
// overlay spill arrays — that all die together the moment the
// function's summary is produced. A general-purpose allocator pays a
// sync'd free-list round-trip for each of them; the arena pays one
// pointer bump, and the whole population is released wholesale by
// Reset() (or the destructor).
//
// Non-trivially-destructible objects can be allocated through New /
// NewArray, which register their destructors on an intrusive list
// (the list nodes live in the arena too). Reset runs them newest-first
// — reverse construction order — so objects may reference earlier
// allocations from their destructors.
//
// Single-threaded by design: one arena per function analysis, owned by
// the worker that runs it. Not internally synchronized.
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

  /// Constructs a T in the arena; registers its destructor unless T is
  /// trivially destructible.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    T* obj = new (Alloc(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      RegisterDtor(&DestroyThunk<T>, obj, 1);
    }
    return obj;
  }

  /// Value-initialized array of n Ts; one destructor record covers the
  /// whole array.
  template <typename T>
  T* NewArray(size_t n) {
    T* arr = static_cast<T*>(Alloc(sizeof(T) * n, alignof(T)));
    for (size_t i = 0; i < n; ++i) new (arr + i) T();
    if constexpr (!std::is_trivially_destructible_v<T>) {
      RegisterDtor(&DestroyThunk<T>, arr, n);
    }
    return arr;
  }

  /// Runs registered destructors (newest first) and frees every chunk.
  /// The arena is immediately reusable.
  void Reset() {
    Release();
    dtors_ = nullptr;
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
  struct DtorRecord {
    void (*destroy)(void* first, size_t count);
    void* first;
    size_t count;
    DtorRecord* next;
  };

  template <typename T>
  static void DestroyThunk(void* first, size_t count) {
    T* arr = static_cast<T*>(first);
    for (size_t i = count; i > 0; --i) arr[i - 1].~T();
  }

  void RegisterDtor(void (*destroy)(void*, size_t), void* first,
                    size_t count) {
    auto* rec = static_cast<DtorRecord*>(
        Alloc(sizeof(DtorRecord), alignof(DtorRecord)));
    rec->destroy = destroy;
    rec->first = first;
    rec->count = count;
    rec->next = dtors_;
    dtors_ = rec;
  }

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
    for (DtorRecord* rec = dtors_; rec; rec = rec->next) {
      rec->destroy(rec->first, rec->count);
    }
    for (Chunk* chunk = chunks_; chunk;) {
      Chunk* next = chunk->next;
      std::free(chunk);
      chunk = next;
    }
  }

  size_t chunk_bytes_;
  Chunk* chunks_ = nullptr;
  DtorRecord* dtors_ = nullptr;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace dtaint
