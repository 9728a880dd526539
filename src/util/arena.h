// Bump/pool allocator for hot-path scratch memory (DESIGN.md §14).
//
// The estimation hot path used to allocate thousands of short-lived vectors
// per scheduling round (stage ranges, assembly options, DFS states, candidate
// Cell lists). An Arena replaces all of that with pointer-bump allocation out
// of geometrically growing blocks: allocation is an aligned offset increment,
// deallocation does not exist, and Reset() recycles every block for the next
// round without returning memory to the heap. Steady-state cost after warm-up
// is zero malloc/free calls.
//
// Contract:
//   * Allocate/AllocateArray return uninitialized storage; only trivially
//     destructible payloads belong in an arena (nothing runs destructors).
//   * Reset() invalidates every pointer previously handed out and reuses the
//     blocks. Under ASan the reclaimed regions are poisoned so a stale pointer
//     dereference reports use-after-poison instead of silently reading
//     recycled scratch.
//   * Oversized requests (> the current block growth cap) get a dedicated
//     large block ("large-block fallback"); it is recycled by Reset like any
//     other block, so a one-off huge round does not wedge the arena into
//     permanently oversized steady-state behaviour beyond keeping that block.
//   * Not thread-safe. One arena per thread of execution: each thread's
//     estimates borrow its own EstimatorScratch, so independent oracles on
//     separate threads never share one.
//
// ArenaVector<T> is the minimal vector shim the hot loops need: contiguous,
// grow-by-doubling via arena storage, no destructor calls, no shrinking. Use
// it where a scratch std::vector used to live.

#ifndef SRC_UTIL_ARENA_H_
#define SRC_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRIUS_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define CRIUS_ARENA_ASAN 1
#endif

#ifdef CRIUS_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define CRIUS_ARENA_POISON(ptr, size) ASAN_POISON_MEMORY_REGION(ptr, size)
#define CRIUS_ARENA_UNPOISON(ptr, size) ASAN_UNPOISON_MEMORY_REGION(ptr, size)
#else
#define CRIUS_ARENA_POISON(ptr, size) ((void)0)
#define CRIUS_ARENA_UNPOISON(ptr, size) ((void)0)
#endif

namespace crius {

class Arena {
 public:
  static constexpr size_t kMinBlockBytes = 4 * 1024;
  static constexpr size_t kMaxBlockBytes = 1 * 1024 * 1024;
  static constexpr size_t kMaxAlign = alignof(std::max_align_t);

  Arena() = default;
  ~Arena() = default;

  // Blocks are held by unique_ptr, so moving an arena keeps every previously
  // returned pointer valid (the blocks themselves do not move).
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of uninitialized storage aligned to `align` (a power of
  // two <= kMaxAlign).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) {
      bytes = 1;  // distinct non-null pointers for zero-byte requests
    }
    Block* b = current_ < blocks_.size() ? blocks_[current_].get() : nullptr;
    size_t offset = b != nullptr ? AlignUp(b->used, align) : 0;
    if (b == nullptr || offset + bytes > b->capacity) {
      b = NextBlock(bytes + align);
      offset = AlignUp(b->used, align);
    }
    char* ptr = b->data() + offset;
    b->used = offset + bytes;
    bytes_served_ += bytes;
    CRIUS_ARENA_UNPOISON(ptr, bytes);
    return ptr;
  }

  // Typed uninitialized array of `n` elements. T must be trivially
  // destructible (the arena never runs destructors).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage never runs destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Recycles every block. All previously returned pointers become invalid;
  // under ASan their regions are poisoned until re-served.
  void Reset() {
    for (auto& b : blocks_) {
      CRIUS_ARENA_POISON(b->data(), b->capacity);
      b->used = 0;
    }
    current_ = 0;
    bytes_served_ = 0;
  }

  // Bytes handed out since the last Reset (the per-round scratch footprint).
  size_t bytes_served() const { return bytes_served_; }
  // Total heap bytes reserved across all blocks (high-water footprint).
  size_t bytes_reserved() const {
    size_t n = 0;
    for (const auto& b : blocks_) {
      n += b->capacity;
    }
    return n;
  }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    size_t capacity = 0;
    size_t used = 0;
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  static size_t AlignUp(size_t n, size_t align) { return (n + align - 1) & ~(align - 1); }

  // Blocks are allocated with trailing payload via raw operator new, so they
  // must be freed via raw operator delete (a plain `delete` would pass the
  // wrong size to sized deallocation).
  struct BlockDelete {
    void operator()(Block* b) const { ::operator delete(static_cast<void*>(b)); }
  };
  using BlockPtr = std::unique_ptr<Block, BlockDelete>;

  static BlockPtr MakeBlock(size_t capacity) {
    // One malloc per block: header + payload. Payload starts at a
    // max_align_t-aligned offset because Block is allocated by operator new
    // and sizeof(Block) is a multiple of its alignment.
    void* raw = ::operator new(sizeof(Block) + capacity);
    Block* b = new (raw) Block();
    b->capacity = capacity;
    CRIUS_ARENA_POISON(b->data(), capacity);
    return BlockPtr(b);
  }

  // Advances to (or creates) a block with at least `min_bytes` of room.
  Block* NextBlock(size_t min_bytes) {
    // Reuse an already-reserved later block when it is big enough.
    while (current_ + 1 < blocks_.size()) {
      ++current_;
      if (blocks_[current_]->capacity >= min_bytes) {
        return blocks_[current_].get();
      }
    }
    size_t cap = blocks_.empty() ? kMinBlockBytes
                                 : std::min(kMaxBlockBytes, blocks_.back()->capacity * 2);
    if (cap < min_bytes) {
      cap = min_bytes;  // large-block fallback: dedicated oversized block
    }
    blocks_.push_back(MakeBlock(cap));
    current_ = blocks_.size() - 1;
    return blocks_.back().get();
  }

  std::vector<BlockPtr> blocks_;
  size_t current_ = 0;
  size_t bytes_served_ = 0;
};

// Minimal contiguous growable array over arena storage. For trivially
// copyable scratch elements only; grow-by-doubling copies the payload with
// memcpy and abandons the old storage to the arena (reclaimed at Reset).
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector relocates with memcpy");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void reserve(size_t n) {
    if (n > capacity_) {
      Grow(n);
    }
  }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Grow(capacity_ == 0 ? 8 : capacity_ * 2);
    }
    data_[size_++] = value;
  }

  // Appends `n` default-initialized slots and returns a pointer to the first.
  T* append(size_t n) {
    if (size_ + n > capacity_) {
      Grow(std::max(size_ + n, capacity_ == 0 ? size_t{8} : capacity_ * 2));
    }
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  void clear() { size_ = 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void Grow(size_t n) {
    T* next = arena_->AllocateArray<T>(n);
    if (size_ > 0) {
      std::memcpy(static_cast<void*>(next), static_cast<const void*>(data_),
                  size_ * sizeof(T));
    }
    data_ = next;
    capacity_ = n;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace crius

#endif  // SRC_UTIL_ARENA_H_
