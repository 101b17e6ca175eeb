#include "common/aligned.h"

namespace sp::detail {
namespace {

struct Block {
  void* p;
  std::size_t bytes;
  std::size_t align;
};

constexpr int kMaxBlocks = 64;

/// Per-thread cache state. Everything here is trivially destructible, so it
/// stays usable after the thread's destructors have run (a static RnsPoly
/// freed during process teardown); `dead` then routes blocks straight to the
/// global allocator.
struct CacheState {
  Block blocks[kMaxBlocks];
  int count;
  std::size_t bytes;
  bool dead;
};
thread_local CacheState tl_cache{};

void release(const Block& b) noexcept { ::operator delete(b.p, std::align_val_t(b.align)); }

/// Frees the cached blocks when the thread exits.
struct Flusher {
  ~Flusher() {
    for (int i = 0; i < tl_cache.count; ++i) release(tl_cache.blocks[i]);
    tl_cache.count = 0;
    tl_cache.bytes = 0;
    tl_cache.dead = true;
  }
};

}  // namespace

void* aligned_block_alloc(std::size_t bytes, std::size_t align) {
  CacheState& c = tl_cache;
  if (bytes >= kCachedBlockMin && !c.dead) {
    // Newest first: the block freed last is the likeliest to be warm.
    for (int i = c.count - 1; i >= 0; --i) {
      if (c.blocks[i].bytes != bytes || c.blocks[i].align != align) continue;
      void* p = c.blocks[i].p;
      for (int j = i; j + 1 < c.count; ++j) c.blocks[j] = c.blocks[j + 1];
      --c.count;
      c.bytes -= bytes;
      return p;
    }
  }
  return ::operator new(bytes, std::align_val_t(align));
}

void aligned_block_free(void* p, std::size_t bytes, std::size_t align) noexcept {
  CacheState& c = tl_cache;
  if (p == nullptr) return;
  if (bytes < kCachedBlockMin || bytes > kCachedBytesMax || c.dead) {
    release({p, bytes, align});
    return;
  }
  static thread_local Flusher flusher;
  (void)flusher;
  // Evict the oldest blocks until the new one fits.
  int drop = 0;
  while (drop < c.count && (c.count - drop >= kMaxBlocks || c.bytes + bytes > kCachedBytesMax)) {
    release(c.blocks[drop]);
    c.bytes -= c.blocks[drop].bytes;
    ++drop;
  }
  for (int j = drop; j < c.count; ++j) c.blocks[j - drop] = c.blocks[j];
  c.count -= drop;
  c.blocks[c.count++] = {p, bytes, align};
  c.bytes += bytes;
}

}  // namespace sp::detail
