// Live-heap accounting behind the spec-verdict worker's memory cap.
//
// The global operator new/delete of this binary count the usable bytes of
// every live allocation once accounting is switched on, and new throws
// std::bad_alloc when an allocation would take the count past the cap. The
// worker sets the cap before each spec, at what is live then plus the
// budget, so a spec's outcome does not depend on what earlier specs left
// in the memo caches. A kernel limit (RLIMIT_DATA) would be the simpler
// cap, but it counts malloc arenas and page-granular heap growth, which
// depend on which pool thread ran which task; a spec near that limit then
// fails in one run and passes in the next. Live bytes depend only on what
// is allocated, so the failed set repeats exactly.
#include "heap_cap.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace e2e {
namespace {

std::atomic<bool> accounting{false};
std::atomic<std::int64_t> live_bytes{0};
std::atomic<std::int64_t> cap_bytes{INT64_MAX};

void* allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) throw std::bad_alloc();
  if (accounting.load(std::memory_order_relaxed)) {
    const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
    if (live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable >
        cap_bytes.load(std::memory_order_relaxed)) {
      live_bytes.fetch_sub(usable, std::memory_order_relaxed);
      std::free(p);
      throw std::bad_alloc();
    }
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  if (accounting.load(std::memory_order_relaxed)) {
    live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void cap_heap_growth(std::int64_t budget_bytes) {
  // live_bytes is only meaningful as a difference: frees of blocks
  // allocated before the first call also count, and may take it below 0.
  cap_bytes.store(live_bytes.load(std::memory_order_relaxed) + budget_bytes,
                  std::memory_order_relaxed);
  accounting.store(true, std::memory_order_relaxed);
}

}  // namespace e2e

void* operator new(std::size_t size) { return e2e::allocate(size, 0); }
void* operator new[](std::size_t size) { return e2e::allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t a) {
  return e2e::allocate(size, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return e2e::allocate(size, static_cast<std::size_t>(a));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2e::allocate(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2e::allocate(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { e2e::release(p); }
void operator delete[](void* p) noexcept { e2e::release(p); }
void operator delete(void* p, std::size_t) noexcept { e2e::release(p); }
void operator delete[](void* p, std::size_t) noexcept { e2e::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { e2e::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { e2e::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { e2e::release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { e2e::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { e2e::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { e2e::release(p); }
