// A counting global allocator for allocation-contract tests: every
// operator new bumps g_allocations, and g_live_bytes holds the usable size
// of every block allocated and not yet freed, so a test reads either before
// and after the code under test. Include it from exactly one source file of
// a test binary (it defines the replacement operators).
//
// Under ASan/TSan the sanitizer runtime owns the allocator, so the
// replacements are compiled out, WFM_COUNTING_ALLOCATOR is 0, and tests
// should GTEST_SKIP.

#ifndef WFM_TESTS_COUNTING_ALLOCATOR_H_
#define WFM_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WFM_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WFM_COUNTING_ALLOCATOR 0
#else
#define WFM_COUNTING_ALLOCATOR 1
#endif
#else
#define WFM_COUNTING_ALLOCATOR 1
#endif

#if WFM_COUNTING_ALLOCATOR

#include <malloc.h>

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* CountedNew(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }

#endif  // WFM_COUNTING_ALLOCATOR

#endif  // WFM_TESTS_COUNTING_ALLOCATOR_H_
