/// rfp::require: a passing check must not touch the heap (it runs once per
/// scan cell in hot loops), and a failing one throws InvalidArgument with
/// the message intact. The global operator new is replaced to count
/// allocations; sanitizer builds own the allocator, so the counting test
/// skips there.

#include "rfp/common/error.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(RFP_SANITIZE_BUILD)
#define RFP_TEST_COUNT_ALLOCS 0
#else
#define RFP_TEST_COUNT_ALLOCS 1
#endif

#if RFP_TEST_COUNT_ALLOCS
namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace rfp {
namespace {

// Well past any small-string buffer (15 chars in libstdc++).
constexpr const char* kLongMessage =
    "circular_mean: resultant vector is zero for this long message";

TEST(Require, PassingCheckDoesNotAllocate) {
#if RFP_TEST_COUNT_ALLOCS
  volatile bool cond = true;
  const long before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) require(cond, kLongMessage);
  EXPECT_EQ(g_allocs.load() - before, 0);
#else
  GTEST_SKIP() << "sanitizer build owns operator new";
#endif
}

TEST(Require, FailingCheckThrowsWithMessage) {
  try {
    require(false, kLongMessage);
    FAIL() << "require(false) did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), kLongMessage);
  }
  const std::string owned = std::string("built: ") + kLongMessage;
  EXPECT_THROW(require(false, owned), InvalidArgument);
}

}  // namespace
}  // namespace rfp
