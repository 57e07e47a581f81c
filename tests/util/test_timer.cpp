#include "util/timer.hpp"

#include <gtest/gtest.h>

namespace hacc::util {
namespace {

TEST(Wtime, IsMonotonic) {
  const double a = wtime();
  const double b = wtime();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace hacc::util
