#pragma once

// Shared helper for xsycl unit tests: builds a standalone SubGroup with its
// own counters, outside of any queue launch.

#include "xsycl/sub_group.hpp"

namespace hacc::xsycl::testing {

struct StandaloneSubGroup {
  explicit StandaloneSubGroup(int size) : sg(size, /*index=*/0, counters) {}

  OpCounters counters;
  SubGroup sg;
};

}  // namespace hacc::xsycl::testing
