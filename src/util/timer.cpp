#include "util/timer.hpp"

#include <chrono>

namespace hacc::util {

double wtime() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

}  // namespace hacc::util
