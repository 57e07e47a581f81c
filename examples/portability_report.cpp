// Portability report: runs the full §6 analysis — measured op profiles fed
// through the three simulated platform models — and prints the paper's
// headline numbers: per-kernel variant efficiencies, PP per configuration,
// the cascade orderings of Fig. 12, and Fig. 2's modeled totals at paper
// scale (CUDA/HIP vs SYCL, default vs optimized).

#include <cmath>
#include <cstdio>

#include "metrics/cascade.hpp"
#include "platform/study.hpp"

int main() {
  using namespace hacc;
  using platform::AppConfig;
  using platform::PortabilityStudy;

  std::printf("collecting functional op profiles (variants x sub-group sizes)...\n");
  PortabilityStudy study;

  for (const auto& p : platform::all_platforms()) {
    std::printf("\n--- application efficiency per kernel on %s ---\n", p.name.c_str());
    const auto eff = study.variant_efficiencies(p);
    std::printf("%-10s", "kernel");
    for (const auto v : xsycl::kAllVariants) std::printf(" %15s", to_string(v));
    std::printf("\n");
    for (const auto& kernel : PortabilityStudy::figure_kernels()) {
      std::printf("%-10s", kernel.c_str());
      for (const auto v : xsycl::kAllVariants) {
        const auto it = eff.at(kernel).find(v);
        if (it == eff.at(kernel).end()) {
          std::printf(" %15s", "unsupported");
        } else {
          std::printf(" %15.2f", it->second);
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\n--- performance portability (Fig. 12) ---\n");
  std::printf("%-26s %7s   cascade (platforms by descending efficiency)\n",
              "configuration", "PP");
  for (const auto c : platform::paper_configurations()) {
    const auto eff = study.app_efficiencies(c);
    const auto cascade = metrics::make_cascade(eff);
    std::printf("%-26s %7.3f  ", to_string(c), cascade.final_pp);
    for (const auto& [name, e] : cascade.ordered) {
      std::printf(" %s=%.2f", name.c_str(), e);
    }
    std::printf("\n");
  }

  std::printf("\nPaper anchors: Broadcast 0.44, Memory(Object) 0.79, Unified 0.90,\n");
  std::printf("Select+Memory 0.91, Select+vISA 0.96; CUDA/HIP and vISA alone are 0.\n");

  // Fig. 2: the platform models price the measured op profiles, scaled to
  // the paper's per-rank problem; no GPU ran these seconds.
  const double scale = study.paper_problem_scale();
  std::printf("\n--- modeled total GPU seconds at paper scale (Fig. 2, x%.3g) ---\n", scale);
  const auto platforms = platform::all_platforms();
  std::printf("%-18s", "build");
  for (const auto& p : platforms) std::printf(" %10s", p.name.c_str());
  std::printf("\n");
  for (const auto& row : study.figure2(scale)) {
    std::printf("%-18s", row.label.c_str());
    for (const auto& p : platforms) {
      const auto it = row.seconds_by_platform.find(p.name);
      if (it == row.seconds_by_platform.end()) {
        std::printf(" %10s", "-");
      } else {
        std::printf(" %10.2f", it->second);
      }
    }
    std::printf("\n");
  }
  std::printf("Modeled, not measured: '-' marks a build the platform cannot run.\n");
  return 0;
}
