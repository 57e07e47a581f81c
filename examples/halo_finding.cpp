// Halo finding on an evolved snapshot: the substrate CRK-HACC's AGN
// feedback path depends on (§3.1).  Runs a short gravity-only simulation to
// cluster the matter field, then identifies FOF halos and cross-checks with
// DBSCAN — the algorithm ArborX provides in production CRK-HACC.
//
//   ./examples/halo_finding np=14 steps=8 b=0.25 min_members=8

#include <cstdio>

#include "core/solver.hpp"
#include "example_args.hpp"
#include "halo/fof.hpp"

int main(int argc, char** argv) {
  hacc::examples::Args args(argc, argv, "halo_finding");
  const unsigned threads = args.threads();

  hacc::core::SimConfig cfg;
  cfg.np_side = 14;
  cfg.n_steps = 8;
  cfg.z_final = 10.0;  // run deeper for clustering
  cfg.hydro = false;
  cfg.sigma_norm = 2.5;  // boosted power -> visible halos
  args.read(cfg);
  const double b = args.get("b", 0.28);
  const auto min_members = args.get<std::int32_t>("min_members", 8);
  if (!args.ok()) return 1;

  hacc::util::ThreadPool pool(threads);
  hacc::core::Solver solver(cfg, pool);
  std::printf("evolving %d^3 dark-matter particles to z=%.1f...\n", cfg.np_side,
              cfg.z_final);
  solver.run();

  const auto pos = solver.dm().positions();
  const double mean_sep = cfg.box / cfg.np_side;

  hacc::halo::FofOptions fof_opt;
  fof_opt.linking_length = b * mean_sep;
  fof_opt.min_members = min_members;
  const auto fof = hacc::halo::friends_of_friends(pos, cfg.box, fof_opt);

  std::printf("\nFOF (b = %.2f mean separations, min %d members): %d halos\n",
              fof_opt.linking_length / mean_sep, fof_opt.min_members, fof.n_halos());
  const int show = std::min<int>(10, fof.n_halos());
  for (int h = 0; h < show; ++h) {
    std::printf("  halo %2d: %d particles\n", h, fof.halo_sizes[h]);
  }

  // Cross-check: FOF == DBSCAN with min_pts = 2 on the same scale.
  const auto db = hacc::halo::dbscan(pos, cfg.box, fof_opt.linking_length, 2);
  std::printf("\nDBSCAN(eps = b, min_pts = 2): %d clusters", db.n_clusters);
  int noise = 0;
  for (const auto id : db.cluster_id) noise += id < 0 ? 1 : 0;
  std::printf(", %d unclustered particles\n", noise);
  std::printf("(production CRK-HACC runs this search through ArborX, §3.1)\n");
  return 0;
}
