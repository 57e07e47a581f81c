// perfbench_driver: one benchmark process.  It runs one workload on a fresh
// thread pool, timing only the calls it makes into the public entry points
// (Solver construction, initialize(), step(), set_time_step(), the
// StepController, write/validate_run_checkpoint, friends_of_friends), checks
// every step's particle state, and prints one JSON object of raw samples on
// stdout for perfbench/run.py to check and reduce.
//
//   perfbench_driver --workload <name> --seed <n> --threads <n>
//                    --seconds <s> --scratch <dir>
//                    [--mode measure|reference|counts]
//                    [--trace <spans.json>]
//
// measure    episodes (set-up + the workload's full step sequence) back to
//            back until the next one would end past --seconds (run.py
//            passes 0: one episode per process, except in a traced run).
// reference  one episode and the exact counts of its set-up (run.py runs
//            it on 1 thread: the oracle the measured runs are checked
//            against).
// counts     one set-up only, for the exact counts of its force evaluation.
// --trace    records spans around every timed call and replays each layer
//            (perfbench/layers.cpp) after the first and the last step of
//            the first episode, on 1 thread and on the run's pool.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "halo/fof.hpp"
#include "layers.hpp"
#include "run/runner.hpp"
#include "run/scenario.hpp"
#include "run/step_controller.hpp"
#include "spans.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace hacc;

// The workloads, as hacc_run key=value overrides of a scenario preset
// (docs/CONFIG.md).  The seed is applied separately, through
// SimConfig::seed only.
struct Workload {
  const char* name;
  std::vector<const char*> keys;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's problem: five fixed KDK steps z 200 -> 50, adiabatic
      // CRK-SPH + pm_pp.
      {"hydro-paper", {"scenario=paper-benchmark", "np=16", "pm_grid=32"}},
      // Gravity only, PM on a fine mesh with the spectral gradient.
      {"gravity-pm",
       {"scenario=paper-benchmark", "hydro=false", "np=32", "pm_grid=128",
        "gravity.backend=pm_pp", "gravity.pm_gradient=spectral"}},
      // treepm structure formation to z = 10 with checkpoints and FoF, in
      // 10 fixed steps (da 0.0086, under the preset's da_max of 0.01): the
      // preset's adaptive stepping takes 18-24 steps depending on the seed,
      // and 10 lets five episodes fit in one run.
      {"cosmo-treepm",
       {"scenario=cosmology-box", "np=24", "run.mode=fixed", "steps=10",
        "run.checkpoint_every=4", "run.checkpoint_keep=2"}},
      // hydro-paper decomposed into four in-process shards (run by hand;
      // not one of BENCHMARK.json's workloads, see perfbench/README.md).
      {"hydro-sharded",
       {"scenario=paper-benchmark", "np=16", "pm_grid=32", "shard.count=4"}},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  unsigned threads = 4;
  double seconds = 10.0;
  std::string mode = "measure";
  std::string scratch = ".";
  std::string trace_out;  // non-empty: traced run
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--threads") a.threads = static_cast<unsigned>(std::stoul(val));
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--mode") a.mode = val;
    else if (key == "--scratch") a.scratch = val;
    else if (key == "--trace") a.trace_out = val;
    else usage("unknown argument " + key);
  }
  if (a.mode != "measure" && a.mode != "reference" && a.mode != "counts") {
    usage("bad --mode");
  }
  if (a.threads < 1) usage("--threads must be >= 1");
  return a;
}

void configure(const Args& args, core::SimConfig& sim, run::RunOptions& opt) {
  const Workload* w = nullptr;
  for (const Workload& c : workloads()) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  util::Config cfg;
  cfg.apply_overrides(static_cast<int>(w->keys.size()), w->keys.data());
  run::Scenario sc;
  if (!run::find_scenario(cfg.get_string("scenario", ""), sc)) {
    usage("unknown scenario");
  }
  std::string error;
  if (!run::apply_config(cfg, sc.sim, sc.run, error)) usage(error);
  sim = sc.sim;
  opt = sc.run;
  sim.seed = args.seed;
  opt.checkpoint_path = args.scratch + "/run.ckpt";
  opt.log_path.clear();
}

// ---- JSON emission ----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? "," : "") + num(xs[i]);
  return s + "]";
}

std::string object(const std::map<std::string, double>& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    s += (first ? "\"" : ",\"") + k + "\":" + num(v);
    first = false;
  }
  return s + "}";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

// ---- checks -----------------------------------------------------------------

bool all_finite(const core::ParticleSet& p) {
  for (const std::vector<float>* f :
       {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass, &p.h, &p.V, &p.rho,
        &p.u, &p.P, &p.cs, &p.crk, &p.moments, &p.m0, &p.ax, &p.ay, &p.az,
        &p.du, &p.vsig, &p.dvel}) {
    for (const float x : *f) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

// Work counts of the set-up's force evaluation.  IC positions do not depend
// on the thread count, and neither do tree topology, pair enumeration or
// the per-pair interaction counters, so these must match the reference
// exactly.
std::map<std::string, double> initial_counts(core::Solver& s) {
  const core::SimConfig& sim = s.config();
  std::map<std::string, double> c;
  double pp = 0.0, sph = 0.0;
  for (const xsycl::LaunchStats& l : s.queue().history()) {
    (l.kernel == "grav_pp" ? pp : sph) += static_cast<double>(l.ops.interactions);
  }
  c["pp.interactions"] = pp;
  c["sph.interactions"] = sph;
  c["fmm.m2p_ops"] = static_cast<double>(s.fmm_ops().m2p_ops);
  const double r_cut =
      sim.pp_cut_factor * sim.r_split_cells * sim.box / sim.pm_grid;
  std::uint64_t pairs = 0;
  const auto count = [&pairs](const tree::LeafPair&) { ++pairs; };
  const shard::ShardEngine* engine = s.shard_engine();
  if (engine != nullptr) {
    for (int k = 0; k < engine->options().count; ++k) {
      engine->shard_view(k).dom->for_each_pair(r_cut, count);
    }
  } else {
    s.interaction_domain().for_each_pair(r_cut, count);
  }
  c["domain.pairs"] = static_cast<double>(pairs);
  return c;
}

// ---- one episode ------------------------------------------------------------

struct Episode {
  double setup_s = 0.0;
  double time_to_solution_s = 0.0;
  double wall_s = 0.0;  // elapsed, checks included (paces the run loop)
  std::vector<double> step_s;
  std::map<std::string, double> counts;
  std::map<std::string, double> final_state;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  double reuse_ratio = 0.0;
};

// Called with the live solver and the wall of the step just taken, after
// the first and after the last step of an episode.
using StepHook = std::function<void(const core::Solver&, double step_s)>;

double setup_once(const core::SimConfig& sim, util::ThreadPool& pool,
                  SpanRecorder& rec, std::optional<core::Solver>& s) {
  s.reset();
  return time_call(rec, "core.solver", [&] { s.emplace(sim, pool); }) +
         time_call(rec, "core.initialize", [&] { s->initialize(); });
}

Episode run_episode(const core::SimConfig& sim, const run::RunOptions& opt,
                    util::ThreadPool& pool, SpanRecorder& rec,
                    const StepHook& hook) {
  const SpanScope episode_span(rec, "episode");
  const double t_begin = now_s();
  Episode ep;
  std::optional<core::Solver> s;
  ep.setup_s = setup_once(sim, pool, rec, s);
  ep.counts = initial_counts(*s);
  s->queue().clear_history();
  double tts = ep.setup_s;

  std::optional<run::StepController> ctl;
  tts += time_call(rec, "run.step_controller",
                   [&] { ctl.emplace(sim, opt.stepping); });
  const bool adaptive = opt.stepping.mode == run::StepMode::kAdaptive;
  double vmax = 0.0, gmax = 0.0;
  if (adaptive) {
    tts += time_call(rec, "core.max_velocity", [&] {
      vmax = s->max_velocity();
      gmax = s->max_acceleration();
    });
  }
  std::vector<double> outputs_a;
  for (const double z : opt.outputs_z) outputs_a.push_back(1.0 / (1.0 + z));
  std::sort(outputs_a.begin(), outputs_a.end());
  std::size_t next_output = 0;
  halo::FofOptions fof;
  fof.linking_length = opt.fof_b * sim.box / sim.np_side;
  fof.min_members = opt.fof_min_members;

  std::vector<std::string> live_ckpts;
  int last_ckpt_step = -1;
  const auto checkpoint = [&](int step) {
    const std::string path = opt.checkpoint_path + ".step" + std::to_string(step);
    core::RunCheckpointMeta meta;
    meta.box = sim.box;
    meta.scale_factor = s->scale_factor();
    meta.step = static_cast<std::uint64_t>(step);
    meta.config_hash = core::config_signature(sim);
    core::CkptResult wrote, valid;
    tts += time_call(rec, "core.write_run_checkpoint", [&] {
      wrote = core::write_run_checkpoint(path, s->dm(), s->gas(), meta);
    });
    tts += time_call(rec, "core.validate_run_checkpoint",
                     [&] { valid = core::validate_run_checkpoint(path); });
    ++ep.attempted;
    if (!wrote.ok() || !valid.ok()) {
      ++ep.failed;
      ep.failures.push_back("checkpoint step " + std::to_string(step) + ": " +
                            (wrote.ok() ? valid : wrote).message());
      return;
    }
    ep.final_state["ckpt.bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
    live_ckpts.push_back(path);
    while (opt.checkpoint_keep > 0 &&
           live_ckpts.size() > static_cast<std::size_t>(opt.checkpoint_keep)) {
      std::filesystem::remove(live_ckpts.front());
      live_ckpts.erase(live_ckpts.begin());
    }
    last_ckpt_step = step;
  };

  core::StepStats st;
  int steps = 0;
  while (true) {
    bool done = false;
    tts += time_call(rec, "run.done",
                     [&] { done = ctl->done(s->scale_factor(), s->steps_taken()); });
    if (done) break;
    if (steps >= opt.max_steps) {
      ++ep.failed;
      ep.failures.push_back("hit run.max_steps");
      break;
    }
    if (adaptive) {
      tts += time_call(rec, "run.next_da", [&] {
        s->set_time_step(
            ctl->next_da(s->scale_factor(), s->time_step(), vmax, gmax));
      });
    }
    const double w = time_call(rec, "core.step", [&] { st = s->step(); });
    tts += w;
    ep.step_s.push_back(w);
    ++steps;
    vmax = st.max_velocity;
    gmax = st.max_acceleration;
    s->queue().clear_history();  // bounded memory, as the scenario runner does
    ++ep.attempted;
    if (!all_finite(s->dm()) || !all_finite(s->gas())) {
      ++ep.failed;
      ep.failures.push_back("non-finite particle field after step " +
                            std::to_string(st.step));
    }
    // Fixed steps can sum to a hair below a_final (0.090909090909090884 <
    // 1/11 at z = 10), so an output is due once a is within rounding of its
    // scale factor.
    while (next_output < outputs_a.size() &&
           s->scale_factor() >= outputs_a[next_output] * (1.0 - 1e-12)) {
      halo::FofResult halos;
      tts += time_call(rec, "halo.friends_of_friends", [&] {
        halos = halo::friends_of_friends(s->dm().positions(), sim.box, fof);
      });
      ep.final_state["n_halos"] = halos.n_halos();
      ep.final_state["largest_halo"] =
          halos.halo_sizes.empty() ? 0.0 : halos.halo_sizes.front();
      ++next_output;
    }
    if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
        s->steps_taken() % opt.checkpoint_every == 0) {
      checkpoint(st.step);
    }
    if (hook && steps == 1) hook(*s, w);
  }
  if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
      opt.checkpoint_final && last_ckpt_step != s->steps_taken()) {
    checkpoint(s->steps_taken());
  }
  ep.time_to_solution_s = tts;
  ep.wall_s = now_s() - t_begin;
  if (hook && steps > 1) hook(*s, ep.step_s.back());

  ep.final_state["steps"] = steps;
  ep.final_state["kinetic_energy"] = st.kinetic_energy;
  if (sim.hydro) ep.final_state["thermal_energy"] = st.thermal_energy;
  ++ep.attempted;  // the final-state check, judged by run.py
  for (const std::string& path : live_ckpts) std::filesystem::remove(path);

  if (const shard::ShardEngine* e = s->shard_engine()) {
    const shard::EngineStats& es = e->stats();
    const double updates = static_cast<double>(es.tree_builds + es.tree_reuses);
    ep.reuse_ratio = updates > 0 ? es.tree_reuses / updates : 0.0;
  } else {
    const domain::DomainStats& ds = s->interaction_domain().stats();
    const double updates = static_cast<double>(ds.builds + ds.reuses);
    ep.reuse_ratio = updates > 0 ? ds.reuses / updates : 0.0;
  }
  return ep;
}

std::string episode_json(const Episode& ep) {
  std::string fails = "[";
  for (std::size_t i = 0; i < ep.failures.size(); ++i) {
    fails += (i ? "," : "") + quoted(ep.failures[i]);
  }
  fails += "]";
  return "{\"setup_s\":" + num(ep.setup_s) +
         ",\"time_to_solution_s\":" + num(ep.time_to_solution_s) +
         ",\"step_s\":" + list(ep.step_s) + ",\"counts\":" + object(ep.counts) +
         ",\"final\":" + object(ep.final_state) +
         ",\"attempted\":" + std::to_string(ep.attempted) +
         ",\"failed\":" + std::to_string(ep.failed) + ",\"failures\":" + fails +
         "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- traced run: layer replays around the first episode ---------------------

struct TraceState {
  std::vector<std::map<unsigned, LayerValues>> points;  // per replay point
  std::vector<double> step_s;                           // traced step walls
};

std::string layer_json(const TraceState& t, unsigned threads, double reuse) {
  std::map<std::string, double> out;
  const double np = static_cast<double>(t.points.size());
  const auto sum = [&](unsigned threads_of, const std::string& key) {
    double s = 0.0;
    for (const auto& p : t.points) s += p.at(threads_of).at(key);
    return s;
  };
  for (const auto& [key, value] : t.points.front().at(threads)) {
    if (key[0] != '_') out[key] = sum(threads, key) / np;
  }
  const auto speedup = [&](const std::vector<std::string>& keys) {
    double one = 0.0, many = 0.0;
    for (const std::string& k : keys) {
      one += sum(1, k);
      many += sum(threads, k);
    }
    return one / many;
  };
  out["pm.thread_speedup"] = speedup({"pm.solve_s"});
  out["tree.thread_speedup"] = speedup({"tree.build_s"});
  out["sph.thread_speedup"] =
      speedup({"sph.geometry_s", "sph.corrections_s", "sph.extras_s",
               "sph.acceleration_s", "sph.energy_s"});
  double gain = 0.0, coverage = 0.0;
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    const double serial = t.points[i].at(threads).at(kSerialStepKey);
    gain += serial - t.step_s[i];
    coverage += serial / t.step_s[i];
  }
  out["sched.overlap_gain_s"] = gain / np;
  out["trace.coverage"] = coverage / np;
  out["domain.reuse_ratio"] = reuse;
  return object(out);
}

int run_main(const Args& args) {
  core::SimConfig sim;
  run::RunOptions opt;
  configure(args, sim, opt);
  std::filesystem::create_directories(args.scratch);
  util::ThreadPool pool(args.threads);
  SpanRecorder rec(!args.trace_out.empty());

  std::string body;
  if (args.mode == "counts") {
    std::optional<core::Solver> s;
    setup_once(sim, pool, rec, s);
    body = "\"counts\":" + object(initial_counts(*s));
  } else if (args.mode == "reference") {
    const Episode ep = run_episode(sim, opt, pool, rec, nullptr);
    body = "\"episodes\":[" + episode_json(ep) + "],\"counts\":" +
           object(ep.counts);
  } else {
    TraceState trace;
    std::unique_ptr<util::ThreadPool> serial_pool;
    StepHook hook;
    if (rec.enabled()) {
      serial_pool = std::make_unique<util::ThreadPool>(1);
      hook = [&](const core::Solver& s, double step_s) {
        const SpanScope replay_span(rec, "replay");
        ReplayContext ctx;
        ctx.sim = &sim;
        ctx.run = &opt;
        ctx.live_shard =
            s.shard_engine() != nullptr ? &s.shard_engine()->options() : nullptr;
        ctx.scale_factor = s.scale_factor();
        ctx.scratch_dir = args.scratch;
        const core::ParticleSet dm = s.dm();
        const core::ParticleSet gas = s.gas();
        std::map<unsigned, LayerValues> point;
        {
          const SpanScope one(rec, "replay.threads1");
          point[1] = replay_layers(ctx, dm, gas, *serial_pool, rec);
        }
        {
          const SpanScope many(rec, "replay.threads" + std::to_string(args.threads));
          point[args.threads] = replay_layers(ctx, dm, gas, pool, rec);
        }
        trace.points.push_back(std::move(point));
        trace.step_s.push_back(step_s);
      };
    }
    std::vector<Episode> episodes;
    double used = 0.0;
    while (true) {
      episodes.push_back(
          run_episode(sim, opt, pool, rec, episodes.empty() ? hook : nullptr));
      const double wall = episodes.back().wall_s;
      used += wall;
      if (used + wall > args.seconds) break;
    }
    std::vector<double> setups;
    for (const Episode& ep : episodes) setups.push_back(ep.setup_s);
    body = "\"episodes\":[";
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      body += (i ? "," : "") + episode_json(episodes[i]);
    }
    body += "],\"setup_s\":" + list(setups);
    if (rec.enabled()) {
      body += ",\"layers\":" +
              layer_json(trace, args.threads, episodes.front().reuse_ratio) +
              ",\"trace_file\":" + quoted(args.trace_out);
      if (!rec.write_json(args.trace_out)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
  }
  const std::size_t particles =
      static_cast<std::size_t>(sim.np_side) * sim.np_side * sim.np_side *
      (sim.hydro ? 2 : 1);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"threads\":%u,\"host_cores\":%u,"
      "\"compiler\":%s,\"build_type\":%s,\"particles\":%zu,"
      "\"peak_rss_mb\":%s,%s}\n",
      quoted(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.threads, std::thread::hardware_concurrency(),
      quoted(PERFBENCH_COMPILER).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      particles, num(peak_rss_mb()).c_str(), body.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
