#include "run/runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/fault_fs.hpp"
#include "metrics/cascade.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"
#include "util/timer.hpp"

namespace hacc::run {

namespace {

// Minimal JSON string escape: the only untrusted content we embed is file
// paths and scenario names.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// The solver stages the cascade ranks beside the kernels: the ones whose
// work runs outside the queue.  The sph and short_range stages are left out;
// their walls are the kernels' own launches.
constexpr const char* kCascadeStages[] = {"pm", "tree", "fmm_build",
                                          "far_field"};

}  // namespace

std::vector<CascadeEntry> cascade_entries(
    const xsycl::KernelTotalsByName& kernels, const core::StageTotals& stages) {
  std::vector<CascadeEntry> out;
  for (const auto& [name, k] : kernels) {
    out.push_back({name, k.seconds, k.launches});
  }
  for (const char* name : kCascadeStages) {
    if (const auto it = stages.find(name); it != stages.end()) {
      out.push_back({name, it->second.seconds, it->second.runs});
    }
  }
  return out;
}

ScenarioRunner::ScenarioRunner(const core::SimConfig& sim, const RunOptions& opt,
                               util::ThreadPool& pool)
    : sim_(sim), opt_(opt), controller_(sim, opt.stepping), solver_(sim, pool) {
  // Diagnostics schedule as ascending scale factors.
  for (const double z : opt_.outputs_z) {
    if (z >= 0.0) outputs_a_.push_back(ic::Cosmology::a_of_z(z));
  }
  std::sort(outputs_a_.begin(), outputs_a_.end());

  auto& m = obs::MetricsRegistry::global();
  m_tree_builds_ = m.counter("tree.builds");
  m_tree_reuses_ = m.counter("tree.reuses");
  m_tree_s_ = m.counter("tree.build_s");
  m_sched_pm_s_ = m.counter("sched.pm_s");
  m_sched_short_s_ = m.counter("sched.short_s");
  m_shard_migrated_ = m.counter("shard.migrated");
  m_shard_ghosts_ = m.counter("shard.ghosts");
  m_shard_migrate_s_ = m.counter("shard.migrate_s");
  m_shard_exchange_s_ = m.counter("shard.exchange_s");
  m_step_wall_s_ = m.histogram("step.wall_s");
  m_step_da_ = m.histogram("step.da");
  m_ops_launches_ = m.counter("ops.launches");
  m_ops_kernel_s_ = m.counter("ops.kernel_s");
  m_ops_interactions_ = m.counter("ops.interactions");
  m_ops_m2p_ = m.counter("ops.m2p");
  m_ckpt_writes_ = m.counter("ckpt.writes");
  m_ckpt_bytes_ = m.counter("ckpt.bytes");
  m_ckpt_write_s_ = m.counter("ckpt.write_s");
  m_ckpt_validate_ = m.counter("ckpt.validate");
  m_ckpt_failures_ = m.counter("ckpt.failures");
  m_ckpt_recovered_ = m.gauge("ckpt.recovered_from");
  m_run_outputs_ = m.counter("run.outputs");
  m_stepctl_da_ = m.gauge("stepctl.da_next");
}

ScenarioRunner::~ScenarioRunner() {
  if (log_ != nullptr) std::fclose(log_);
}

void ScenarioRunner::open_log() {
  if (opt_.log_path.empty()) return;
  log_ = std::fopen(opt_.log_path.c_str(), "w");
  if (log_ == nullptr) {
    throw std::runtime_error("ScenarioRunner: cannot open log file '" +
                             opt_.log_path + "'");
  }
}

void ScenarioRunner::log_line(const std::string& json, bool durable) {
  if (log_ == nullptr) return;
  std::fputs(json.c_str(), log_);
  std::fputc('\n', log_);
  std::fflush(log_);
  // Checkpoint-class events additionally reach the disk before we return:
  // the JSONL tail must name every checkpoint file that exists, or a crash
  // between the write and the next flush leaves a restartable file no
  // recovery tooling knows about.
  if (durable) fsync(fileno(log_));
}

void ScenarioRunner::start_from_checkpoint_or_ics() {
  const obs::TraceSpan span("run.init");
  if (opt_.restart_from == RunOptions::kRestartAuto) {
    if (recover_latest_checkpoint() < 0) {
      solver_.initialize();
      log_line("{\"type\":\"init\",\"step\":0,\"a\":" +
               std::to_string(solver_.scale_factor()) + "}");
    }
  } else if (!opt_.restart_from.empty()) {
    core::ParticleSet dm, gas;
    core::RunCheckpointMeta meta;
    if (const core::CkptResult r =
            core::read_run_checkpoint(opt_.restart_from, dm, gas, meta);
        !r.ok()) {
      throw std::runtime_error("ScenarioRunner: cannot read run checkpoint '" +
                               opt_.restart_from + "': " + r.message());
    }
    if (meta.config_hash != core::config_signature(sim_)) {
      throw std::runtime_error(
          "ScenarioRunner: checkpoint '" + opt_.restart_from +
          "' was written by a different configuration (config signature "
          "mismatch); refusing to resume");
    }
    solver_.restore(std::move(dm), std::move(gas), meta.scale_factor,
                    static_cast<int>(meta.step));
    log_restart_event(opt_.restart_from, meta);
  } else {
    solver_.initialize();
    log_line("{\"type\":\"init\",\"step\":0,\"a\":" +
             std::to_string(solver_.scale_factor()) + "}");
  }
  // Outputs the run already passed (restart) fire nothing.
  while (next_output_ < outputs_a_.size() &&
         reached(solver_.scale_factor(), outputs_a_[next_output_])) {
    ++next_output_;
  }
}

void ScenarioRunner::log_restart_event(const std::string& file,
                                       const core::RunCheckpointMeta& meta) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"type\":\"restart\",\"step\":%" PRIu64
                ",\"a\":%.17g,\"z\":%.6f,\"file\":\"%s\"}",
                meta.step, meta.scale_factor,
                ic::Cosmology::z_of_a(meta.scale_factor),
                json_escape(file).c_str());
  log_line(buf);
}

int ScenarioRunner::recover_latest_checkpoint() {
  if (opt_.checkpoint_path.empty()) {
    throw std::runtime_error(
        "ScenarioRunner: restart 'auto' needs run.checkpoint set — the scan "
        "looks for <run.checkpoint>.step<N> files");
  }
  namespace fs = std::filesystem;
  const fs::path as_path(opt_.checkpoint_path);
  const fs::path dir =
      as_path.has_parent_path() ? as_path.parent_path() : fs::path(".");
  const std::string base = as_path.filename().string() + ".step";

  // Candidate files <base>.step<N>; a pure-numeric suffix excludes `.tmp`
  // leftovers of writes that died before their atomic rename, and one
  // beyond an int is no step this runner wrote.
  std::vector<std::pair<int, std::string>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
      continue;
    }
    const std::string suffix = name.substr(base.size());
    long step = 0;
    if (suffix.find_first_not_of("0123456789") != std::string::npos ||
        !util::parse_number(suffix, step) || !std::in_range<int>(step)) {
      continue;
    }
    candidates.emplace_back(static_cast<int>(step),
                            opt_.checkpoint_path + ".step" + suffix);
  }
  std::sort(candidates.rbegin(), candidates.rend());  // newest first

  auto& m = obs::MetricsRegistry::global();
  const std::uint64_t want_sig = core::config_signature(sim_);
  for (const auto& [step, path] : candidates) {
    core::RunCheckpointMeta meta;
    const core::CkptResult v = core::validate_run_checkpoint(path, &meta);
    m.inc(m_ckpt_validate_);
    const bool config_ok = !v.ok() || meta.config_hash == want_sig;
    const char* status =
        v.ok() ? (config_ok ? "ok" : "config_mismatch") : to_string(v.status);
    log_line("{\"type\":\"ckpt_validate\",\"step\":" + std::to_string(step) +
             ",\"file\":\"" + json_escape(path) + "\",\"status\":\"" + status +
             "\",\"detail\":\"" + json_escape(v.detail) + "\"}");
    if (!v.ok()) {
      m.inc(m_ckpt_failures_);
      continue;
    }
    if (!config_ok) continue;

    core::ParticleSet dm, gas;
    if (const core::CkptResult r =
            core::read_run_checkpoint(path, dm, gas, meta);
        !r.ok()) {
      // Validated a moment ago but unreadable now (e.g. I/O error): treat
      // like any other bad candidate and fall back to an older one.
      m.inc(m_ckpt_failures_);
      log_line("{\"type\":\"ckpt_validate\",\"step\":" + std::to_string(step) +
               ",\"file\":\"" + json_escape(path) + "\",\"status\":\"" +
               to_string(r.status) + "\",\"detail\":\"" +
               json_escape(r.detail) + "\"}");
      continue;
    }
    solver_.restore(std::move(dm), std::move(gas), meta.scale_factor,
                    static_cast<int>(meta.step));
    m.set(m_ckpt_recovered_, static_cast<double>(step));
    result_.recovered_from_step = step;
    // Known-good survivors ascending: the chosen file plus every older
    // candidate (retention counts them; corrupt newer ones stay out).
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      if (it->first <= step) live_checkpoints_.push_back(*it);
    }
    log_line("{\"type\":\"recovery\",\"step\":" + std::to_string(step) +
                 ",\"file\":\"" + json_escape(path) +
                 "\",\"recovered_from\":" + std::to_string(step) +
                 ",\"candidates\":" + std::to_string(candidates.size()) + "}",
             /*durable=*/true);
    log_restart_event(path, meta);
    return step;
  }

  if (!candidates.empty()) {
    throw std::runtime_error(
        "ScenarioRunner: restart 'auto' found " +
        std::to_string(candidates.size()) + " checkpoint(s) under '" +
        opt_.checkpoint_path +
        ".step<N>' but none validates; refusing to silently recompute from "
        "ICs (see ckpt_validate events for per-file status)");
  }
  m.set(m_ckpt_recovered_, -1.0);
  log_line(
      "{\"type\":\"recovery\",\"step\":0,\"file\":\"\","
      "\"recovered_from\":-1,\"candidates\":0}");
  return -1;
}

void ScenarioRunner::write_checkpoint_file(int step) {
  const obs::TraceSpan span("run.checkpoint");
  const double t0 = util::wtime();
  const std::string path =
      opt_.checkpoint_path + ".step" + std::to_string(step);
  core::RunCheckpointMeta meta;
  meta.box = sim_.box;
  meta.scale_factor = solver_.scale_factor();
  meta.step = static_cast<std::uint64_t>(step);
  meta.config_hash = core::config_signature(sim_);
  const core::CkptResult wr =
      core::write_run_checkpoint(path, solver_.dm(), solver_.gas(), meta);
  if (!wr.ok()) {
    on_checkpoint_error(step, path, wr);
    return;  // continue-on-error: the run keeps stepping without this file
  }

  // Post-write verification: CRC-scan the file just renamed into place
  // before counting it restartable (and before pruning any predecessor).
  auto& m = obs::MetricsRegistry::global();
  const core::CkptResult v = core::validate_run_checkpoint(path);
  m.inc(m_ckpt_validate_);
  log_line("{\"type\":\"ckpt_validate\",\"step\":" + std::to_string(step) +
           ",\"file\":\"" + json_escape(path) + "\",\"status\":\"" +
           (v.ok() ? "ok" : to_string(v.status)) + "\",\"detail\":\"" +
           json_escape(v.detail) + "\"}");
  if (!v.ok()) {
    on_checkpoint_error(step, path, v);
    return;
  }

  ++result_.checkpoints_written;
  result_.checkpoint_files.push_back(path);
  live_checkpoints_.emplace_back(step, path);

  const double write_s = util::wtime() - t0;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  const double bytes = ec ? 0.0 : static_cast<double>(size);
  m.inc(m_ckpt_writes_);
  m.inc(m_ckpt_bytes_, bytes);
  m.inc(m_ckpt_write_s_, write_s);

  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "{\"type\":\"checkpoint\",\"step\":%d,\"a\":%.17g,"
                "\"file\":\"%s\",\"bytes\":%.0f,\"write_s\":%.6f,"
                "\"crc\":\"ok\"}",
                step, meta.scale_factor, json_escape(path).c_str(), bytes,
                write_s);
  log_line(buf, /*durable=*/true);
  prune_checkpoints(step);
}

void ScenarioRunner::on_checkpoint_error(int step, const std::string& path,
                                         const core::CkptResult& result) {
  obs::MetricsRegistry::global().inc(m_ckpt_failures_);
  ++result_.checkpoint_failures;
  // Durable: whoever inspects the aftermath must see WHY restartability was
  // lost even if the process dies right after this line.
  log_line("{\"type\":\"error\",\"step\":" + std::to_string(step) +
               ",\"what\":\"checkpoint\",\"file\":\"" + json_escape(path) +
               "\",\"status\":\"" + to_string(result.status) +
               "\",\"detail\":\"" + json_escape(result.detail) + "\"}",
           /*durable=*/true);
  if (!opt_.checkpoint_continue_on_error) {
    throw std::runtime_error("ScenarioRunner: checkpoint write '" + path +
                             "' failed: " + result.message());
  }
}

void ScenarioRunner::prune_checkpoints(int step) {
  if (opt_.checkpoint_keep <= 0) return;  // keep everything
  while (live_checkpoints_.size() >
         static_cast<std::size_t>(opt_.checkpoint_keep)) {
    // Oldest first, and only ever after a newer checkpoint has verified —
    // so the set of valid on-disk checkpoints never goes below the cap.
    const auto [old_step, old_path] = live_checkpoints_.front();
    live_checkpoints_.erase(live_checkpoints_.begin());
    if (const io::IoStatus st = io::remove_file(old_path); st) {
      io::sync_dir(io::parent_dir(old_path));
    }
    log_line("{\"type\":\"ckpt_prune\",\"step\":" + std::to_string(step) +
             ",\"file\":\"" + json_escape(old_path) +
             "\",\"pruned_step\":" + std::to_string(old_step) + "}");
  }
}

void ScenarioRunner::run_diagnostics(int step) {
  const obs::TraceSpan span("run.diagnostics");
  obs::MetricsRegistry::global().inc(m_run_outputs_);
  OutputRecord rec;
  rec.step = step;
  rec.a = solver_.scale_factor();
  rec.z = solver_.redshift();

  // FoF halos over the dark-matter field, linking length in units of the
  // mean interparticle separation.
  const auto pos = solver_.dm().positions();
  halo::FofOptions fof;
  fof.linking_length = opt_.fof_b * sim_.box / sim_.np_side;
  fof.min_members = opt_.fof_min_members;
  const auto halos = halo::friends_of_friends(pos, sim_.box, fof);
  rec.n_halos = halos.n_halos();
  rec.largest_halo = halos.halo_sizes.empty() ? 0 : halos.halo_sizes.front();

  // The metrics cascade over the per-kernel and per-stage walls: each is a
  // "platform", its efficiency the best per-call time over its own — the
  // in-run view of which kernel dominates the step cost.
  metrics::EfficiencySet eff;
  eff.application = sim_.scenario;
  double best = 0.0;
  for (const CascadeEntry& e :
       cascade_entries(kernel_totals_, solver_.stage_totals())) {
    if (e.calls == 0) continue;
    const double per_call = e.seconds / static_cast<double>(e.calls);
    if (per_call <= 0.0) continue;
    eff.by_platform[e.name] = per_call;  // seconds for now; normalized below
    best = best == 0.0 ? per_call : std::min(best, per_call);
  }
  for (auto& [name, seconds] : eff.by_platform) seconds = best / seconds;
  if (!eff.by_platform.empty()) {
    const auto cascade = metrics::make_cascade(eff);
    rec.kernel_pp = cascade.final_pp;
    rec.slowest_kernel = cascade.ordered.back().first;
  }

  result_.outputs.push_back(rec);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"type\":\"output\",\"step\":%d,\"a\":%.17g,\"z\":%.6f,"
                "\"n_halos\":%d,\"largest_halo\":%d,\"kernel_pp\":%.4f,"
                "\"slowest_kernel\":\"%s\"}",
                step, rec.a, rec.z, rec.n_halos, rec.largest_halo,
                rec.kernel_pp, json_escape(rec.slowest_kernel).c_str());
  log_line(buf);
}

void ScenarioRunner::record_step_metrics(const core::StepStats& stats) {
  auto& m = obs::MetricsRegistry::global();
  m.inc(m_tree_builds_, stats.tree_builds);
  m.inc(m_tree_reuses_, stats.tree_reuses);
  m.inc(m_tree_s_, stats.tree_seconds);
  m.inc(m_sched_pm_s_, stats.pm_seconds);
  m.inc(m_sched_short_s_, stats.short_range_seconds);
  m.inc(m_shard_migrated_, static_cast<double>(stats.shard_migrated));
  m.inc(m_shard_ghosts_, static_cast<double>(stats.shard_ghosts));
  m.inc(m_shard_migrate_s_, stats.shard_migrate_seconds);
  m.inc(m_shard_exchange_s_, stats.shard_exchange_seconds);
  m.record(m_step_wall_s_, stats.wall_seconds);
  m.record(m_step_da_, stats.da);
  m.set(m_stepctl_da_, stats.da);
  // Kernel launches since the previous step, folded into the run-long
  // per-kernel totals, then clear so the queue history stays bounded over
  // long runs (direct Solver users keep the full history; only
  // runner-driven runs consume it here).
  for (const auto& s : solver_.queue().history()) {
    kernel_totals_[s.kernel].add(s);
    m.inc(m_ops_launches_);
    m.inc(m_ops_kernel_s_, s.seconds);
    m.inc(m_ops_interactions_, static_cast<double>(s.ops.interactions));
  }
  solver_.queue().clear_history();
  // fmm_ops() accumulates across the solver's lifetime; record the delta.
  const std::uint64_t m2p = solver_.fmm_ops().m2p_ops;
  m.inc(m_ops_m2p_, static_cast<double>(m2p - last_m2p_));
  last_m2p_ = m2p;
}

RunResult ScenarioRunner::run() {
  if (ran_) throw std::logic_error("ScenarioRunner::run() called twice");
  ran_ = true;
  const double t0 = util::wtime();

  // One active run per process: the global registry accumulates from run
  // start, so step events and the run_summary always describe THIS run.
  // Registrations (and the handles cached above and in the solver's
  // subsystems) survive the reset.
  obs::MetricsRegistry::global().reset();
  // -1 = "this run did not recover from a checkpoint" — distinguishable
  // from a recovery at step 0 in every metrics snapshot.
  obs::MetricsRegistry::global().set(m_ckpt_recovered_, -1.0);
  last_m2p_ = solver_.fmm_ops().m2p_ops;

  open_log();
  {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"begin\",\"step\":0,\"scenario\":\"%s\",\"np\":%d,"
                  "\"backend\":\"%s\",\"mode\":\"%s\",\"hydro\":%s,"
                  "\"restart\":%s}",
                  json_escape(sim_.scenario).c_str(), sim_.np_side,
                  core::to_string(sim_.gravity_backend),
                  to_string(opt_.stepping.mode), sim_.hydro ? "true" : "false",
                  opt_.restart_from.empty() ? "false" : "true");
    log_line(buf);
  }
  start_from_checkpoint_or_ics();

  // The adaptive limiter reads max |v| / |dv/dt| from the current force
  // evaluation.  Each step() already reports them in its stats, so only the
  // first iteration (fresh ICs or a restart) scans the particles here; the
  // loop then feeds each step's stats into the next Δa proposal — which is
  // exactly what the uninterrupted run saw, keeping restarts bit-identical.
  const bool adaptive = opt_.stepping.mode == StepMode::kAdaptive;
  double max_velocity = 0.0, max_acceleration = 0.0;
  if (adaptive) {
    solver_.prepare_forces();
    max_velocity = solver_.max_velocity();
    max_acceleration = solver_.max_acceleration();
  }

  while (!controller_.done(solver_.scale_factor(), solver_.steps_taken())) {
    if (result_.steps >= opt_.max_steps) {
      result_.hit_max_steps = true;
      log_line("{\"type\":\"max_steps\",\"step\":" +
               std::to_string(solver_.steps_taken()) + ",\"steps\":" +
               std::to_string(result_.steps) + "}");
      break;
    }
    if (adaptive) {
      solver_.set_time_step(controller_.next_da(solver_.scale_factor(),
                                                solver_.time_step(),
                                                max_velocity,
                                                max_acceleration));
    }

    const core::StepStats stats = solver_.step();
    max_velocity = stats.max_velocity;
    max_acceleration = stats.max_acceleration;
    ++result_.steps;
    result_.history.push_back(stats);
    record_step_metrics(stats);
    {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"step\",\"step\":%d,\"a\":%.17g,\"z\":%.6f,"
                    "\"da\":%.10g,\"wall_s\":%.6f,\"ke\":%.8e,\"u\":%.8e,"
                    "\"vmax\":%.6g,\"gmax\":%.6g,\"tree_builds\":%d,"
                    "\"tree_reuses\":%d,\"tree_s\":%.6f,"
                    "\"shard_migrated\":%lld,\"shard_ghosts\":%lld,"
                    "\"metrics\":",
                    stats.step, stats.a1, stats.z, stats.da, stats.wall_seconds,
                    stats.kinetic_energy, stats.thermal_energy,
                    stats.max_velocity, stats.max_acceleration,
                    stats.tree_builds, stats.tree_reuses, stats.tree_seconds,
                    static_cast<long long>(stats.shard_migrated),
                    static_cast<long long>(stats.shard_ghosts));
      log_line(std::string(buf) + obs::MetricsRegistry::global().to_json() +
               "}");
    }
    if (opt_.echo_steps) {
      std::printf("  step %4d  z=%8.3f  da=%.3e  wall=%6.3fs  KE=%.4e\n",
                  stats.step, stats.z, stats.da, stats.wall_seconds,
                  stats.kinetic_energy);
    }

    while (next_output_ < outputs_a_.size() &&
           reached(solver_.scale_factor(), outputs_a_[next_output_])) {
      run_diagnostics(stats.step);
      ++next_output_;
    }
    if (!opt_.checkpoint_path.empty() && opt_.checkpoint_every > 0 &&
        solver_.steps_taken() % opt_.checkpoint_every == 0) {
      write_checkpoint_file(stats.step);
      last_checkpoint_step_ = stats.step;
    }
  }

  if (!opt_.checkpoint_path.empty() && opt_.checkpoint_final &&
      last_checkpoint_step_ != solver_.steps_taken()) {
    write_checkpoint_file(solver_.steps_taken());
  }

  result_.total_steps = solver_.steps_taken();
  result_.final_a = solver_.scale_factor();
  result_.final_z = solver_.redshift();
  result_.wall_seconds = util::wtime() - t0;
  // The whole-run registry state, once, before the end marker: dashboards
  // and tools/check_events.py read totals here instead of re-deriving them
  // from the last step event.
  log_line("{\"type\":\"run_summary\",\"step\":" +
           std::to_string(result_.total_steps) + ",\"metrics\":" +
           obs::MetricsRegistry::global().to_json() + "}");
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"end\",\"step\":%d,\"steps\":%d,"
                  "\"total_steps\":%d,"
                  "\"a\":%.17g,\"z\":%.6f,\"wall_s\":%.3f,\"checkpoints\":%d}",
                  result_.total_steps, result_.steps, result_.total_steps,
                  result_.final_a, result_.final_z, result_.wall_seconds,
                  result_.checkpoints_written);
    log_line(buf, /*durable=*/true);
  }
  return result_;
}

}  // namespace hacc::run
