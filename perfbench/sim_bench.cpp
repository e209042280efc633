// End-to-end simulation benchmark harness (driven by run.py; see NOTES.md).
//
// Simulates one workload from start to finish, repeatedly, and times it
// only at public boundaries of the library, so the program under test is
// the one the repository ships:
//   * a sim::SimObserver stamps every event dispatch; the time from one
//     dispatch to the next is that event's handling time;
//   * a sched::Policy decorator around core::ScoreBasedPolicy flags the
//     dispatches that ran a scheduling round and, in traced repeats, times
//     every schedule(), choose_power_on() and choose_power_off() call;
//   * driver.on_actions fingerprints every applied decision.
// The pieces are connected the way experiments::run_experiment connects
// them with every plane off. Traced repeats additionally enable the
// library's obs::PhaseProfiler through the public obs::Observability
// bundle. Untraced repeats carry only the dispatch stamp and round flag,
// and give the end-to-end figures.
//
// Repeats are deterministic: every one dispatches the same events and makes
// the same calls in the same order (the harness checks this). So each
// timing sequence is folded over repeats by taking, position by position,
// the fastest observed duration: the cost of that piece of work with the
// least interference from other tenants of the machine, whose load on
// shared caches slows whole stretches of a run by up to 1.8x. Sums and
// percentiles are taken over the folded sequence. The plain median wall
// time of a repeat is reported too (trace.wall_run_s), unfolded.
//
//   perfbench_sim --workload week100 --seed 7 --seconds 40 --trace 0
//   perfbench_sim ... --workload-seed 20071002   (another week)
//   perfbench_sim ... --reference                (also simulate the paper
//                                                 configuration once)
//   perfbench_sim --context                        (build facts only)
//
// Prints one JSON object on stdout: the build context, the correctness
// facts (all jobs finished, identical reports and decisions across every
// repeat) and every metric with its unit and sample count.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/score_based_policy.hpp"
#include "datacenter/datacenter.hpp"
#include "experiments/setup.hpp"
#include "metrics/report.hpp"
#include "obs/obs.hpp"
#include "sched/driver.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "workload/synthetic.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace easched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

/// One benchmark workload: the paper's host mix scaled by `scale`, and the
/// synthetic Grid5000-like week with its arrival rate scaled to match, so
/// utilisation stays at the paper's level, submitted over its first `days`
/// days. NOTES.md says why each exists and why the 1k-host workloads stop
/// submitting after two days.
struct WorkloadSpec {
  const char* name;
  std::size_t scale;
  double batch_mean;  ///< mean bag-of-tasks size (generator default 6)
  double days;        ///< submission window, from Monday 00:00
};

constexpr WorkloadSpec kWorkloads[] = {
    {"week100", 1, 6.0, 7.0},
    {"fleet1k", 10, 6.0, 2.0},
    {"burst1k", 10, 60.0, 2.0},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// What the seeds of a run select. The week is fixed per workload (the
/// paper evaluates one trace week); `seed` drives the run's own random
/// stream, the datacenter's operation durations. NOTES.md says why the
/// benchmark's --seed is not the week.
struct Inputs {
  std::uint64_t workload_seed = workload::SyntheticConfig{}.seed;
  std::uint64_t seed = workload::SyntheticConfig{}.seed;
};

workload::SyntheticConfig synthetic_config(const WorkloadSpec& w,
                                           std::uint64_t workload_seed) {
  workload::SyntheticConfig c;
  c.seed = workload_seed;
  c.mean_jobs_per_hour *= static_cast<double>(w.scale);
  c.batch_mean = w.batch_mean;
  c.span_seconds = w.days * 24 * 3600.0;
  return c;
}

// ---- outside timers --------------------------------------------------------

/// What the decorator records. Owned by the benchmark, never by the
/// policy, so it survives whatever the stack does with the policy.
struct PolicySamples {
  bool round_flag = false;  ///< set by schedule(), cleared per dispatch
  // Traced repeats only; durations in seconds, in call order.
  std::vector<double> schedule_s;
  std::vector<double> power_on_s;
  std::vector<double> power_off_s;
  std::vector<double> queue_len;
  std::uint64_t productive_rounds = 0;
  std::uint64_t moves = 0;
  std::uint64_t migration_moves = 0;
};

class ProbePolicy final : public sched::Policy {
 public:
  ProbePolicy(core::ScoreBasedPolicy& inner, PolicySamples& out, bool traced)
      : inner_(inner), out_(out), traced_(traced) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_migration() const override {
    return inner_.uses_migration();
  }

  std::vector<sched::Action> schedule(const sched::SchedContext& ctx) override {
    out_.round_flag = true;
    if (!traced_) return inner_.schedule(ctx);
    out_.queue_len.push_back(static_cast<double>(ctx.queue.size()));
    const auto t0 = Clock::now();
    std::vector<sched::Action> actions = inner_.schedule(ctx);
    out_.schedule_s.push_back(seconds_since(t0));
    if (!actions.empty()) ++out_.productive_rounds;
    out_.moves += static_cast<std::uint64_t>(inner_.last_stats().moves);
    out_.migration_moves +=
        static_cast<std::uint64_t>(inner_.last_stats().migration_moves);
    return actions;
  }

  datacenter::HostId choose_power_on(
      const sched::SchedContext& ctx,
      const std::vector<datacenter::HostId>& off_hosts) override {
    if (!traced_) return inner_.choose_power_on(ctx, off_hosts);
    const auto t0 = Clock::now();
    const datacenter::HostId h = inner_.choose_power_on(ctx, off_hosts);
    out_.power_on_s.push_back(seconds_since(t0));
    return h;
  }

  datacenter::HostId choose_power_off(
      const sched::SchedContext& ctx,
      const std::vector<datacenter::HostId>& idle_hosts) override {
    if (!traced_) return inner_.choose_power_off(ctx, idle_hosts);
    const auto t0 = Clock::now();
    const datacenter::HostId h = inner_.choose_power_off(ctx, idle_hosts);
    out_.power_off_s.push_back(seconds_since(t0));
    return h;
  }

 private:
  core::ScoreBasedPolicy& inner_;
  PolicySamples& out_;
  bool traced_;
};

/// Stamps each dispatch and records the interval up to the next dispatch
/// (or the end of the run) as that event's duration, with whether the
/// event ran a scheduling round.
class DispatchClock final : public sim::SimObserver {
 public:
  explicit DispatchClock(PolicySamples& policy) : policy_(policy) {}

  void on_event_dispatched(sim::SimTime) override {
    const auto now = Clock::now();
    close(now);
    start_ = now;
    open_ = true;
  }

  void close(Clock::time_point end) {
    if (!open_) return;
    duration_s.push_back(std::chrono::duration<double>(end - start_).count());
    ran_round.push_back(policy_.round_flag ? 1 : 0);
    policy_.round_flag = false;
    open_ = false;
  }

  std::vector<double> duration_s;
  std::vector<char> ran_round;

 private:
  PolicySamples& policy_;
  Clock::time_point start_{};
  bool open_ = false;
};

// ---- one simulation --------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// Every RunReport field that describes the simulated outcome, with
/// doubles in hex so two reports compare bit for bit.
std::string report_key(const metrics::RunReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%a %a %a %a %a %a %a %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %zu|",
                r.duration_s, r.avg_working, r.avg_online, r.cpu_hours,
                r.energy_kwh, r.satisfaction, r.delay_pct, r.migrations,
                r.creations, r.turn_ons, r.turn_offs, r.failures,
                r.jobs_finished);
  return buf + r.metrics.to_json();
}

struct SimResult {
  bool traced = false;
  double generate_s = 0;
  double run_s = 0;  ///< wall time of the event loop plus the report
  std::size_t jobs = 0;
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  metrics::RunReport report;
  std::string report_key;
  std::uint64_t decisions = kFnvBasis;

  std::vector<double> dispatch_s;
  std::vector<char> ran_round;
  PolicySamples policy;
  std::array<std::vector<double>, obs::kPhaseCount> phase_s;
};

/// The stack of one run, built by set_up and consumed by simulate.
struct Stack {
  workload::Workload jobs;
  sim::Simulator simulator;
  std::unique_ptr<metrics::Recorder> recorder;
  std::unique_ptr<datacenter::Datacenter> dc;
  std::unique_ptr<core::ScoreBasedPolicy> sb;
  std::unique_ptr<ProbePolicy> probe;
  std::unique_ptr<sched::SchedulerDriver> driver;
};

/// Workload generation plus datacenter, driver and arrival set-up — the
/// part timed as setup_s. Returns the generation time.
double set_up(Stack& s, const WorkloadSpec& w, const Inputs& in,
              PolicySamples& samples, obs::Observability* obs, bool traced) {
  const auto t0 = Clock::now();
  s.jobs = workload::generate(synthetic_config(w, in.workload_seed));
  const double generate_s = seconds_since(t0);

  datacenter::DatacenterConfig dconf;
  dconf.hosts = experiments::evaluation_hosts(15 * w.scale, 50 * w.scale,
                                              35 * w.scale);
  dconf.seed = in.seed;
  s.recorder = std::make_unique<metrics::Recorder>(dconf.hosts.size());
  s.recorder->obs = obs;
  s.dc = std::make_unique<datacenter::Datacenter>(s.simulator, dconf,
                                                  *s.recorder);
  core::ScoreBasedConfig sbc = core::ScoreBasedConfig::sb();
  sbc.solver_threads = 1;
  s.sb = std::make_unique<core::ScoreBasedPolicy>(sbc);
  s.probe = std::make_unique<ProbePolicy>(*s.sb, samples, traced);
  s.driver = std::make_unique<sched::SchedulerDriver>(
      s.simulator, *s.dc, *s.probe, sched::DriverConfig{});
  s.driver->submit_workload(s.jobs);
  sim::Simulator& simulator = s.simulator;
  s.driver->on_all_done = [&simulator] { simulator.stop(); };
  return generate_s;
}

SimResult simulate(const WorkloadSpec& w, const Inputs& in, bool traced,
                   std::size_t events_hint) {
  SimResult r;
  r.traced = traced;
  std::optional<obs::Observability> obs;
  if (traced) {
    obs.emplace();
    obs->profiler.enable();
  }
  DispatchClock clock(r.policy);
  clock.duration_s.reserve(events_hint);
  clock.ran_round.reserve(events_hint);

  Stack s;
  r.generate_s = set_up(s, w, in, r.policy, obs ? &*obs : nullptr, traced);
  s.driver->on_actions = [&r](sim::SimTime t,
                              const std::vector<sched::Action>& applied) {
    r.decisions = fnv1a(r.decisions, &t, sizeof t);
    for (const sched::Action& a : applied) {
      const std::uint32_t rec[3] = {static_cast<std::uint32_t>(a.kind),
                                    static_cast<std::uint32_t>(a.vm),
                                    static_cast<std::uint32_t>(a.host)};
      r.decisions = fnv1a(r.decisions, rec, sizeof rec);
    }
  };
  s.simulator.set_observer(&clock);

  const auto t_run = Clock::now();
  s.simulator.run();
  clock.close(Clock::now());
  const sched::PowerControllerConfig& pc = s.driver->thresholds();
  r.report = metrics::make_report(*s.recorder, s.simulator.now(),
                                  s.probe->name(), pc.lambda_min,
                                  pc.lambda_max);
  r.run_s = seconds_since(t_run);
  s.simulator.set_observer(nullptr);

  r.jobs = s.jobs.size();
  r.submitted = s.driver->submitted();
  r.finished = s.driver->finished();
  r.events = s.simulator.dispatched();
  r.cancelled = s.simulator.cancelled();
  r.report_key = report_key(r.report);
  r.dispatch_s = std::move(clock.duration_s);
  r.ran_round = std::move(clock.ran_round);
  if (obs) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      for (double ms : obs->profiler.samples(static_cast<obs::Phase>(p))) {
        r.phase_s[p].push_back(ms / 1000.0);
      }
    }
  }
  return r;
}

/// Set-up alone: the stack is built, timed, then torn down unrun.
double setup_only(const WorkloadSpec& w, const Inputs& in) {
  PolicySamples samples;
  const auto t0 = Clock::now();
  Stack s;
  set_up(s, w, in, samples, nullptr, false);
  return seconds_since(t0);
}

/// High-water resident set of this process image, from /proc. Not
/// getrusage(): its ru_maxrss also keeps the peak of the image that exec'd
/// this one (run.py's interpreter).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---- folding repeats -------------------------------------------------------

double total(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Position-by-position minimum of one timing sequence over repeats.
class MinFold {
 public:
  /// False when `s` is not the same length as the sequences folded before,
  /// i.e. the repeats did not do the same work.
  bool fold(const std::vector<double>& s) {
    if (folds_++ == 0) {
      min_ = s;
      return true;
    }
    if (s.size() != min_.size()) return false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      min_[i] = std::min(min_[i], s[i]);
    }
    return true;
  }
  [[nodiscard]] const std::vector<double>& values() const { return min_; }
  [[nodiscard]] double sum() const { return total(min_); }

 private:
  std::vector<double> min_;
  std::size_t folds_ = 0;
};

/// The folded timings of one kind of repeat (traced or untraced).
struct Folded {
  MinFold dispatch;
  std::vector<char> ran_round;
  MinFold schedule;
  MinFold power_on;
  MinFold power_off;
  std::array<MinFold, obs::kPhaseCount> phase;
  std::vector<double> queue_len;  ///< per round, from the first repeat
  std::vector<double> run_wall_s;
  std::vector<double> generate_s;
  bool consistent = true;

  /// Folds `r` in and releases its sequences.
  void add(SimResult& r) {
    if (run_wall_s.empty()) {
      ran_round = r.ran_round;
      queue_len = r.policy.queue_len;
    }
    bool ok = r.ran_round == ran_round && dispatch.fold(r.dispatch_s) &&
              schedule.fold(r.policy.schedule_s) &&
              power_on.fold(r.policy.power_on_s) &&
              power_off.fold(r.policy.power_off_s);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      ok = phase[p].fold(r.phase_s[p]) && ok;
    }
    consistent = consistent && ok;
    run_wall_s.push_back(r.run_s);
    generate_s.push_back(r.generate_s);
    r.dispatch_s = {};
    r.ran_round = {};
    r.phase_s = {};
    r.policy.schedule_s = {};
    r.policy.power_on_s = {};
    r.policy.power_off_s = {};
    r.policy.queue_len = {};
  }

  /// Folded durations of the dispatches that did (round=true) or did not
  /// run a scheduling round.
  [[nodiscard]] std::vector<double> dispatches(bool round) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < ran_round.size(); ++i) {
      if ((ran_round[i] != 0) == round) v.push_back(dispatch.values()[i]);
    }
    return v;
  }
};

/// Nearest-rank percentile of `v` (any order), scaled by `scale`.
double percentile(std::vector<double> v, double p, double scale = 1) {
  std::sort(v.begin(), v.end());
  return perfbench::percentile_sorted(v, p) * scale;
}

// ---- JSON output -----------------------------------------------------------

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

class JsonMetrics {
 public:
  void add(const char* name, double value, const char* unit,
           std::size_t samples) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %zu}",
                  body_.empty() ? "" : ", ", name, value, unit, samples);
    body_ += buf;
  }
  void count(const char* name, double value) { add(name, value, "count", 1); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string context_json() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"build_type\": \"%s\", \"optimized\": %s, \"ndebug\": %s, "
                "\"compiler\": \"%s\", \"hw_threads\": %u, "
                "\"solver_threads\": 1}",
                escape(PERFBENCH_BUILD_TYPE).c_str(),
                optimized ? "true" : "false", ndebug ? "true" : "false",
                escape(std::string("gcc-compatible ") + __VERSION__).c_str(),
                std::thread::hardware_concurrency());
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload week100|fleet1k|burst1k "
               "--seed N --seconds S --trace 0|1 [--workload-seed N] "
               "[--reference]\n"
               "       perfbench_sim --context\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  Inputs in;
  double seconds = 40;
  int trace = 0;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--context") {
      std::printf("%s\n", context_json().c_str());
      return 0;
    }
    if (arg == "--reference") {
      reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      in.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--workload-seed") {
      in.workload_seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || end == value)) return usage();
  }
  const WorkloadSpec* w = find_workload(workload_name);
  if (w == nullptr || seconds < 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const bool traced = trace == 1;

  // The first repeat gives the outcome every later repeat must reproduce,
  // and bounds peak memory: later repeats free what they allocate and only
  // add the harness's own sample vectors. Then repeats continue until the
  // time budget is spent, at least three of each kind. In traced mode
  // untraced and traced repeats alternate, so their difference (the
  // tracing overhead) sees the same machine state.
  std::vector<SimResult> runs;
  Folded untraced;
  Folded tracedf;
  const auto t_measure = Clock::now();
  runs.push_back(simulate(*w, in, false, 0));
  const double rss_mb = peak_rss_mb();
  const std::size_t events_hint = runs.front().events + 1;
  untraced.add(runs.back());

  // Set-up takes milliseconds, so a burst of samples would all land in one
  // stretch of the machine's load. Its samples are spread over the whole
  // measurement instead, in step with the time spent, and folded by
  // minimum like every other timing.
  constexpr std::size_t kSetupSamples = 51;
  std::vector<double> setups;
  const auto sample_setup = [&](double share) {
    while (static_cast<double>(setups.size()) <
           static_cast<double>(kSetupSamples) * std::min(share, 1.0)) {
      setups.push_back(setup_only(*w, in));
    }
  };

  constexpr std::size_t kMinRepeats = 3;
  double last_s = seconds_since(t_measure);
  while (true) {
    sample_setup(seconds > 0 ? seconds_since(t_measure) / seconds : 1.0);
    const std::size_t nu = untraced.run_wall_s.size();
    const bool need_more = nu < kMinRepeats ||
                           (traced && tracedf.run_wall_s.size() < kMinRepeats);
    if (!need_more && seconds_since(t_measure) + last_s > seconds) break;
    const auto t0 = Clock::now();
    const bool traced_first = traced && nu % 2 == 1;
    for (int k = 0; k < (traced ? 2 : 1); ++k) {
      const bool this_traced = traced && ((k == 0) == traced_first);
      runs.push_back(simulate(*w, in, this_traced, events_hint));
      (this_traced ? tracedf : untraced).add(runs.back());
    }
    last_s = seconds_since(t0);
  }
  sample_setup(1.0);
  const double setup_s = *std::min_element(setups.begin(), setups.end());

  // ---- correctness ---------------------------------------------------------
  const SimResult& first = runs.front();
  bool identical = untraced.consistent && tracedf.consistent;
  if (traced) identical = identical && tracedf.ran_round == untraced.ran_round;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const SimResult& r : runs) {
    identical = identical && r.report_key == first.report_key &&
                r.decisions == first.decisions && r.events == first.events;
    attempted += r.submitted;
    failed += r.submitted - std::min(r.finished, r.submitted);
  }

  // ---- metrics -------------------------------------------------------------
  JsonMetrics m;
  const std::size_t nu = untraced.run_wall_s.size();
  const double run_s = untraced.dispatch.sum();
  const std::vector<double> react = untraced.dispatches(true);
  // Every p99.9 below must be the guide's tail: the highest percentile that
  // keeps at least 10 samples beyond it. `tail_samples` is the smallest
  // sample count any of them rests on.
  std::size_t tail_samples = react.size();
  m.add("run_s", run_s, "s", nu);
  m.add("react_p50_us", percentile(react, 50, 1e6), "us", react.size());
  m.add("react_p99_us", percentile(react, 99, 1e6), "us", react.size());
  m.add("react_p999_us", percentile(react, 99.9, 1e6), "us", react.size());
  m.add("setup_s", setup_s, "s", setups.size());
  m.add("peak_rss_mb", rss_mb, "MB", 1);
  m.add("energy_kwh", first.report.energy_kwh, "kWh", 1);
  m.add("satisfaction_pct", first.report.satisfaction, "%", 1);

  if (traced) {
    const std::size_t nt = tracedf.run_wall_s.size();
    const SimResult* t0 = nullptr;
    for (const SimResult& r : runs) {
      if (r.traced) {
        t0 = &r;
        break;
      }
    }
    const PolicySamples& ps = t0->policy;
    const auto& sched_s = tracedf.schedule.values();
    const double rounds = static_cast<double>(sched_s.size());
    tail_samples = std::min(tail_samples, sched_s.size());

    m.add("core.schedule_s", tracedf.schedule.sum(), "s", nt);
    m.add("core.schedule_p50_us", percentile(sched_s, 50, 1e6), "us",
          sched_s.size());
    m.add("core.schedule_p999_us", percentile(sched_s, 99.9, 1e6), "us",
          sched_s.size());
    m.add("core.power_off_s", tracedf.power_off.sum(), "s", nt);
    m.add("core.power_on_s", tracedf.power_on.sum(), "s", nt);
    m.count("core.power_off_calls",
            static_cast<double>(tracedf.power_off.values().size()));
    m.count("core.power_on_calls",
            static_cast<double>(tracedf.power_on.values().size()));
    m.count("core.moves", static_cast<double>(ps.moves));
    m.count("core.migration_moves", static_cast<double>(ps.migration_moves));

    const std::vector<double> traced_rounds = tracedf.dispatches(true);
    const std::vector<double> traced_quiet = tracedf.dispatches(false);
    m.count("sched.rounds", rounds);
    m.add("sched.rounds_per_event", rounds / static_cast<double>(t0->events),
          "ratio", 1);
    m.add("sched.productive_rounds_ratio",
          static_cast<double>(ps.productive_rounds) / rounds, "ratio", 1);
    m.add("sched.round_self_s",
          total(traced_rounds) - tracedf.schedule.sum() -
              tracedf.power_on.sum() - tracedf.power_off.sum(),
          "s", nt);
    m.add("sched.queue_p99", percentile(tracedf.queue_len, 99), "VMs",
          tracedf.queue_len.size());
    m.count("sched.react_samples", static_cast<double>(traced_rounds.size()));

    m.count("sim.events", static_cast<double>(t0->events));
    m.add("sim.events_per_s", static_cast<double>(t0->events) / run_s, "1/s",
          nu);
    m.count("sim.events_cancelled", static_cast<double>(t0->cancelled));
    m.add("sim.quiet_dispatch_s", total(traced_quiet), "s", nt);

    m.count("dc.creations", static_cast<double>(t0->report.creations));
    m.count("dc.migrations", static_cast<double>(t0->report.migrations));
    m.count("dc.turn_ons", static_cast<double>(t0->report.turn_ons));
    m.count("dc.turn_offs", static_cast<double>(t0->report.turn_offs));

    m.count("workload.jobs", static_cast<double>(t0->jobs));
    m.add("workload.generate_s",
          *std::min_element(tracedf.generate_s.begin(),
                            tracedf.generate_s.end()),
          "s", nt);

    const auto phase = [&tracedf](obs::Phase p) {
      return tracedf.phase[static_cast<std::size_t>(p)].sum();
    };
    const double round_s = phase(obs::Phase::kRound);
    // kInvalidate runs inside kClimb, so it is not subtracted again.
    const double unattributed =
        round_s - phase(obs::Phase::kRebuild) - phase(obs::Phase::kClimb) -
        phase(obs::Phase::kActuate) - phase(obs::Phase::kPower);
    m.add("phase.invalidate_s", phase(obs::Phase::kInvalidate), "s", nt);
    m.add("phase.rebuild_s", phase(obs::Phase::kRebuild), "s", nt);
    m.add("phase.climb_s", phase(obs::Phase::kClimb), "s", nt);
    m.add("phase.actuate_s", phase(obs::Phase::kActuate), "s", nt);
    m.add("phase.power_s", phase(obs::Phase::kPower), "s", nt);
    m.add("phase.round_s", round_s, "s", nt);
    m.add("phase.unattributed_s", unattributed, "s", nt);
    m.add("phase.unattributed_pct",
          round_s > 0 ? 100.0 * unattributed / round_s : 0, "%", nt);

    const double traced_run_s = tracedf.dispatch.sum();
    m.add("trace.untraced_run_s", run_s, "s", nu);
    m.add("trace.traced_run_s", traced_run_s, "s", nt);
    m.add("trace.overhead_s", traced_run_s - run_s, "s", nt);
    m.add("trace.overhead_pct", 100.0 * (traced_run_s - run_s) / run_s, "%",
          nt);
    m.add("trace.wall_run_s", perfbench::median(untraced.run_wall_s), "s", nu);
  }

  // The paper's configuration: the default week and datacenter stream,
  // which the golden envelopes of the paper-reproduction gate describe.
  std::string paper;
  if (reference) {
    const SimResult ref = simulate(*w, Inputs{}, false, 0);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ", \"reference\": {\"seed\": %" PRIu64
                  ", \"energy_kwh\": %.17g, \"satisfaction_pct\": %.17g, "
                  "\"all_finished\": %s}",
                  Inputs{}.seed, ref.report.energy_kwh,
                  ref.report.satisfaction,
                  ref.finished == ref.submitted ? "true" : "false");
    paper = buf;
  }

  const perfbench::Quartiles wall = perfbench::quartiles(untraced.run_wall_s);

  std::printf(
      "{\"context\": %s, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"workload_seed\": %" PRIu64
      ", \"hosts\": %zu, \"jobs\": %zu, \"events\": %" PRIu64
      ", \"repeats\": {\"untraced\": %zu, \"traced\": %zu}, "
      "\"wall_run_s\": [%.9g, %.9g, %.9g], \"checks\": {\"all_finished\": "
      "%s, \"identical\": %s, \"tail_percentile\": %g, \"p999_beyond\": "
      "%zu, \"decisions\": \"%016" PRIx64
      "\", \"report\": \"%s\"}, \"attempted\": %" PRIu64
      ", \"failed\": %" PRIu64 ", \"metrics\": %s%s}\n",
      context_json().c_str(), w->name, in.seed, in.workload_seed,
      100 * w->scale, first.jobs, first.events, nu, tracedf.run_wall_s.size(),
      wall.q1, wall.q2, wall.q3, failed == 0 ? "true" : "false",
      identical ? "true" : "false",
      perfbench::highest_supported_percentile(tail_samples, 10),
      perfbench::samples_beyond(tail_samples, 99.9), first.decisions,
      escape(first.report.to_string()).c_str(), attempted, failed,
      m.str().c_str(), paper.c_str());
  return 0;
}
