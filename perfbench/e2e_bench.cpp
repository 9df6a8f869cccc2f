// End-to-end DRC benchmark harness.
//
//   e2e_bench --workload <signoff|signoff_par|edit_loop|edit_loop_sharded>
//             --seed N --seconds S --trace 0|1 --odrc <odrc binary>
//             --deck <rules.deck> [--scale X] [--wrong-expectation]
//
// Runs in (and writes only to) the current directory, which the caller
// makes private to this run. Designs come from odrc::workload with 2
// injected violations per kind, seeded by --seed. Every operation is checked
// for correctness; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. Exit code 1
// when any operation failed. See README.md next to this file.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "engine/deck_parser.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "engine/snapshot_store.hpp"
#include "gdsii/reader.hpp"
#include "gdsii/writer.hpp"
#include "report/violation_db.hpp"
#include "serve/client.hpp"
#include "serve/edits.hpp"
#include "serve/session.hpp"
#include "workload/workload.hpp"

#ifndef ODRC_BENCH_BUILD_TYPE
#define ODRC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace odrc;
using steady = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(steady::now().time_since_epoch()).count();
}

// --- options ------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string odrc;
  std::string deck;
  double scale = 0;  ///< 0 = the workload's own scale
  bool wrong_expectation = false;
};

options parse_options(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() != "0";
    else if (a == "--odrc") o.odrc = next();
    else if (a == "--deck") o.deck = next();
    else if (a == "--scale") o.scale = std::stod(next());
    else if (a == "--wrong-expectation") o.wrong_expectation = true;
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workload.empty() || o.odrc.empty() || o.deck.empty()) {
    throw std::runtime_error("--workload, --odrc and --deck are required");
  }
  return o;
}

// --- statistics -----------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// --- result ---------------------------------------------------------------------

// Per-layer metrics of the traced run, in print order, with the workload
// families that print them. Layer names are the src/ module names.
constexpr unsigned layers_signoff = 1, layers_serve = 2, layers_both = 3;
struct layer_metric {
  const char* name;
  const char* unit;
  unsigned families;
};
constexpr layer_metric k_layer_metrics[] = {
    {"gdsii.read_s", "s", layers_signoff},
    {"engine.snapshot_build_s", "s", layers_signoff},
    {"engine.snap_boot_s", "s", layers_serve},
    {"engine.check_s", "s", layers_both},
    {"engine.intra_s", "s", layers_both},
    {"engine.pair_s", "s", layers_both},
    {"engine.derived_s", "s", layers_both},
    {"partition.s", "s", layers_both},
    {"partition.rows", "count", layers_both},
    {"partition.clips", "count", layers_both},
    {"sweep.sweepline_s", "s", layers_both},
    {"sweep.edge_pairs_tested", "count", layers_both},
    {"checks.edge_check_s", "s", layers_both},
    {"geo.boolean_s", "s", layers_both},
    {"device.pack_s", "s", layers_both},
    {"device.wait_s", "s", layers_both},
    {"device.kernels", "count", layers_both},
    {"device.h2d_bytes", "bytes", layers_both},
    {"device.modeled_spin_s", "s", layers_both},
    {"report.write_s", "s", layers_signoff},
    {"report.query_s", "s", layers_serve},
    {"serve.apply_s", "s", layers_serve},
    {"serve.recheck_s", "s", layers_serve},
    {"serve.recheck_windows", "count", layers_serve},
    {"serve.full_fallbacks", "count", layers_serve},
    {"serve.ping_ms", "ms", layers_serve},
    {"serve.queue_ms", "ms", layers_serve},
    {"serve.push_ms", "ms", layers_serve},
    {"coord.leg_ms.max", "ms", layers_serve},
    {"coord.leg_ms.mean", "ms", layers_serve},
    {"coord.imbalance", "ratio", layers_serve},
    {"coord.reconcile_ms", "ms", layers_serve},
    {"infra.cpu_per_wall", "ratio", layers_both},
    {"unattributed_s", "s", layers_both},
    {"trace_overhead_frac", "ratio", layers_both},
};

struct result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, double> layer;  ///< traced run: k_layer_metrics values
  std::mutex mu;

  /// Record one checked operation; a false `ok` is a failed operation.
  void check(bool ok, const std::string& what) {
    std::lock_guard lk(mu);
    ++attempted;
    if (ok) return;
    if (failed < 20) std::fprintf(stderr, "e2e_bench: FAILED %s\n", what.c_str());
    ++failed;
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  /// A timing sample set: its median (or `q` quantile) as the metric, the
  /// sample count on a human-readable line.
  void timing(const std::string& name, const std::vector<double>& v, double q,
              const std::string& unit) {
    metric(name, quantile(v, q), unit);
    std::printf("# %-22s n=%zu\n", name.c_str(), v.size());
  }

  /// Move the traced run's layer values into `metrics`, in table order.
  void emit_layers(unsigned family) {
    for (const layer_metric& m : k_layer_metrics) {
      if (m.families & family) metric(m.name, layer[m.name], m.unit);
    }
  }

  void print() const {
    const double error_rate =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
    for (const auto& [name, vu] : metrics) {
      std::printf("%-24s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    std::printf("%-24s %.6g (%zu failed of %zu attempted)\n", "error_rate", error_rate, failed,
                attempted);
    std::ostringstream os;
    os.precision(10);
    os << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
      os << (i ? ", " : "") << '"' << metrics[i].first << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }
};

// --- child processes ------------------------------------------------------------

// Every spawned server/coordinator/worker. The signal handler and every exit
// path of main() kill and reap them, so no process outlives the run.
std::vector<pid_t> g_children;
std::mutex g_children_mu;

void kill_children(bool graceful_wait) {
  std::vector<pid_t> pids;
  {
    std::lock_guard lk(g_children_mu);
    pids.swap(g_children);
  }
  for (const pid_t p : pids) ::kill(p, SIGTERM);
  for (const pid_t p : pids) {
    int st = 0;
    bool gone = false;
    for (int i = 0; graceful_wait && i < 200 && !gone; ++i) {
      gone = ::waitpid(p, &st, WNOHANG) == p;
      if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!gone) {
      ::kill(p, SIGKILL);
      ::waitpid(p, &st, 0);
    }
  }
}

extern "C" void on_signal(int sig) {
  // Async-signal-safe subset: kill + waitpid + _exit. The vector is not
  // resized here; a racing push_back at worst leaves one pid to the caller's
  // process-group kill.
  for (const pid_t p : g_children) ::kill(p, SIGKILL);
  for (const pid_t p : g_children) ::waitpid(p, nullptr, 0);
  ::_exit(128 + sig);
}

pid_t spawn(const std::vector<std::string>& args, const std::string& log) {
  std::fflush(nullptr);  // the child must not replay buffered output
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    FILE* f = std::freopen(log.c_str(), "a", stdout);
    if (f != nullptr) ::dup2(::fileno(stdout), 2);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  std::lock_guard lk(g_children_mu);
  g_children.push_back(pid);
  return pid;
}

/// Wait up to `timeout_s` for `pid` to exit, then SIGKILL it; drops it from
/// the registry either way.
void reap(pid_t pid, double timeout_s) {
  int st = 0;
  const double deadline = now_s() + timeout_s;
  bool gone = false;
  while (!gone && now_s() < deadline) {
    gone = ::waitpid(pid, &st, WNOHANG) == pid;
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!gone) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &st, 0);
  }
  std::lock_guard lk(g_children_mu);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), pid), g_children.end());
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// user+system CPU seconds of a process.
double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s;
  std::getline(in, s);
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream fields(s.substr(rp + 2));
  std::string f;
  double ticks = 0;
  for (int i = 3; fields >> f; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(f);
    if (i == 15) break;
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// --- inputs -----------------------------------------------------------------------

struct design_input {
  std::string name;
  double scale = 1;
  std::string gds;
  std::string snap;  ///< empty unless built
  std::vector<workload::site> sites;
};

void write_sites(const std::vector<workload::site>& sites, const std::string& path) {
  std::ofstream out(path);
  for (const workload::site& s : sites) {
    out << static_cast<int>(s.kind) << ' ' << s.layer1 << ' ' << s.layer2 << ' ' << s.marker.x_min
        << ' ' << s.marker.y_min << ' ' << s.marker.x_max << ' ' << s.marker.y_max << '\n';
  }
}

std::vector<workload::site> read_sites(const std::string& path) {
  std::ifstream in(path);
  std::vector<workload::site> out;
  int kind = 0, l1 = 0, l2 = 0;
  rect m;
  while (in >> kind >> l1 >> l2 >> m.x_min >> m.y_min >> m.x_max >> m.y_max) {
    out.push_back({static_cast<checks::rule_kind>(kind), static_cast<db::layer_t>(l1),
                   static_cast<db::layer_t>(l2), m});
  }
  return out;
}

/// Generate the designs (GDS + injected sites, optionally a .snap) in a
/// forked child, so the generator's memory never counts toward the measured
/// process's peak RSS. Must run before this process starts any thread.
void prepare(std::span<design_input> designs, std::uint64_t seed, bool snap) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      for (design_input& d : designs) {
        workload::design_spec spec = workload::spec_for(d.name, d.scale);
        spec.seed = seed;
        spec.inject = {2, 2, 2, 2};
        const workload::generated g = workload::generate(spec);
        gdsii::write(g.lib, d.gds);
        write_sites(g.sites, d.gds + ".sites");
        if (snap) (void)engine::build_snapshot_file(g.lib, d.snap);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: prepare: %s\n", e.what());
      ::_exit(1);
    }
    ::_exit(0);
  }
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) throw std::runtime_error("design generation failed");
  for (design_input& d : designs) d.sites = read_sites(d.gds + ".sites");
}

std::vector<std::string> sorted_keys(const report::violation_db& db) {
  std::vector<std::string> k = db.keys();
  std::sort(k.begin(), k.end());
  return k;
}

// --- sign-off correctness -----------------------------------------------------------

rect violation_box(const checks::violation& v) { return v.e1.mbr().join(v.e2.mbr()); }

bool rule_matches_site(const rules::rule& r, const workload::site& s) {
  if (r.kind != s.kind || r.layer1 != s.layer1) return false;
  return s.kind != checks::rule_kind::enclosure || r.layer2 == s.layer2;
}

/// Every injected site that some deck rule targets is reported by that rule,
/// and no violation lies away from every injected site (the generated base
/// design is clean by construction). Returns a description of the first
/// mismatch, empty when the report is right.
std::string verify_sites(const std::vector<rules::rule>& deck, const engine::deck_report& dr,
                         const std::vector<workload::site>& sites) {
  for (const workload::site& s : sites) {
    for (std::size_t i = 0; i < deck.size(); ++i) {
      if (!rule_matches_site(deck[i], s)) continue;
      const rect m = s.marker.inflated(1);
      const auto& vs = dr.per_rule[i].violations;
      if (std::none_of(vs.begin(), vs.end(),
                       [&](const checks::violation& v) { return m.overlaps(violation_box(v)); })) {
        return "missed injected site of " + deck[i].name;
      }
    }
  }
  // A site's side effects (a pinched wire's notch, an off-centre via's
  // partial overlap) stay within a few rule distances of its marker.
  constexpr coord_t halo = 4 * workload::tech::wire_space;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    for (const checks::violation& v : dr.per_rule[i].violations) {
      const rect b = violation_box(v);
      if (std::none_of(sites.begin(), sites.end(), [&](const workload::site& s) {
            return s.marker.inflated(halo).overlaps(b);
          })) {
        return "stray violation of " + deck[i].name;
      }
    }
  }
  return {};
}

// --- per-layer accumulation ------------------------------------------------------------

struct device_counters {
  std::uint64_t kernels = 0, threads = 0, h2d = 0, d2h = 0;

  static device_counters read() {
    const device::context& c = device::context::instance();
    return {c.kernels_launched(), c.threads_executed(), c.bytes_h2d(), c.bytes_d2h()};
  }
  device_counters operator-(const device_counters& o) const {
    return {kernels - o.kernels, threads - o.threads, h2d - o.h2d, d2h - o.d2h};
  }
  bool operator==(const device_counters&) const = default;

  /// Modeled device spin (computed, not measured): launches x launch
  /// latency + copied bytes / modeled bandwidth.
  [[nodiscard]] double modeled_spin_s() const {
    const device::context& c = device::context::instance();
    double s = static_cast<double>(kernels) * static_cast<double>(c.launch_latency_ns()) * 1e-9;
    if (c.copy_bytes_per_us() > 0) {
      s += static_cast<double>(h2d + d2h) / c.copy_bytes_per_us() * 1e-6;
    }
    return s;
  }
};

/// Engine-side breakdown of one deck run, from the check_report it returned.
struct engine_breakdown {
  double check_s = 0, intra_s = 0, pair_s = 0, derived_s = 0;
  double partition_s = 0, sweepline_s = 0, edge_check_s = 0, boolean_s = 0;
  double pack_s = 0, device_wait_s = 0, phases_s = 0;
  double rows = 0, clips = 0, edge_pairs = 0;

  void add(const engine::deck_report& dr, std::span<const engine::exec_plan> plans,
           double wall) {
    // Batched pair groups keep their shared phases (partition, sweep, pack,
    // device) in the group report only, so pair time is the check wall
    // minus the per-rule time of the intra and derived plans.
    check_s += wall;
    double other = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const double t = dr.per_rule[i].phases.total();
      if (plans[i].cls == engine::plan_class::intra) intra_s += t;
      if (plans[i].cls == engine::plan_class::global) derived_s += t;
      if (plans[i].cls != engine::plan_class::pair) other += t;
    }
    pair_s += wall - other;
    const engine::check_report& t = dr.total;
    for (const auto& [name, secs] : t.phases.phases()) {
      phases_s += secs;
      if (name == "partition") partition_s += secs;
      else if (name == "sweepline") sweepline_s += secs;
      else if (name == "edge_check") edge_check_s += secs;
      else if (name == "boolean") boolean_s += secs;
      else if (name == "pack") pack_s += secs;
      else if (name == "device") device_wait_s += secs;
    }
    rows += static_cast<double>(t.rows);
    clips += static_cast<double>(t.clips);
    edge_pairs += static_cast<double>(t.check_stats.edge_pairs_tested +
                                      t.device_stats.edge_pairs_tested);
  }

  void scale(double f) {
    for (double* p : {&check_s, &intra_s, &pair_s, &derived_s, &partition_s, &sweepline_s,
                      &edge_check_s, &boolean_s, &pack_s, &device_wait_s, &phases_s, &rows,
                      &clips, &edge_pairs}) {
      *p *= f;
    }
  }

  void emit(result& r) const {
    auto& l = r.layer;
    l["engine.check_s"] = check_s;
    l["engine.intra_s"] = intra_s;
    l["engine.pair_s"] = pair_s;
    l["engine.derived_s"] = derived_s;
    l["partition.s"] = partition_s;
    l["partition.rows"] = rows;
    l["partition.clips"] = clips;
    l["sweep.sweepline_s"] = sweepline_s;
    l["sweep.edge_pairs_tested"] = edge_pairs;
    l["checks.edge_check_s"] = edge_check_s;
    l["geo.boolean_s"] = boolean_s;
    l["device.pack_s"] = pack_s;
    l["device.wait_s"] = device_wait_s;
  }
};

void emit_device(result& r, const device_counters& d) {
  r.layer["device.kernels"] = static_cast<double>(d.kernels);
  r.layer["device.h2d_bytes"] = static_cast<double>(d.h2d);
  r.layer["device.modeled_spin_s"] = d.modeled_spin_s();
}

// --- sign-off workloads ------------------------------------------------------------------

struct design_run {
  double load_s = 0, total_s = 0;
  std::vector<std::string> keys;
  // traced stages
  double read_s = 0, parse_s = 0, snapshot_s = 0, write_s = 0;
};

/// One design of a sign-off job: the `odrc check` call sequence (read GDS,
/// parse deck, check_deck, write the text report). Traced runs also time
/// each layer call and build the snapshot themselves for the plan-level
/// check_deck.
design_run run_design(const design_input& d, const options& o, engine::mode m, bool traced,
                      engine_breakdown* eb, result& res) {
  design_run out;
  const double t0 = now_s();
  const db::library lib = gdsii::read(d.gds);
  const double t_read = now_s();
  const auto deck = rules::parse_deck_file(o.deck);
  const double t1 = now_s();
  engine_config cfg;
  cfg.run_mode = m;
  drc_engine eng(cfg);
  eng.add_rules(deck);
  engine::deck_report dr;
  double t_snap = t1;
  if (traced) {
    std::vector<engine::exec_plan> plans;
    for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
    engine::layout_snapshot snap(lib);
    t_snap = now_s();
    dr = eng.check_deck(lib, plans, snap);
    eb->add(dr, plans, now_s() - t_snap);
  } else {
    dr = eng.check_deck(lib);
  }
  const double t2 = now_s();
  report::violation_db db(lib.name());
  for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
  {
    std::ofstream rep(d.name + ".report.txt");
    db.write_text(rep);
  }
  const double t3 = now_s();

  out.load_s = t1 - t0;
  out.total_s = t3 - t0;
  out.read_s = t_read - t0;
  out.parse_s = t1 - t_read;
  out.snapshot_s = t_snap - t1;
  out.write_s = t3 - t2;
  out.keys = sorted_keys(db);

  std::vector<workload::site> expected = d.sites;
  if (o.wrong_expectation) {
    for (workload::site& s : expected) s.marker = s.marker.translated({100000, 0});
  }
  const std::string why = verify_sites(deck, dr, expected);
  res.check(why.empty(), d.name + ": " + why);
  return out;
}

void run_signoff(const options& o, bool par, result& res) {
  const double scale = o.scale > 0 ? o.scale : (par ? 1.0 : 4.0);
  std::vector<design_input> designs;
  for (const char* name : {"ethmac", "jpeg"}) {
    design_input d;
    d.name = name;
    d.scale = scale;
    d.gds = d.name + ".gds";
    designs.push_back(d);
  }
  prepare(designs, o.seed, false);
  const engine::mode m = par ? engine::mode::parallel : engine::mode::sequential;

  // seq and par must find the same violations: par runs are compared
  // against a seq reference of the same design.
  std::vector<std::vector<std::string>> reference(designs.size());
  if (par) {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      reference[i] = run_design(designs[i], o, engine::mode::sequential, false, nullptr, res).keys;
    }
  }

  std::vector<double> setup, job, job_traced, job_untraced;
  std::vector<device_counters> deltas;
  engine_breakdown eb;
  double read_s = 0, snapshot_s = 0, write_s = 0, stages_s = 0, traced_wall = 0, traced_cpu = 0;
  std::size_t traced_jobs = 0;
  const double start = now_s();
  // Closed loop, one job at a time. A traced run alternates untraced and
  // traced jobs so the tracing overhead is measured on the same host state.
  for (std::size_t n = 0; n < 2 || now_s() - start < o.seconds; ++n) {
    const bool traced = o.trace && n % 2 == 1;
    const device_counters before = device_counters::read();
    const double cpu0 = self_cpu_seconds();
    double load = 0, wall = 0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const design_run r = run_design(designs[i], o, m, traced, &eb, res);
      load += r.load_s;
      wall += r.total_s;
      if (par) res.check(r.keys == reference[i], designs[i].name + ": par keys differ from seq");
      if (traced) {
        read_s += r.read_s;
        snapshot_s += r.snapshot_s;
        write_s += r.write_s;
        stages_s += r.read_s + r.parse_s + r.snapshot_s + r.write_s;
      }
    }
    const device_counters delta = device_counters::read() - before;
    // Per-job device deltas, never process totals; identical jobs must
    // launch identical device work.
    if (!deltas.empty()) res.check(delta == deltas.front(), "device counter delta differs");
    deltas.push_back(delta);
    setup.push_back(load);
    job.push_back(wall);
    (traced ? job_traced : job_untraced).push_back(wall);
    if (traced) {
      ++traced_jobs;
      traced_wall += wall;
      traced_cpu += self_cpu_seconds() - cpu0;
    }
  }

  if (!o.trace) {
    res.timing("setup_s", setup, 0.5, "s");
    res.timing("job_s", job, 0.5, "s");
    res.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
    return;
  }
  // Per traced job. Unattributed: job wall minus the layer calls timed
  // around it and the engine's own phase profile.
  const double per_job = 1.0 / static_cast<double>(std::max<std::size_t>(1, traced_jobs));
  const double unattributed = traced_wall - stages_s - eb.phases_s;
  eb.scale(per_job);
  eb.emit(res);
  emit_device(res, deltas.back());
  auto& l = res.layer;
  l["gdsii.read_s"] = read_s * per_job;
  l["engine.snapshot_build_s"] = snapshot_s * per_job;
  l["report.write_s"] = write_s * per_job;
  l["infra.cpu_per_wall"] = traced_wall > 0 ? traced_cpu / traced_wall : 0;
  l["unattributed_s"] = unattributed * per_job;
  l["trace_overhead_frac"] = median(job_traced) / median(job_untraced) - 1;
  res.emit_layers(layers_signoff);
}

// --- interactive workloads -----------------------------------------------------------

constexpr rect k_plane{-(1 << 30), -(1 << 30), 1 << 30, 1 << 30};

std::string window_args(const rect& w) {
  std::ostringstream os;
  os << w.x_min << ' ' << w.y_min << ' ' << w.x_max << ' ' << w.y_max;
  return os.str();
}

/// "v <key>" body lines of a `keys` response, sorted.
std::vector<std::string> response_keys(const serve::frame& f) {
  std::vector<std::string> keys;
  std::istringstream in(f.payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) keys.push_back(line.substr(2));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Value after `word` in a status line ("ok fixed 1 new 0 ..."); -1 if absent.
long long field(const std::string& status, const std::string& word) {
  std::istringstream in(status);
  std::string tok;
  while (in >> tok) {
    if (tok == word && (in >> tok)) return std::stoll(tok);
  }
  return -1;
}

/// An editor's model of the top cell's routing: the M2/M3 rectangles in
/// layer-local order, the order the edit script's polygon indices use.
struct routing_model {
  std::string cell;
  std::map<db::layer_t, std::vector<rect>> wires;

  static routing_model of(const db::library& lib) {
    routing_model m;
    const db::cell& top = lib.at(lib.top_cells().front());
    m.cell = top.name();
    for (const db::polygon_elem& p : top.polygons()) {
      if (p.layer == workload::layers::M2 || p.layer == workload::layers::M3) {
        m.wires[p.layer].push_back(p.poly.mbr());
      }
    }
    return m;
  }
};

struct edit {
  std::string script;
  rect where;  ///< old ∪ new extent of the edited wire
};

/// One seeded top-level routing edit: add, move or remove an M2/M3 wire.
/// Depends only on the editor's RNG and its own model, never on timing, so
/// a seed fixes every editor's whole script.
edit next_edit(routing_model& m, std::mt19937_64& rng) {
  const db::layer_t layer = rng() % 2 ? workload::layers::M2 : workload::layers::M3;
  std::vector<rect>& v = m.wires[layer];
  const auto pick = [&] { return static_cast<std::size_t>(rng() % v.size()); };
  const auto jitter = [&](int span) { return static_cast<coord_t>(rng() % (2 * span + 1)) - span; };
  std::ostringstream os;
  edit e;
  unsigned kind = static_cast<unsigned>(rng() % 3);
  if (v.size() < 8) kind = 0;
  if (kind == 0) {  // add a short wire next to an existing one
    const rect& a = v[pick()];
    const coord_t len = 200 + static_cast<coord_t>(rng() % 600);
    const point c{a.x_min + jitter(300), a.y_min + jitter(300)};
    const rect r = layer == workload::layers::M2
                       ? rect{c.x, c.y, c.x + len, c.y + workload::tech::wire_width}
                       : rect{c.x, c.y, c.x + workload::tech::wire_width, c.y + len};
    v.push_back(r);
    os << "add_poly " << m.cell << ' ' << layer << ' ' << window_args(r);
    e.where = r;
  } else if (kind == 1) {
    const std::size_t i = pick();
    const point d{jitter(60), jitter(60)};
    e.where = v[i].join(v[i].translated(d));
    v[i] = v[i].translated(d);
    os << "move_poly " << m.cell << ' ' << layer << ' ' << i << ' ' << d.x << ' ' << d.y;
  } else {
    const std::size_t i = pick();
    e.where = v[i];
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    os << "remove_poly " << m.cell << ' ' << layer << ' ' << i;
  }
  e.script = os.str();
  return e;
}

/// The four windowed reads after an edit: growing squares around its centre.
std::vector<rect> edit_windows(const rect& where) {
  const point c{where.x_min / 2 + where.x_max / 2, where.y_min / 2 + where.y_max / 2};
  std::vector<rect> out;
  for (coord_t h : {250, 500, 1000, 2000}) out.push_back(rect{c.x - h, c.y - h, c.x + h, c.y + h});
  return out;
}

/// The process(es) under test: one `odrc serve`, or two serve workers plus
/// an `odrc coord` over them.
struct fleet {
  std::vector<pid_t> pids;
  std::string endpoint;
  std::vector<std::string> worker_endpoints;
};

void await_ping(const std::string& ep, const std::vector<pid_t>& pids) {
  const double deadline = now_s() + 60;
  while (now_s() < deadline) {
    for (const pid_t p : pids) {
      siginfo_t si{};  // WNOWAIT: the exited child stays for reap() to collect
      if (::waitid(P_PID, static_cast<id_t>(p), &si, WEXITED | WNOHANG | WNOWAIT) == 0 &&
          si.si_pid == p) {
        throw std::runtime_error("server exited at boot");
      }
    }
    try {
      serve::client c;
      c.connect(ep);
      if (serve::client::ok(c.request(serve::msg_type::ping, 0))) return;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("server did not come up on " + ep);
}

/// Cold boot from the .snap up to the first full `check` answer. The
/// sharded fleet's workers are started here (not by `odrc coord`) so their
/// sockets live in this run's directory and every process is reaped here.
fleet boot(const options& o, const design_input& d, bool sharded, int n, double& boot_s,
           result& res) {
  fleet f;
  const std::string tag = std::to_string(n);
  const double t0 = now_s();
  const auto serve_args = [&](const std::string& sock) {
    return std::vector<std::string>{o.odrc,           "serve",       d.gds,
                                    "deck",           "--socket=" + sock, "--workers=2",
                                    "--mode=par",     "--snapshot=" + d.snap};
  };
  if (!sharded) {
    f.endpoint = "srv" + tag + ".sock";
    f.pids.push_back(spawn(serve_args(f.endpoint), "server.log"));
    await_ping(f.endpoint, f.pids);
  } else {
    for (int w = 0; w < 2; ++w) {
      f.worker_endpoints.push_back("w" + tag + "_" + std::to_string(w) + ".sock");
      f.pids.push_back(spawn(serve_args(f.worker_endpoints.back()), "worker.log"));
    }
    for (const std::string& ep : f.worker_endpoints) await_ping(ep, f.pids);
    f.endpoint = "coord" + tag + ".sock";
    std::vector<std::string> args = {o.odrc, "coord", d.gds, "deck", "--socket=" + f.endpoint,
                                     "--snapshot=" + d.snap};
    for (const std::string& ep : f.worker_endpoints) args.push_back("--worker=" + ep);
    f.pids.push_back(spawn(args, "coord.log"));
    await_ping(f.endpoint, f.pids);
  }
  serve::client c;
  c.connect(f.endpoint);
  const serve::frame r = c.request(serve::msg_type::check, 1);
  boot_s = now_s() - t0;
  res.check(serve::client::ok(r), "first check: " + serve::client::status_line(r));
  return f;
}

void shutdown(fleet& f) {
  try {
    serve::client c;
    c.connect(f.endpoint);
    (void)c.request(serve::msg_type::shutdown, 0);
  } catch (const std::exception&) {
  }
  // The coordinator forwards shutdown to its workers; anything still alive
  // after the grace period is killed.
  for (const pid_t p : f.pids) reap(p, 10);
  f.pids.clear();
}

struct cycle {
  double t_edit = 0, t_recheck = 0, t_end = 0;
  double edit_ms = 0, queries_ms = 0;
  long long fixed = 0, added = 0;
};

struct editor {
  std::uint32_t session = 1;
  std::mt19937_64 rng;
  routing_model model;
  std::vector<edit> edits;
  std::vector<cycle> cycles;
  std::vector<double> query_ms;
  std::uint64_t sub = 0;
};

struct delta_seen {
  double t = 0;
  std::uint64_t seq = 0;
  bool gap = false;
  std::size_t fixed = 0, added = 0;
};

/// Closed loop: edit -> recheck -> four windowed queries, until `until`.
void run_editor(editor& e, const std::string& ep, double until, result& res) {
  serve::client c;
  c.connect(ep);
  while (now_s() < until) {
    edit ed = next_edit(e.model, e.rng);
    cycle cy;
    cy.t_edit = now_s();
    const serve::frame er = c.request(serve::msg_type::edit, e.session, ed.script);
    cy.edit_ms = (now_s() - cy.t_edit) * 1e3;
    res.check(serve::client::ok(er), "edit: " + serve::client::status_line(er));
    const serve::frame rr = c.request(serve::msg_type::recheck, e.session);
    cy.t_recheck = now_s();
    const std::string st = serve::client::status_line(rr);
    res.check(serve::client::ok(rr), "recheck: " + st);
    cy.fixed = field(st, "fixed");
    cy.added = field(st, "new");
    const double q0 = now_s();
    for (const rect& w : edit_windows(ed.where)) {
      const double t = now_s();
      const serve::frame qr = c.request(serve::msg_type::query, e.session, window_args(w));
      e.query_ms.push_back((now_s() - t) * 1e3);
      res.check(serve::client::ok(qr), "query: " + serve::client::status_line(qr));
    }
    cy.t_end = now_s();
    cy.queries_ms = (cy.t_end - q0) * 1e3;
    e.edits.push_back(std::move(ed));
    e.cycles.push_back(cy);
  }
}

/// The edit scripts of one editor applied to a fresh copy of the layout,
/// then a full (non-incremental) check: the key set the server's store
/// must hold at the end of the run.
std::vector<std::string> fresh_keys(const design_input& d, const std::vector<rules::rule>& deck,
                                    const std::vector<edit>& edits) {
  db::library lib = gdsii::read(d.gds);
  {
    engine::layout_snapshot snap(lib);
    for (const edit& e : edits) (void)serve::apply_edits(lib, snap, serve::parse_edit_script(e.script));
  }
  engine_config cfg;
  serve::session s(std::move(lib), deck, cfg);
  (void)s.check_full();
  return s.keys();
}

void run_edit_loop(const options& o, bool sharded, result& res) {
  design_input d;
  d.name = "ethmac";
  d.scale = o.scale > 0 ? o.scale : 1.0;
  d.gds = "ethmac.gds";
  d.snap = "ethmac.snap";
  prepare({&d, 1}, o.seed, true);
  {  // the servers get the deck by a short relative name
    std::ifstream in(o.deck);
    std::ofstream out("deck");
    out << in.rdbuf();
  }
  const auto deck = rules::parse_deck_file("deck");
  const routing_model base = routing_model::of(gdsii::read(d.gds));

  // Cold boots: the last one stays up for the loop.
  std::vector<double> setup;
  fleet f;
  for (int n = 0; n < 3; ++n) {
    if (n > 0) shutdown(f);
    double s = 0;
    f = boot(o, d, sharded, n, s, res);
    setup.push_back(s);
  }

  // Three editors, each on its own session; the coordinator serves one.
  std::vector<editor> editors(sharded ? 1 : 3);
  {
    serve::client c;
    c.connect(f.endpoint);
    for (std::size_t i = 0; i < editors.size(); ++i) {
      editor& e = editors[i];
      e.rng.seed(o.seed * 1000003u + i);
      e.model = base;
      if (i == 0) continue;  // session 1 is the booted one
      const serve::frame r = c.request(serve::msg_type::open, 0, d.gds + " deck");
      res.check(serve::client::ok(r), "open: " + serve::client::status_line(r));
      e.session = static_cast<std::uint32_t>(field(serve::client::status_line(r), "session"));
      res.check(serve::client::ok(c.request(serve::msg_type::check, e.session)), "check");
    }
  }

  // One subscriber connection receives every session's deltas.
  serve::client sub;
  sub.connect(f.endpoint);
  for (editor& e : editors) {
    const serve::frame r = sub.request(serve::msg_type::subscribe, e.session);
    res.check(serve::client::ok(r), "subscribe: " + serve::client::status_line(r));
    e.sub = static_cast<std::uint64_t>(field(serve::client::status_line(r), "subscribed"));
  }
  std::map<std::uint64_t, std::vector<delta_seen>> deltas;
  // `expected` is set once the editors are done; the last pushes then get
  // 5 s to arrive. An exception unwinding past the thread stops it.
  std::atomic<std::size_t> expected{SIZE_MAX};
  std::jthread subscriber([&](const std::stop_token& stop) {
    std::size_t got = 0;
    double deadline = 0;
    while (got < expected.load() && !stop.stop_requested()) {
      if (expected.load() != SIZE_MAX) {
        if (deadline == 0) deadline = now_s() + 5;
        if (now_s() > deadline) break;
      }
      const std::optional<serve::frame> pf = sub.wait_push(20);
      if (!pf) continue;
      const double t = now_s();
      const std::optional<serve::delta_frame> df = serve::parse_delta(*pf);
      if (!df) continue;
      deltas[df->sub].push_back({t, df->seq, df->gap, df->fixed.size(), df->introduced.size()});
      ++got;
    }
  });

  std::vector<double> cpu0;
  for (const pid_t p : f.pids) cpu0.push_back(cpu_seconds(p));
  const double start = now_s();
  {
    std::vector<std::jthread> threads;
    for (editor& e : editors) {
      threads.emplace_back([&, ep = f.endpoint] {
        try {
          run_editor(e, ep, start + o.seconds, res);
        } catch (const std::exception& ex) {
          res.check(false, std::string("editor: ") + ex.what());
        }
      });
    }
  }  // joins the editors
  const double loop_wall = now_s() - start;
  double fleet_cpu = 0;
  for (std::size_t i = 0; i < f.pids.size(); ++i) fleet_cpu += cpu_seconds(f.pids[i]) - cpu0[i];
  std::size_t total_cycles = 0;
  for (const editor& e : editors) total_cycles += e.cycles.size();
  expected = total_cycles;
  subscriber.join();

  // Deltas: one per recheck, contiguous seq, counts equal to the recheck's.
  std::vector<double> recheck_ms, delta_ms, query_ms, push_ms, unattributed;
  for (editor& e : editors) {
    const std::vector<delta_seen>& ds = deltas[e.sub];
    res.check(ds.size() == e.cycles.size(), "delta count " + std::to_string(ds.size()) +
                                                " != rechecks " + std::to_string(e.cycles.size()));
    for (std::size_t k = 0; k < e.cycles.size(); ++k) {
      const cycle& cy = e.cycles[k];
      recheck_ms.push_back((cy.t_recheck - cy.t_edit) * 1e3);
      unattributed.push_back(cy.t_end - cy.t_edit - (cy.t_recheck - cy.t_edit) - cy.queries_ms * 1e-3);
      if (k >= ds.size()) continue;
      const delta_seen& dl = ds[k];
      long long want_fixed = cy.fixed + (o.wrong_expectation ? 1 : 0);
      res.check(dl.seq == ds.front().seq + k && !dl.gap &&
                    static_cast<long long>(dl.fixed) == want_fixed &&
                    static_cast<long long>(dl.added) == cy.added,
                "delta " + std::to_string(dl.seq) + " of session " + std::to_string(e.session));
      delta_ms.push_back((dl.t - cy.t_edit) * 1e3);
      push_ms.push_back((dl.t - cy.t_recheck) * 1e3);
    }
    query_ms.insert(query_ms.end(), e.query_ms.begin(), e.query_ms.end());
  }
  sub.close();

  // Stored keys at the end must equal a fresh full check of the edited layout.
  std::vector<std::vector<std::string>> stored;
  {
    serve::client c;
    c.connect(f.endpoint);
    for (const editor& e : editors) {
      stored.push_back(response_keys(
          c.request(serve::msg_type::query, e.session, window_args(k_plane) + " keys")));
    }
  }

  // Traced extras that need the live fleet.
  std::vector<double> ping_ms, leg_max, leg_mean, reconcile;
  if (o.trace) {
    serve::client c;
    c.connect(f.endpoint);
    for (int i = 0; i < 200; ++i) {
      const double t = now_s();
      (void)c.request(serve::msg_type::ping, 0);
      ping_ms.push_back((now_s() - t) * 1e3);
    }
    if (sharded) {
      // The same windowed check through the coordinator and straight to
      // each worker: the slowest leg, the mean leg, and what is left.
      std::vector<std::unique_ptr<serve::client>> legs;
      for (const std::string& ep : f.worker_endpoints) {
        legs.push_back(std::make_unique<serve::client>());
        legs.back()->connect(ep);
      }
      const editor& e = editors.front();
      for (std::size_t k = 0; k < std::min<std::size_t>(20, e.edits.size()); ++k) {
        const std::string w = window_args(e.edits[k].where.inflated(1000));
        double t = now_s();
        res.check(serve::client::ok(c.request(serve::msg_type::check_region, 1, w)),
                  "coord check_region");
        const double whole = (now_s() - t) * 1e3;
        std::vector<double> ms;
        for (auto& l : legs) {
          t = now_s();
          res.check(serve::client::ok(l->request(serve::msg_type::check_region, 1, w)),
                    "worker check_region");
          ms.push_back((now_s() - t) * 1e3);
        }
        const double mx = *std::max_element(ms.begin(), ms.end());
        leg_max.push_back(mx);
        leg_mean.push_back(mean(ms));
        reconcile.push_back(whole - mx);
      }
    }
  }
  double rss = 0;
  for (const pid_t p : f.pids) rss += peak_rss_mb(std::to_string(p));
  shutdown(f);

  for (std::size_t i = 0; i < editors.size(); ++i) {
    res.check(stored[i] == fresh_keys(d, deck, editors[i].edits),
              "stored keys of session " + std::to_string(editors[i].session) +
                  " differ from a fresh full check");
  }

  if (!o.trace) {
    res.timing("setup_s", setup, 0.5, "s");
    res.timing("recheck_ms.p50", recheck_ms, 0.5, "ms");
    res.timing("recheck_ms.p90", recheck_ms, 0.9, "ms");
    res.timing("delta_ms.p50", delta_ms, 0.5, "ms");
    res.timing("delta_ms.p90", delta_ms, 0.9, "ms");
    res.timing("query_ms.p50", query_ms, 0.5, "ms");
    res.timing("query_ms.p99", query_ms, 0.99, "ms");
    res.metric("edits_per_s", static_cast<double>(total_cycles) / loop_wall, "1/s");
    res.metric("peak_rss_mb", rss, "MB");
    return;
  }

  // In-process layer timings, after the fleet is gone so nothing competes:
  // the mmap boot, one full deck check, and editor 1's first ops replayed
  // through a session configured like the server's.
  auto& l = res.layer;
  engine_config par;
  par.run_mode = engine::mode::parallel;
  std::vector<double> boot_s;
  for (int i = 0; i < 3; ++i) {
    const double t = now_s();
    auto fs = engine::frozen_snapshot::load(d.snap);
    const db::library lib = fs->make_library();
    engine::layout_snapshot snap(lib, fs);
    boot_s.push_back(now_s() - t);
  }
  l["engine.snap_boot_s"] = median(boot_s);
  {
    auto fs = engine::frozen_snapshot::load(d.snap);
    const db::library lib = fs->make_library();
    engine::layout_snapshot snap(lib, fs);
    std::vector<engine::exec_plan> plans;
    for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
    drc_engine eng(par);
    const double t = now_s();
    const engine::deck_report dr = eng.check_deck(lib, plans, snap);
    engine_breakdown eb;
    eb.add(dr, plans, now_s() - t);
    eb.emit(res);
  }
  const editor& e = editors.front();
  const std::size_t n = std::min<std::size_t>(20, e.edits.size());
  std::vector<double> apply_s, recheck_s, socket_ms, local_ms, query_s;
  double windows = 0, fulls = 0;
  {
    auto fs = engine::frozen_snapshot::load(d.snap);
    serve::session s(fs, fs->make_library(), deck, par);
    (void)s.check_full();
    const device_counters before = device_counters::read();
    for (std::size_t k = 0; k < n; ++k) {
      double t = now_s();
      (void)s.apply(serve::parse_edit_script(e.edits[k].script));
      apply_s.push_back(now_s() - t);
      t = now_s();
      const serve::recheck_result r = s.recheck();
      recheck_s.push_back(now_s() - t);
      local_ms.push_back((apply_s.back() + recheck_s.back()) * 1e3);
      socket_ms.push_back((e.cycles[k].t_recheck - e.cycles[k].t_edit) * 1e3);
      windows += static_cast<double>(r.windows);
      fulls += r.full ? 1 : 0;
      for (const rect& w : edit_windows(e.edits[k].where)) {
        t = now_s();
        (void)s.query_stored(w);
        query_s.push_back(now_s() - t);
      }
    }
    emit_device(res, device_counters::read() - before);
  }
  l["serve.apply_s"] = median(apply_s);
  l["serve.recheck_s"] = median(recheck_s);
  l["serve.recheck_windows"] = n ? windows / static_cast<double>(n) : 0;
  l["serve.full_fallbacks"] = fulls;
  l["serve.ping_ms"] = median(ping_ms);
  l["serve.queue_ms"] = median(socket_ms) - median(local_ms);
  l["serve.push_ms"] = median(push_ms);
  l["report.query_s"] = median(query_s);
  l["coord.leg_ms.max"] = median(leg_max);
  l["coord.leg_ms.mean"] = median(leg_mean);
  l["coord.imbalance"] = mean(leg_mean) > 0 ? mean(leg_max) / mean(leg_mean) : 0;
  l["coord.reconcile_ms"] = median(reconcile);
  l["infra.cpu_per_wall"] = fleet_cpu / loop_wall;
  l["unattributed_s"] = median(unattributed);
  // The socket loop is timed the same way in both modes; the in-process
  // replays above run after it, so tracing adds nothing to it.
  l["trace_overhead_frac"] = 0;
  res.emit_layers(layers_serve);
}

// --- host fingerprint ---------------------------------------------------------------

std::string run_capture(const std::string& cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    ::pclose(p);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (c == '\n') continue;
    o += c;
  }
  return o;
}

/// CPU, nproc, SIMD tier (`odrc version`), compiler, build type, modeled
/// device constants and the seed, stamped into every result.
void print_fingerprint(const options& o) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string simd;
  std::istringstream ver(run_capture("'" + o.odrc + "' version"));
  for (std::string line; std::getline(ver, line);) {
    if (line.rfind("simd:", 0) == 0) simd = line;
  }
  const char* launch = std::getenv("ODRC_DEVICE_LAUNCH_NS");
  const char* gbps = std::getenv("ODRC_DEVICE_GBPS");
  std::printf(
      "# host {\"cpu\": \"%s\", \"nproc\": %ld, \"simd\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"ODRC_DEVICE_LAUNCH_NS\": \"%s\", \"ODRC_DEVICE_GBPS\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      json_escape(cpu).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN), json_escape(simd).c_str(),
      json_escape(__VERSION__).c_str(), ODRC_BENCH_BUILD_TYPE, launch ? launch : "default(8000)",
      gbps ? gbps : "default(12)", o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  for (const int sig : {SIGTERM, SIGINT, SIGHUP}) ::signal(sig, on_signal);
  result res;
  int rc = 0;
  try {
    const options o = parse_options(argc, argv);
    print_fingerprint(o);
    if (o.workload == "signoff" || o.workload == "signoff_par") {
      run_signoff(o, o.workload == "signoff_par", res);
    } else if (o.workload == "edit_loop" || o.workload == "edit_loop_sharded") {
      run_edit_loop(o, o.workload == "edit_loop_sharded", res);
    } else {
      throw std::runtime_error("unknown workload " + o.workload);
    }
    res.print();
    rc = res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    rc = 2;
  }
  kill_children(true);
  return rc;
}
