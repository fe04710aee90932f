// studybench: one run of one study-benchmark workload, in one process.
//
// studybench/run.py starts this binary once per repetition, so VmHWM is the
// peak of exactly one run of one workload. The process builds the workload's
// StudyConfig from (workload, seed), times each public phase of core::Study
// with a steady clock, checks packet conservation and probe accounting,
// digests the deterministic outputs (scan DB, Tables 4-8,
// metrics_prometheus()), and prints one JSON record as its last stdout line.
//
// With --trace 1 it also records spans (name, start, end, parent) around
// each call into a layer, reads obs counters at phase boundaries, times each
// scan shard through a dispatcher that runs the jobs Study builds, and writes
// the spans as Chrome trace JSON to --trace-out at exit. All of that lives
// in this file; nothing under src/ is instrumented for the benchmark.
//
// Usage: studybench --workload NAME --seed N [--trace 0|1] [--tiny]
//                   [--serial] [--trace-out FILE]
//   --tiny    self-test scale: every workload in about a second
//   --serial  scan_threads 1 and no fleet: the reference run whose digest a
//             parallel or fleet run of the same config must reproduce
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "classify/fingerprint.h"
#include "classify/misconfig_rules.h"
#include "core/reports.h"
#include "core/scan_shard.h"
#include "core/study.h"
#include "devices/population.h"
#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "obs/proc_stat.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "util/sha256.h"

#ifndef STUDYBENCH_BUILD_TYPE
#define STUDYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef STUDYBENCH_COMPILER
#define STUDYBENCH_COMPILER "unknown"
#endif

namespace {

using namespace ofh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// ------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  double population_denominator;
  unsigned scan_threads;
  unsigned scan_workers;
  double attack_scale;
  sim::Duration attack_duration;
  double telescope_rate_scale;
};

constexpr double kDefaultTelescopeRate = 1.0 / 4'000'000;

// README.md says why each workload exists and which layer it loads.
constexpr Workload kWorkloads[] = {
    {"scan_serial", 512, 1, 0, 1.0 / 32, sim::days(30), kDefaultTelescopeRate},
    {"scan_parallel", 256, 4, 0, 1.0 / 32, sim::days(30),
     kDefaultTelescopeRate},
    // attack_scale must stay <= 2 at this population: at 4,
    // Population::allocate_extra runs out of prefix space and spins.
    {"attack_month", 2048, 4, 0, 0.25, sim::days(30), 2.5e-5},
    {"scan_fleet", 256, 4, 4, 1.0 / 32, sim::days(30), kDefaultTelescopeRate},
};

core::StudyConfig make_config(const Workload& workload, std::uint64_t seed,
                              bool tiny, bool serial) {
  core::StudyConfig config;
  config.seed = seed;
  config.population_scale =
      1.0 / (tiny ? 16'384 : workload.population_denominator);
  config.attack_scale =
      tiny ? std::min(workload.attack_scale, 1.0 / 256) : workload.attack_scale;
  config.attack_duration = tiny
                               ? std::min(workload.attack_duration, sim::days(1))
                               : workload.attack_duration;
  config.telescope_rate_scale =
      tiny ? kDefaultTelescopeRate : workload.telescope_rate_scale;
  config.scan_threads = serial ? 1 : workload.scan_threads;
  config.scan_workers = serial ? 0 : workload.scan_workers;
  return config;
}

// Study constructions + setup_internet() calls measured per process before
// the measured study; setup_s is the median over every sample of a run.
constexpr int kSetupRepeats = 24;

// --------------------------------------------------------------- tracing

// Spans recorded from the benchmark's own code, kept in memory and written
// once at exit as Chrome trace JSON (loadable in Perfetto). A disabled
// tracer records nothing: that is the untraced run the end-to-end metrics
// come from.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span under `parent` (-1 = root) and returns its id, or -1 when
  // disabled. Concurrent shards pass their own lane (shard index + 1).
  int begin(std::string name, int parent, int lane = 0) {
    if (!enabled_) return -1;
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, lane, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id < 0) return;
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  bool write_chrome_json(const std::string& path) const {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\": [";
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.lane
            << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
            << ", \"dur\": "
            << static_cast<double>(span.end_ns - span.start_ns) / 1e3
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
            << "}}";
      }
    }
    out << "\n]}\n";
    std::ofstream file(path);
    file << out.str();
    return static_cast<bool>(file);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int lane;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Runs fn under a span and returns its wall time in seconds.
template <typename Fn>
double timed(Tracer& tracer, std::string name, int parent, Fn&& fn) {
  const int span = tracer.begin(std::move(name), parent);
  const auto start = Clock::now();
  fn();
  const double seconds = seconds_since(start);
  tracer.end(span);
  return seconds;
}

// ---------------------------------------------------------- obs counters

using Counters = std::map<std::string, std::int64_t>;

// Merged obs counter and gauge values. Read only at phase boundaries, after
// every shard thread has joined.
Counters read_counters() {
  Counters out;
  for (const auto& row : obs::Registry::global().snapshot()) {
    if (row.kind != obs::Kind::kHistogram) out[row.name] = row.value;
  }
  return out;
}

std::int64_t value_of(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// --------------------------------------------------------------- digests

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : digest) {
    out += kHex[byte >> 4];
    out += kHex[byte & 15];
  }
  return out;
}

template <typename T>
void feed(util::Sha256& sha, T value) {
  static_assert(std::is_integral_v<T>);
  std::array<std::uint8_t, sizeof(T)> bytes{};
  std::memcpy(bytes.data(), &value, sizeof value);
  sha.update(std::span<const std::uint8_t>(bytes));
}

// Every record field plus the probe accounting, in merged DB order.
std::string scan_db_digest(const scanner::ScanDb& db) {
  util::Sha256 sha;
  for (const auto& record : db.records()) {
    feed(sha, record.host.value());
    feed(sha, record.port);
    feed(sha, static_cast<std::uint8_t>(record.protocol));
    feed(sha, record.when);
    feed(sha, static_cast<std::uint64_t>(record.banner.size()));
    sha.update(std::string_view(record.banner));
  }
  for (const std::uint64_t count :
       {db.probes_sent(), db.responsive(), db.refused(), db.unresolved(),
        db.retries()}) {
    feed(sha, count);
  }
  return hex(sha.digest());
}

// ------------------------------------------------------------------ JSON

// Flat JSON object writer. Keys and strings are the benchmark's own ASCII
// names, so quotes and backslashes are the only characters to escape.
class Json {
 public:
  Json& num(std::string_view key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return raw(key, buffer);
  }
  Json& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& text(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  Json& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  std::string body_;
};

// ------------------------------------------------------- scan dispatchers

// What the dispatchers record while Study runs the shard batch.
struct ScanTimings {
  int parent_span = -1;  // the "scan" span, parent of the shard spans
  std::vector<std::string> shard_names;  // by job index
  std::vector<double> shard_s;           // by job index
  bool dispatched = false;
  unsigned workers = 0;
  double dist_start_s = 0;
  double dist_run_s = 0;
  std::uint64_t requeues = 0;
  std::uint64_t inline_runs = 0;
};

void prepare(ScanTimings& timings,
             const std::vector<core::ScanShardJob>& jobs) {
  timings.dispatched = true;
  timings.shard_s.assign(jobs.size(), 0.0);
  timings.shard_names.assign(jobs.size(), "");
  for (const core::ScanShardJob& job : jobs) {
    if (job.index < jobs.size()) {
      timings.shard_names[job.index] = proto::protocol_name(job.protocol);
    }
  }
}

// The traced in-process path: the same jobs, sink and ParallelRunner as
// Study's own backend, with each run_scan_shard call timed under a span.
std::vector<core::ScanShardResult> run_timed_shards(
    Tracer& tracer, ScanTimings& timings, const core::StudyConfig& config,
    const std::vector<core::ScanShardJob>& jobs,
    const core::ScanShardProgressSink& sink) {
  prepare(timings, jobs);
  std::vector<std::function<core::ScanShardResult()>> runs;
  runs.reserve(jobs.size());
  for (const core::ScanShardJob& job : jobs) {
    runs.emplace_back([&tracer, &timings, &config, &sink, job] {
      const int span =
          tracer.begin("shard." + timings.shard_names[job.index],
                       timings.parent_span, static_cast<int>(job.index) + 1);
      const auto start = Clock::now();
      core::ScanShardResult result = core::run_scan_shard(
          config, job, [&sink, &job](const core::ScanShardProgress& progress) {
            sink(job.index, progress);
          });
      timings.shard_s[job.index] = seconds_since(start);
      tracer.end(span);
      return result;
    });
  }
  return sim::ParallelRunner(config.scan_threads).run(std::move(runs));
}

// scan_fleet: the batch on forked dist::Coordinator workers, installed the
// way the distributed entry points install it. The coordinator process has
// no clock inside a worker, so a shard's time here is its completion time
// from the start of Coordinator::run (its kDone progress event).
std::optional<std::vector<core::ScanShardResult>> run_fleet_shards(
    Tracer& tracer, ScanTimings& timings, const core::StudyConfig& config,
    const std::vector<core::ScanShardJob>& jobs,
    const core::ScanShardProgressSink& sink) {
  prepare(timings, jobs);
  dist::CoordinatorOptions options;
  options.fork_workers = static_cast<unsigned>(
      std::min<std::size_t>(config.scan_workers, jobs.size()));
  options.wait_workers = options.fork_workers;
  timings.workers = options.fork_workers;
  dist::Coordinator coordinator(std::move(options));
  bool started = false;
  timings.dist_start_s =
      timed(tracer, "dist.start", timings.parent_span,
            [&] { started = coordinator.start(); });
  if (!started) {
    timings.dispatched = false;
    return std::nullopt;
  }
  const auto run_start = Clock::now();
  const core::ScanShardProgressSink timed_sink =
      [&](std::uint32_t index, const core::ScanShardProgress& progress) {
        if (progress.kind == core::ScanShardProgressKind::kDone &&
            index < timings.shard_s.size()) {
          timings.shard_s[index] = seconds_since(run_start);
        }
        sink(index, progress);
      };
  std::vector<core::ScanShardResult> results;
  timings.dist_run_s = timed(tracer, "dist.run", timings.parent_span, [&] {
    results = coordinator.run(config, jobs, timed_sink);
  });
  timings.requeues = coordinator.retry_ledger().size();
  timings.inline_runs = coordinator.inline_runs();
  coordinator.shutdown();
  return results;
}

// The dispatcher slot is process-wide; clear it before the state the
// installed lambda refers to goes away.
struct DispatcherReset {
  DispatcherReset() = default;
  DispatcherReset(const DispatcherReset&) = delete;
  DispatcherReset& operator=(const DispatcherReset&) = delete;
  ~DispatcherReset() { core::set_scan_shard_dispatcher({}); }
};

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  bool trace = false;
  bool tiny = false;
  bool serial = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      const std::string_view value = argv[++i];
      const auto [end, error] = std::from_chars(
          value.data(), value.data() + value.size(), args.seed);
      if (error != std::errc() || end != value.data() + value.size()) {
        return std::nullopt;
      }
    } else if (flag == "--trace" && has_value) {
      const std::string_view value = argv[++i];
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--serial") {
      args.serial = true;
    } else {
      return std::nullopt;
    }
  }
  return args;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const Workload* workload =
      args ? find_workload(args->workload) : nullptr;
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: studybench --workload "
                 "scan_serial|scan_parallel|attack_month|scan_fleet --seed N "
                 "[--trace 0|1] [--tiny] [--serial] [--trace-out FILE]\n");
    return 2;
  }

  const core::StudyConfig nominal =
      make_config(*workload, args->seed, args->tiny, args->serial);
  const bool fleet = nominal.scan_workers > 0;
  core::StudyConfig config = nominal;
  // Study consults a dispatcher only when scan_workers > 0, so the traced
  // in-process run sets it to hand the batch to run_timed_shards. The
  // output is the same bytes either way (core/scan_shard.h).
  if (args->trace && !fleet) config.scan_workers = 1;

  Tracer tracer(args->trace);
  ScanTimings timings;
  const DispatcherReset reset_dispatcher;
  if (fleet) {
    core::set_scan_shard_dispatcher(
        [&tracer, &timings](const core::StudyConfig& study_config,
                            const std::vector<core::ScanShardJob>& jobs,
                            const core::ScanShardProgressSink& sink) {
          return run_fleet_shards(tracer, timings, study_config, jobs, sink);
        });
  } else if (args->trace) {
    core::set_scan_shard_dispatcher(
        [&tracer, &timings](const core::StudyConfig& study_config,
                            const std::vector<core::ScanShardJob>& jobs,
                            const core::ScanShardProgressSink& sink)
            -> std::optional<std::vector<core::ScanShardResult>> {
          return run_timed_shards(tracer, timings, study_config, jobs, sink);
        });
  }

  Json layers;
  // devices: a standalone Population::build() of the study's spec, first in
  // the process so the resident-set growth is this build's alone.
  if (args->trace) {
    devices::PopulationSpec spec;
    spec.seed = config.seed;
    spec.scale = config.population_scale;
    devices::Population population(spec);
    const std::uint64_t rss_before = obs::read_proc_memory().rss_bytes;
    const double build_s =
        timed(tracer, "devices.build", -1, [&] { population.build(); });
    const std::uint64_t rss_after = obs::read_proc_memory().rss_bytes;
    const double grown =
        rss_after > rss_before ? static_cast<double>(rss_after - rss_before)
                               : 0.0;
    layers.num("devices.build_s", build_s)
        .num("devices.bytes_per_host",
             ratio(grown, static_cast<double>(population.size())));
  }

  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    core::Study study(config);
    study.setup_internet();
    setup_samples.push_back(seconds_since(start));
  }

  // ------------------------------------------------ the measured study
  const int study_span = tracer.begin("study", -1);
  const auto study_start = Clock::now();
  std::unique_ptr<core::Study> study;
  setup_samples.push_back(timed(tracer, "setup", study_span, [&] {
    study = std::make_unique<core::Study>(config);
    study->setup_internet();
  }));

  Counters before_scan;
  Counters after_scan;
  Counters before_attack;
  Counters after_attack;
  if (args->trace) before_scan = read_counters();
  timings.parent_span = tracer.begin("scan", study_span);
  const auto scan_start = Clock::now();
  study->run_scan();
  const double scan_s = seconds_since(scan_start);
  tracer.end(timings.parent_span);
  if (args->trace) after_scan = read_counters();

  const double datasets_s =
      timed(tracer, "datasets", study_span, [&] { study->run_datasets(); });

  if (args->trace) before_attack = read_counters();
  const std::uint64_t events_before_attack = study->sim().events_processed();
  const double attack_s = timed(tracer, "attack_month", study_span,
                                [&] { study->run_attack_month(); });
  const std::uint64_t attack_events =
      study->sim().events_processed() - events_before_attack;
  if (args->trace) after_attack = read_counters();

  const double correlate_s =
      timed(tracer, "correlate", study_span, [&] { study->correlate(); });

  // The export step: everything a full report renders.
  std::vector<std::string> tables;
  std::string prometheus;
  std::string trace_json;
  std::string chains;
  const int export_span = tracer.begin("export", study_span);
  const auto export_start = Clock::now();
  timed(tracer, "export.tables", export_span, [&] {
    tables = {core::report_table4_exposed(*study),
              core::report_table5_misconfigured(*study),
              core::report_table6_honeypots(*study),
              core::report_table7_attacks(*study),
              core::report_table8_telescope(*study)};
  });
  timed(tracer, "export.prometheus", export_span,
        [&] { prometheus = study->metrics_prometheus(); });
  timed(tracer, "export.trace_json", export_span,
        [&] { trace_json = study->trace_json(); });
  timed(tracer, "export.attack_chains", export_span,
        [&] { chains = study->attack_chains(); });
  const double export_s = seconds_since(export_start);
  tracer.end(export_span);
  const double study_s = seconds_since(study_start);
  tracer.end(study_span);

  // Peak memory of this process; scan_fleet adds its workers, each counted
  // at the largest worker's peak (RUSAGE_CHILDREN keeps only the maximum),
  // which bounds the fleet's footprint from above.
  double peak_rss_mb =
      static_cast<double>(obs::read_proc_memory().vm_hwm_bytes) /
      (1024.0 * 1024.0);
  double worker_rss_mb = 0;
  if (fleet) {
    rusage usage{};
    if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
      worker_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
    }
    peak_rss_mb += worker_rss_mb * timings.workers;
  }

  // ----------------------------------------------------------- checks
  const Counters final_counters = read_counters();
  const scanner::ScanDb& db = study->scan_db();
  const std::uint64_t probes = db.probes_sent();
  const std::uint64_t attack_log_size = study->attack_log().size();
  const std::uint64_t telescope_packets = study->scope().total_packets();
  const std::uint64_t captures = attack_log_size + telescope_packets;
  Json checks;
  checks
      .flag("packets_conserved",
            value_of(final_counters, "fabric.packets_sent") ==
                value_of(final_counters, "fabric.packets_delivered") +
                    value_of(final_counters, "fabric.packets_dropped") +
                    value_of(final_counters, "fabric.packets_faulted") +
                    value_of(final_counters, "fabric.packets_inflight"))
      .flag("probes_accounted",
            probes > 0 &&
                probes == db.responsive() + db.refused() + db.unresolved())
      .flag("probes_counted",
            value_of(final_counters, "scanner.probes_sent") ==
                static_cast<std::int64_t>(probes))
      .flag("attack_events_counted",
            value_of(final_counters, "honeynet.events") ==
                static_cast<std::int64_t>(attack_log_size))
      .flag("captures_counted",
            value_of(final_counters, "telescope.packets") ==
                static_cast<std::int64_t>(telescope_packets))
      .flag("attack_captured", captures > 0);
  if (fleet) {
    checks.flag("fleet_ran_every_shard",
                timings.dispatched && timings.inline_runs == 0);
  }

  std::string all_tables;
  for (const std::string& table : tables) {
    all_tables += table;
    all_tables += '\f';
  }
  const std::string scan_digest = scan_db_digest(db);
  const std::string tables_digest = util::Sha256::hex_digest(all_tables);
  const std::string metrics_digest = util::Sha256::hex_digest(prometheus);
  Json digest;
  digest.text("scan_db", scan_digest)
      .text("tables", tables_digest)
      .text("prometheus", metrics_digest)
      .text("all", util::Sha256::hex_digest(scan_digest + tables_digest +
                                            metrics_digest));

  // ------------------------------------------------- per-layer metrics
  if (args->trace) {
    double critical_path = 0;
    double scan_work = 0;
    for (std::size_t i = 0; i < timings.shard_s.size(); ++i) {
      layers.num("core.shard_s." + timings.shard_names[i],
                 timings.shard_s[i]);
      critical_path = std::max(critical_path, timings.shard_s[i]);
      scan_work += timings.shard_s[i];
    }
    const double mean_shard =
        ratio(scan_work, static_cast<double>(timings.shard_s.size()));
    std::uint64_t export_bytes = prometheus.size() + trace_json.size() +
                                 chains.size();
    for (const std::string& table : tables) export_bytes += table.size();
    layers.num("core.scan_critical_path_s", critical_path)
        .num("core.scan_work_s", scan_work)
        .num("core.scan_imbalance", ratio(critical_path, mean_shard))
        .num("core.scan_overhead_s", scan_s - critical_path)
        .num("core.datasets_s", datasets_s)
        .num("core.correlate_s", correlate_s)
        .num("core.export_s", export_s)
        .count("core.export_bytes", export_bytes);

    const auto scan_delta = [&](const std::string& name) {
      return static_cast<double>(value_of(after_scan, name) -
                                 value_of(before_scan, name));
    };
    const double probes_d = static_cast<double>(probes);
    const double shard_events = static_cast<double>(study->scan_events());
    const double connects = scan_delta("tcp.connects");
    layers.count("scanner.probes", probes)
        .count("scanner.records", db.size())
        .num("scanner.banner_grabs", scan_delta("scanner.banner_grabs"))
        .num("scanner.ns_per_probe", ratio(scan_work * 1e9, probes_d))
        .num("scanner.hit_ratio",
             ratio(static_cast<double>(db.responsive()), probes_d))
        .num("sim.events", shard_events)
        .num("sim.events_per_probe", ratio(shard_events, probes_d))
        .num("sim.ns_per_event", ratio(scan_work * 1e9, shard_events))
        .count("sim.attack_events", attack_events)
        .num("net.packets_per_probe",
             ratio(scan_delta("fabric.packets_sent"), probes_d))
        .num("tcp.connects", connects)
        .num("tcp.connects_refused", scan_delta("tcp.connects_refused"))
        .num("net.tcp_timeout_ratio",
             ratio(scan_delta("tcp.connect_timeouts"), connects))
        .num("net.attack_packets",
             static_cast<double>(
                 value_of(after_attack, "fabric.packets_sent") -
                 value_of(before_attack, "fabric.packets_sent")))
        .count("devices.materialized",
               study->population().materialized_count());

    // classify: timed calls on the finished scan DB.
    std::vector<classify::MisconfigFinding> findings;
    classify::FingerprintResult fingerprints;
    const double classify_s = timed(tracer, "classify.classify_all", -1, [&] {
      findings = classify::classify_all(db);
    });
    const double fingerprint_s =
        timed(tracer, "classify.fingerprint_all", -1,
              [&] { fingerprints = classify::fingerprint_all(db); });
    const double filter_s = timed(tracer, "classify.filter_honeypots", -1, [&] {
      findings = classify::filter_honeypots(std::move(findings), fingerprints);
    });
    layers.num("classify.classify_s", classify_s)
        .num("classify.fingerprint_s", fingerprint_s)
        .num("classify.filter_s", filter_s)
        .count("classify.findings", study->findings().size())
        .count("honeynet.events", attack_log_size)
        .count("telescope.packets", telescope_packets)
        .num("telescope.flowtuples",
             static_cast<double>(
                 value_of(final_counters, "telescope.flowtuples")))
        .num("attack.ns_per_capture",
             ratio(attack_s * 1e9, static_cast<double>(captures)))
        .count("obs.trace_recorded",
               obs::TraceRegistry::global().events_recorded())
        .count("obs.trace_dropped",
               obs::TraceRegistry::global().events_dropped())
        .num("dist.start_s", timings.dist_start_s)
        .num("dist.run_s", timings.dist_run_s)
        .count("dist.requeues", timings.requeues)
        .count("dist.inline_runs", timings.inline_runs)
        .num("dist.worker_rss_mb", worker_rss_mb);
  }

  // ----------------------------------------------------------- record
  Json provenance;
  provenance.text("build_type", STUDYBENCH_BUILD_TYPE)
      .text("compiler", STUDYBENCH_COMPILER)
      .count("nproc", std::thread::hardware_concurrency())
      .count("scan_threads", nominal.scan_threads)
      .count("scan_workers", nominal.scan_workers)
      .num("population_scale", nominal.population_scale)
      .num("attack_scale", nominal.attack_scale)
      .num("attack_days", static_cast<double>(nominal.attack_duration) /
                              static_cast<double>(sim::days(1)))
      .num("telescope_rate_scale", nominal.telescope_rate_scale)
      .count("hosts", study->population().total_devices());
  std::string samples = "[";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%s%.17g", i == 0 ? "" : ", ",
                  setup_samples[i]);
    samples += buffer;
  }
  samples += "]";

  Json record;
  record.text("workload", workload->name)
      .count("seed", args->seed)
      .flag("traced", args->trace)
      .flag("tiny", args->tiny)
      .flag("serial", args->serial)
      .raw("provenance", provenance.str())
      .raw("setup_samples", samples)
      .num("study_s", study_s)
      .num("scan_s", scan_s)
      .num("attack_s", attack_s)
      .num("peak_rss_mb", peak_rss_mb)
      .count("probes", probes)
      .count("events", study->sim().events_processed() + study->scan_events())
      .count("captures", captures)
      .raw("checks", checks.str())
      .raw("digest", digest.str());
  if (args->trace) record.raw("layers", layers.str());

  if (args->trace && !args->trace_out.empty() &&
      !tracer.write_chrome_json(args->trace_out)) {
    std::fprintf(stderr, "studybench: cannot write %s\n",
                 args->trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", record.str().c_str());
  return 0;
}
