// perfbench: the repository benchmark. One run = one workload, one seed:
//
//   perfbench --workload <tpch_warm|flights_dashboard|extract_refresh>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Set-up imports the workload's tables three times (setup_s is the median
// import time); after each import it saves, reopens lazily, runs one cold
// pass and appends. --trace 0 then runs the closed loop for --seconds (on
// tpch_warm and flights_dashboard in phases, with one more extract round
// between two phases) and prints every end-to-end metric; --trace 1 runs a
// separate traced pass set with the engine's trace recorder on and prints
// every per-layer metric. Human-readable lines come first; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
//
// Diagnostics (never part of a measured run):
//   --disable enable_x,enable_y   clear StrategicOptions kill switches in
//                                 every measured ExecuteSql call
//   --corrupt-expected            perturb one expected answer (self-test)
//   --sf / --flights-rows / --rounds   shrink the inputs (self-test)
//   --selftest                    check the answer comparison itself

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/observe/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using tde::Status;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Restarts the kernel's peak-resident-set mark (VmHWM) at the current
/// resident set, after handing freed heap back to the system.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

/// A kB field of /proc/self/status in MB (0 if absent): VmHWM is the peak
/// resident set since the last ResetPeakRss, VmRSS the current one.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string TailNote(const Tail& t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p%.1f, %zu beyond, n=%zu in %zu window(s)",
                t.percentile, t.beyond, t.n, t.windows);
  return buf;
}

struct LoopResult {
  Latencies queries;
  std::vector<double> ops_ms;
  std::vector<Round> rounds;
  double seconds = 0;
  double peak_rss_mb = 0;  // VmHWM over the phases (RunPhases)
  void Merge(LoopResult&& part) {
    queries.Merge(part.queries);
    ops_ms.insert(ops_ms.end(), part.ops_ms.begin(), part.ops_ms.end());
    for (Round& r : part.rounds) rounds.push_back(std::move(r));
  }
};

/// Runs `w.op` from `w.clients` threads, each on its own engine and
/// starting a new op only while less than `seconds` have passed (closed
/// loop, no think time). `next_op` numbers the ops across calls.
LoopResult RunLoop(const Workload& w, double seconds,
                   std::atomic<uint64_t>* next_op,
                   std::atomic<uint64_t>* next_id) {
  std::vector<LoopResult> per(static_cast<size_t>(w.clients));
  const auto t0 = Clock::now();
  auto client = [&](size_t c) {
    const tde::Engine* engine = c < w.engines.size() ? w.engines[c] : nullptr;
    LoopResult* mine = &per[c];
    while (SecondsSince(t0) < seconds) {
      const uint64_t i = next_op->fetch_add(1);
      mine->ops_ms.push_back(w.op(engine, i, next_id->fetch_add(1),
                                  &mine->queries, &mine->rounds));
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < per.size(); ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& t : threads) t.join();
  LoopResult out;
  for (LoopResult& r : per) out.Merge(std::move(r));
  return out;
}

/// The measured loop: RunLoop for `seconds` in all. With `w.phase_s` set,
/// the loop runs in phases of that length, and between two phases, with
/// every client idle, it runs one extract round (import, then one reopen)
/// whose figures join `rounds`. The extract figures are then sampled over
/// the whole run like the statement latencies, not only in set-up. A round
/// is not an op and its cold statements are not in `queries`; the peak
/// resident set is read before and restarted after it, so it does not
/// count in `peak_rss_mb` (extract_refresh measures a round's memory).
LoopResult RunPhases(const Workload& w, const Options& o, Checker* checker,
                     double seconds, std::atomic<uint64_t>* next_id) {
  std::atomic<uint64_t> next_op{0};
  LoopResult out;
  double peak_mb = 0;
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < seconds) {
    const double left = seconds - SecondsSince(t0);
    out.Merge(RunLoop(w, w.phase_s > 0 ? std::min(left, w.phase_s) : left,
                      &next_op, next_id));
    if (w.phase_s <= 0 || SecondsSince(t0) >= seconds) break;
    peak_mb = std::max(peak_mb, StatusMb("VmHWM"));
    {  // the round's engine is gone before the peak is restarted
      tde::Result<Round> r = RunRound(w.data, w.cold_pass, w.budget_bytes, 1,
                                      o, checker, next_id->fetch_add(1));
      if (r.ok()) {
        out.rounds.push_back(r.MoveValue());
        out.rounds.back().warm = tde::Engine();  // keep the figures
      } else {
        checker->tally()->Record(false);
        std::fprintf(stderr, "perfbench: extract round failed: %s\n",
                     r.status().ToString().c_str());
      }
    }
    ResetPeakRss();
  }
  out.seconds = SecondsSince(t0);
  out.peak_rss_mb = std::max(peak_mb, StatusMb("VmHWM"));
  return out;
}

/// The extract figures of a run: the imports of its extract rounds and
/// every reopen, whether of a round or of the loop.
struct ExtractSamples {
  std::vector<double> import_s, parse_s, encode_s;
  std::vector<Round::Reopen> reopens;
  uint64_t text_bytes = 0, file_bytes = 0;
};

/// The imports of the set-up and loop rounds, and the reopens of the loop
/// rounds plus, when the set-up reopens ran under the loop's cache budget
/// (all but extract_refresh), those of set-up.
ExtractSamples Gather(const Workload& w, const std::vector<Round>& setup,
                      const std::vector<Round>& loop) {
  ExtractSamples out;
  for (const auto* rounds : {&setup, &loop}) {
    for (const Round& r : *rounds) {
      out.import_s.push_back(r.import_s);
      out.parse_s.push_back(r.parse_s);
      out.encode_s.push_back(r.encode_s);
      out.text_bytes = r.text_bytes;
      if (rounds == &setup && w.refresh) continue;
      out.reopens.insert(out.reopens.end(), r.reopens.begin(),
                         r.reopens.end());
      if (!r.reopens.empty()) out.file_bytes = r.file_bytes;
    }
  }
  return out;
}

/// Median over every reopen.
template <typename Fn>
double MedianOfReopens(const ExtractSamples& x, Fn&& fn) {
  std::vector<double> v;
  for (const Round::Reopen& r : x.reopens) v.push_back(fn(r));
  return Median(v);
}

void AddExtractMetrics(const Workload& w, const ExtractSamples& x,
                       Report* report) {
  using X = const Round::Reopen&;
  report->Add("extract_mb_per_s",
              static_cast<double>(x.text_bytes) / 1e6 /
                  (Median(x.import_s) +
                   MedianOfReopens(x, [](X r) { return r.save_s; })),
              "MB/s");
  report->Add("bytes_per_input_byte",
              static_cast<double>(x.file_bytes) /
                  static_cast<double>(x.text_bytes),
              "B/B");
  report->Add("cold_query_s",
              MedianOfReopens(x, [](X r) { return r.open_s + r.pass_s; }),
              "s");
  report->Add("append_rows_per_s", MedianOfReopens(x, [&](X r) {
                return static_cast<double>(kAppendBatches *
                                           w.data.append_rows) /
                       r.append_s;
              }), "1/s");
}

/// Times `cycles` interleaved passes of the cold-pass statements on the
/// first client's engine in three modes: stats on, stats on with the trace
/// recorder on, stats off (rotating the order). Returns the median ms per
/// statement of each mode.
std::array<double, 3> InterleavedModes(const Workload& w, const Options& o,
                                       Checker* checker,
                                       std::atomic<uint64_t>* next_id,
                                       int cycles) {
  auto& recorder = tde::observe::TraceRecorder::Global();
  std::array<std::vector<double>, 3> per_mode;
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < 3; ++k) {
      const int mode = (c + k) % 3;
      tde::observe::SetStatsEnabled(mode != 2);
      recorder.set_enabled(mode == 1);
      const uint64_t id = next_id->fetch_add(1);
      double ms = 0;
      for (const Statement& s : w.cold_pass) {
        ms += RunChecked(*w.engines[0], s, o.strategic, checker, id);
      }
      per_mode[mode].push_back(ms / static_cast<double>(w.cold_pass.size()));
    }
  }
  tde::observe::SetStatsEnabled(true);
  recorder.set_enabled(false);
  return {Median(per_mode[0]), Median(per_mode[1]), Median(per_mode[2])};
}

Status Traced(Workload& w, const Options& o, const std::vector<Round>& setup,
              Checker* checker, std::atomic<uint64_t>* next_id,
              Report* report) {
  // The workload's own loop with spans on, for half the run: queue wait
  // under the workload's concurrency, and (extract_refresh) its cycles.
  auto& recorder = tde::observe::TraceRecorder::Global();
  recorder.set_enabled(true);
  auto& registry = tde::observe::MetricsRegistry::Global();
  auto* queue_wait = registry.GetHistogram("scheduler.queue_wait_us");
  auto* tasks_run = registry.GetCounter("scheduler.tasks_run");
  const uint64_t wait_before = queue_wait->sum();
  const uint64_t tasks_before = tasks_run->value();
  const LoopResult loop = RunPhases(w, o, checker, o.seconds / 2, next_id);
  const double ops =
      static_cast<double>(std::max<size_t>(1, loop.ops_ms.size()));
  const double wait_us = static_cast<double>(queue_wait->sum() - wait_before);
  const double tasks = static_cast<double>(tasks_run->value() - tasks_before);

  LayerFigures layers;
  TDE_RETURN_NOT_OK(LayerPasses(*w.engines[0], w.statements, 3, o, checker,
                                next_id, &layers));
  report->Add("sql.parse_us", Median(layers.parse_us), "us");
  report->Add("plan.strategic_us", Median(layers.strategic_us), "us");
  report->Add("plan.lower_us", Median(layers.lower_us), "us");
  report->Add("core.unattributed_us", Median(layers.unattributed_us), "us");
  report->Add("core.front_end_share", layers.front_end_s / layers.execute_sql_s,
              "ratio");
  report->Add("exec.run_ms", Median(layers.run_ms_per_pass), "ms");
  for (const std::string& kind : OperatorKinds()) {
    report->Add("exec.self_ms." + kind, Median(layers.self_ms_per_pass[kind]),
                "ms");
  }
  report->Add("exec.scan_rows", layers.scan_rows, "count");
  report->Add("exec.join_probe_rows", layers.join_probe_rows, "count");
  report->Add("exec.result_rows", layers.result_rows, "count");
  for (const std::string& name : PathCounterNames()) {
    report->Add(name, layers.counters[name],
                name == "scan.bytes_decoded" ? "B" : "count");
  }
  // Per operation of the loop; the wait is 0 when no task reaches a worker.
  report->Add("scheduler.queue_wait_us", wait_us / ops, "us");
  report->Add("scheduler.tasks_run", tasks / ops, "count");

  const int cycles = w.dataset == "flights" ? 12 : 4;
  const auto modes = InterleavedModes(w, o, checker, next_id, cycles);
  report->Add("observe.stats_on_off_ratio", modes[0] / modes[2], "ratio");
  report->Add("observe.trace_overhead_ms", modes[1] - modes[0], "ms");

  // The decode matrix covers every stored column of the workloads, so it
  // loads the other dataset too.
  Dataset other;
  TDE_RETURN_NOT_OK(MakeDataset(w.other_dataset, o, &other));
  tde::Engine other_engine;
  TDE_RETURN_NOT_OK(ImportAll(other, &other_engine, 0).status());
  const auto matrix = DecodeMatrix({w.engines[0], &other_engine}, 3);
  for (const std::string& cell : DecodeCellNames()) {
    auto it = matrix.find(cell);
    const DecodeCell d = it == matrix.end() ? DecodeCell{} : it->second;
    std::printf("decode %-34s %8.3f ns/row over %llu rows\n", cell.c_str(),
                d.ns, static_cast<unsigned long long>(d.rows));
    report->Add("encoding.decode_ns_per_row." + cell, d.ns, "ns/row");
  }
  for (const auto& [key, d] : matrix) {
    if (std::find(DecodeCellNames().begin(), DecodeCellNames().end(), key) ==
        DecodeCellNames().end()) {
      std::printf("decode %-34s %8.3f ns/row over %llu rows (not listed)\n",
                  key.c_str(), d.ns, static_cast<unsigned long long>(d.rows));
    }
  }
  for (const auto& [enc, n] : EncodingChoices(*w.engines[0])) {
    report->Add("encoding.columns." + enc, n, "count");
  }

  const ExtractSamples x = Gather(w, setup, loop.rounds);
  using X = const Round::Reopen&;
  report->Add("textscan.parse_s", Median(x.parse_s), "s");
  report->Add("flow_table.encode_s", Median(x.encode_s), "s");
  report->Add("storage.save_s",
              MedianOfReopens(x, [](X r) { return r.save_s; }), "s");
  report->Add("storage.open_ms",
              MedianOfReopens(x, [](X r) { return r.open_s * 1e3; }), "ms");
  report->Add("storage.append_ms",
              MedianOfReopens(x, [](X r) { return r.append_s * 1e3; }), "ms");
  for (const std::string& name : PagerCounterNames()) {
    report->Add(name, MedianOfReopens(x, [&](X r) {
                  return r.pager.at(name);
                }), name == "pager.bytes_read" ? "B" : "count");
  }
  std::printf("# traced loop: %zu ops in %.2f s; layer passes over %zu "
              "statements; front end %.1f%% of ExecuteSql time\n",
              loop.ops_ms.size(), loop.seconds, w.statements.size(),
              100 * layers.front_end_s / layers.execute_sql_s);
  return Status::OK();
}

bool SelfTest() {
  auto answer = [](double d, const char* text) {
    Answer a;
    a.rows.push_back({Answer::Cell{true, d, ""}, Answer::Cell{false, 0, text}});
    return a;
  };
  std::string why;
  bool ok = SameAnswer(answer(1.0, "x"), answer(1.0 + 1e-12, "x"), &why) &&
            !SameAnswer(answer(1.0, "x"), answer(1.0 + 1e-7, "x"), &why) &&
            !SameAnswer(answer(1.0, "x"), answer(1.0, "y"), &why) &&
            SameAnswer(answer(NAN, "x"), answer(NAN, "x"), &why) &&
            !SameAnswer(answer(1.0, "x"), Answer{}, &why);
  const Tail t = TailOf(std::vector<double>(100, 1.0));
  ok = ok && t.beyond == 10 && t.percentile == 90.0;
  std::printf("selftest %s\n", ok ? "ok" : "FAILED");
  return ok;
}

int Run(const Options& o) {
  std::error_code ec;
  std::filesystem::create_directories(o.tmpdir, ec);
  Tally tally;
  Checker checker(&tally);
  std::atomic<uint64_t> next_id{1};

  Workload w;
  Status st = MakeWorkload(o, &checker, &w);
  if (st.ok()) st = MakeDataset(w.dataset, o, &w.data);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  const int rounds = std::max(o.rounds, w.clients);

  // Set-up: the extract rounds. Round 0 runs with the engine's default
  // cache budget, so its residency after the cold pass is the query set's
  // working set; the reference answers are computed on its warm engine.
  // The last `clients` rounds keep their warm engines, one per client.
  // The tables' text is generated once, written to files that every import
  // reads back, and removed when the run ends. extract_refresh's later
  // set-up rounds skip the reopen: its reopen figures come from the loop.
  class RemoveAtExit {
   public:
    explicit RemoveAtExit(Dataset* data) : data_(data) {}
    ~RemoveAtExit() { RemoveTextFiles(data_); }
    RemoveAtExit(const RemoveAtExit&) = delete;
    RemoveAtExit& operator=(const RemoveAtExit&) = delete;

   private:
    Dataset* data_;
  } remove_text(&w.data);
  st = WriteTextFiles(o.tmpdir + "/text-" + o.workload + "-" +
                          std::to_string(o.seed),
                      &w.data);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<Round> setup;
  for (int r = 0; r < rounds; ++r) {
    auto prepare = [&](const tde::Engine& e) -> Status {
      TDE_RETURN_NOT_OK(checker.Prepare(e, w.statements));
      if (o.corrupt_expected) checker.Corrupt(w.cold_pass[0].sql);
      return Status::OK();
    };
    tde::Result<Round> round = RunRound(
        w.data, w.cold_pass,
        r == 0 ? tde::OpenDatabaseOptions{}.cache_budget_bytes : w.budget_bytes,
        w.refresh && r > 0 ? 0 : 1, o, &checker, next_id.fetch_add(1),
        r == 0 ? std::function<Status(const tde::Engine&)>(prepare) : nullptr);
    if (!round.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   round.status().ToString().c_str());
      return 1;
    }
    setup.push_back(round.MoveValue());
    if (r + w.clients < rounds) setup.back().warm = tde::Engine();  // figures
  }
  for (int c = 0; c < w.clients; ++c) {
    w.engines.push_back(&setup[static_cast<size_t>(rounds - 1 - c)].warm);
  }
  std::vector<double> setup_imports;
  for (const Round& r : setup) setup_imports.push_back(r.import_s);
  const double setup_s = Median(setup_imports);

  std::printf(
      "# stamp workload=%s seed=%llu trace=%d nproc=%u workers=%d "
      "build=%s compiler=\"%s\" sf=%g flights_rows=%llu text_mb=%.1f "
      "append_rows=%llu clients=%d cache_budget_mb=%.1f working_set_mb=%.1f "
      "setup_rounds=%d disabled=\"%s\"\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      w.engines[0]->scheduler().workers(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, o.sf, static_cast<unsigned long long>(o.flights_rows),
      static_cast<double>(setup[0].text_bytes) / 1e6,
      static_cast<unsigned long long>(w.data.append_rows), w.clients,
      static_cast<double>(w.budget_bytes) / (1 << 20),
      static_cast<double>(setup[0].resident_bytes) / (1 << 20), rounds,
      o.disabled.c_str());

  Report report;
  if (!o.trace) {
    // peak_rss_mb covers the measured loop on the engine's defaults: drop
    // what only set-up needed (the loop's own inputs stay), then restart
    // the kernel's high-water mark.
    if (w.refresh) {
      w.engines.clear();
      for (Round& r : setup) r.warm = tde::Engine();
    }
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "perfbench: cannot reset the peak RSS mark\n");
      return 1;
    }
    const double rss_at_start = StatusMb("VmRSS");
    const LoopResult loop = RunPhases(w, o, &checker, o.seconds, &next_id);
    const Tail qt = WindowedTail(loop.queries.all);
    const Tail it = WindowedTail(loop.ops_ms);
    report.Add("setup_s", setup_s, "s");
    report.Add("peak_rss_mb", loop.peak_rss_mb, "MB");
    // Statements per second of statement time: the benchmark's own answer
    // checks between statements do not count against the engine.
    double busy_ms = 0;
    for (double ms : loop.queries.all) busy_ms += ms;
    report.Add("queries_per_s",
               static_cast<double>(loop.queries.all.size()) * w.clients /
                   (busy_ms / 1e3),
               "1/s");
    report.Add("query_p50_ms", loop.queries.MedianOfMedians(), "ms");
    double query_tail = qt.value;
    if (w.refresh) {
      std::vector<double> slowest;
      for (const Round& r : loop.rounds) {
        slowest.push_back(0);
        for (const auto& [shape, ms] : r.cold_ms) {
          slowest.back() = std::max(slowest.back(), ms);
        }
      }
      query_tail = Median(slowest);
    }
    report.Add("query_tail_ms", query_tail, "ms");
    report.Add("geomean_query_ms", loop.queries.GeoMeanOfMedians(), "ms");
    report.Add("interaction_p50_ms", Median(loop.ops_ms), "ms");
    report.Add("interaction_tail_ms", it.value, "ms");
    const ExtractSamples x = Gather(w, setup, loop.rounds);
    AddExtractMetrics(w, x, &report);
    std::printf("# samples: %zu statements, %zu ops in %.2f s; query_tail "
                "%s; interaction_tail %s; extract imports %zu (%zu in the "
                "loop), reopens %zu; resident %.1f MB when the loop started\n",
                loop.queries.all.size(), loop.ops_ms.size(), loop.seconds,
                w.refresh ? "per cycle" : TailNote(qt).c_str(),
                TailNote(it).c_str(), x.import_s.size(), loop.rounds.size(),
                x.reopens.size(), rss_at_start);
    for (const auto& [shape, ms] : loop.queries.by_shape) {
      std::printf("# %-14s median %9.3f ms over n=%zu\n", shape.c_str(),
                  Median(ms), ms.size());
    }
  } else {
    st = Traced(w, o, setup, &checker, &next_id, &report);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (!o.spans_path.empty()) {
      const auto& recorder = tde::observe::TraceRecorder::Global();
      st = recorder.WriteChromeJson(o.spans_path);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("# %zu spans written to %s\n", recorder.size(),
                  o.spans_path.c_str());
    }
  }

  const uint64_t attempted = tally.attempted.load();
  const uint64_t failed = tally.failed.load();
  std::printf("failed_op_share %.6f (%llu of %llu checks)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : report.metrics) {
    std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--sf") {
      o.sf = std::atof(value().c_str());
    } else if (a == "--flights-rows") {
      o.flights_rows = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--rounds") {
      o.rounds = std::max(2, std::atoi(value().c_str()));
    } else if (a == "--tmpdir") {
      o.tmpdir = value();
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--disable") {
      o.disabled = value();
      size_t start = 0;
      while (start <= o.disabled.size()) {
        const size_t end = std::min(o.disabled.find(',', start),
                                    o.disabled.size());
        const std::string name = o.disabled.substr(start, end - start);
        if (!perfbench::DisableSwitch(name, &o.strategic)) {
          std::fprintf(stderr, "perfbench: unknown switch '%s'\n",
                       name.c_str());
          return 2;
        }
        start = end + 1;
      }
    } else if (a == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else if (a == "--selftest") {
      return perfbench::SelfTest() ? 0 : 1;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  return perfbench::Run(o);
}
