// Query throughput on the imported TPC-H tables: the five queries the
// engine's analytic subset expresses (Q1, Q3, Q4-lite, Q6, Q12), run
// through the SQL frontend and the full strategic/tactical optimizer.
// Not a paper figure — a downstream-user sanity benchmark over the whole
// stack (import, encodings, joins, aggregation).
//
// A second section times decode per encoding x type: ns/row of
// EncodedStream::Get in block-sized calls over every stored stream of the
// imported tables (each segment of a segmented column on its own).
// ci/check_bench.sh gates on its ratios to frame-of-reference integers.
//
// With --json (or TDE_BENCH_JSON=1), archives per-query timings, the
// per-operator runtime profile and the decode cells as BENCH_tpch.json.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/observe/query_stats.h"
#include "src/storage/segment/segmented_stream.h"
#include "src/workload/tpch_queries.h"

namespace tde {
namespace {

/// The stored streams of one encoding x type cell.
struct DecodeCell {
  std::vector<std::shared_ptr<const EncodedStream>> streams;
  uint64_t rows = 0;
};

/// Groups every stored stream of the engine's tables by
/// "<encoding>.<type>"; segmented columns contribute each sealed segment.
Status CollectDecodeCells(const Engine& engine,
                          std::map<std::string, DecodeCell>* cells) {
  for (const auto& table : engine.database().tables()) {
    for (size_t i = 0; i < table->num_columns(); ++i) {
      const Column& col = table->column(i);
      std::shared_ptr<const EncodedStream> whole = col.data_ptr();
      if (whole == nullptr) continue;
      std::vector<std::shared_ptr<const EncodedStream>> parts;
      const auto* seg = dynamic_cast<const SegmentedStream*>(whole.get());
      if (seg == nullptr) {
        parts.push_back(whole);
      } else {
        const std::vector<SegmentShape> shapes = seg->Shapes();
        for (size_t idx = 0; idx < shapes.size(); ++idx) {
          if (shapes[idx].open_tail) continue;
          TDE_ASSIGN_OR_RETURN(std::shared_ptr<EncodedStream> part,
                               seg->SegmentStreamForRead(idx));
          parts.push_back(std::move(part));
        }
      }
      for (auto& part : parts) {
        DecodeCell& cell = (*cells)[std::string(EncodingName(part->type())) +
                                    "." + TypeName(col.type())];
        cell.rows += part->size();
        cell.streams.push_back(std::move(part));
      }
    }
  }
  return Status::OK();
}

/// Median over 5 repetitions of the cell's ns/row; each repetition decodes
/// all of the cell's streams often enough to cover at least 2^20 rows.
Result<double> DecodeNsPerRow(const DecodeCell& cell, uint64_t* sink) {
  const uint64_t passes =
      std::max<uint64_t>(1, ((uint64_t{1} << 20) + cell.rows - 1) /
                                std::max<uint64_t>(1, cell.rows));
  std::vector<Lane> out(kBlockSize);
  std::vector<double> ns_per_row;
  for (int rep = 0; rep < 5; ++rep) {
    bench::Timer t;
    for (uint64_t p = 0; p < passes; ++p) {
      for (const auto& s : cell.streams) {
        for (uint64_t row = 0; row < s->size(); row += kBlockSize) {
          const size_t n = static_cast<size_t>(
              std::min<uint64_t>(kBlockSize, s->size() - row));
          TDE_RETURN_NOT_OK(s->Get(row, n, out.data()));
          *sink ^= static_cast<uint64_t>(out[n - 1]);
        }
      }
    }
    ns_per_row.push_back(t.Seconds() * 1e9 /
                         static_cast<double>(passes * cell.rows));
  }
  std::sort(ns_per_row.begin(), ns_per_row.end());
  return {ns_per_row[ns_per_row.size() / 2]};
}

}  // namespace
}  // namespace tde

int main(int argc, char** argv) {
  tde::bench::JsonReport report("tpch", argc, argv);
  tde::bench::PrintHeader("TPC-H query suite over the SQL frontend");
  const double sf = tde::bench::ScaleFactor();
  std::printf("TDE_SF=%g\n", sf);
  tde::Engine engine;
  double import_secs = 0;
  {
    tde::bench::Timer t;
    const tde::Status st = tde::LoadTpchTables(&engine, sf);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    import_secs = t.Seconds();
    std::printf("import (lineitem, orders, customer): %.2fs\n", import_secs);
  }
  if (report.enabled()) {
    // The import telemetry rides along with the query records.
    for (const tde::observe::ImportStats& s : engine.import_stats()) {
      report.Add(s.ToJson());
    }
    char rec[128];
    std::snprintf(rec, sizeof(rec),
                  "{\"phase\":\"import\",\"sf\":%g,\"seconds\":%.4f}", sf,
                  import_secs);
    report.Add(rec);
  }
  std::printf("%-8s %-42s %10s %8s\n", "query", "title", "time", "rows");
  for (const tde::TpchQuery& q : tde::TpchQueries()) {
    double secs = 0;
    uint64_t rows = 0;
    std::string operators = "null";
    for (int i = 0; i < 3; ++i) {
      tde::bench::Timer t;
      auto r = engine.ExecuteSql(q.sql);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", q.id,
                     r.status().ToString().c_str());
        return 1;
      }
      secs += t.Seconds();
      rows = r.value().num_rows();
      if (r.value().stats() != nullptr) {
        operators = r.value().stats()->ToJson();
      }
    }
    std::printf("%-8s %-42s %9.3fs %8llu\n", q.id, q.title, secs / 3,
                static_cast<unsigned long long>(rows));
    if (report.enabled()) {
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"query\":\"%s\",\"seconds\":%.6f,\"rows\":%llu,"
                    "\"operators\":",
                    q.id, secs / 3, static_cast<unsigned long long>(rows));
      report.Add(std::string(head) + operators + "}");
    }
  }

  tde::bench::PrintHeader("Decode per encoding x type (EncodedStream::Get)");
  std::map<std::string, tde::DecodeCell> cells;
  const tde::Status st = tde::CollectDecodeCells(engine, &cells);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  uint64_t sink = 0;
  std::printf("%-34s %10s %10s\n", "cell", "ns/row", "rows");
  for (const auto& [name, cell] : cells) {
    auto ns = tde::DecodeNsPerRow(cell, &sink);
    if (!ns.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   ns.status().ToString().c_str());
      return 1;
    }
    std::printf("%-34s %10.3f %10llu\n", name.c_str(), ns.value(),
                static_cast<unsigned long long>(cell.rows));
    if (report.enabled()) {
      char rec[200];
      std::snprintf(rec, sizeof(rec),
                    "{\"decode\":\"%s\",\"ns_per_row\":%.4f,"
                    "\"rows\":%llu}",
                    name.c_str(), ns.value(),
                    static_cast<unsigned long long>(cell.rows));
      report.Add(rec);
    }
  }
  std::printf("(checksum %llu)\n", static_cast<unsigned long long>(sink));
  return 0;
}
