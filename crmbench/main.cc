// crm_bench: the CRM statement-cost benchmark.
//
//   crm_bench --workload crm_point|crm_report|crm_txn --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Loads the same seeded CRM data into four layouts (extension, chunk,
// pivot, chunkfolding), each on its own durable Database under DIR, and
// runs the workload on each layout in turn with two closed-loop clients.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reruns the workload with statement tracing on and reports per-layer
// metrics. The last stdout line is one JSON object.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

#ifndef CRMBENCH_BUILD_TYPE
#define CRMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CRMBENCH_CXX_FLAGS
#define CRMBENCH_CXX_FLAGS "unknown"
#endif

namespace crmbench {
namespace {

struct Args {
  Workload workload = Workload::kPoint;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (val == "crm_point") {
        out->workload = Workload::kPoint;
      } else if (val == "crm_report") {
        out->workload = Workload::kReport;
      } else if (val == "crm_txn") {
        out->workload = Workload::kTxn;
      } else {
        std::fprintf(stderr, "unknown workload %s\n", val.c_str());
        return false;
      }
    } else if (key == "--seed") {
      out->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      out->seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      out->trace = val == "1";
    } else if (key == "--workdir") {
      out->workdir = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (!have_workload || out->workdir.empty() || out->seconds < 1) {
    std::fprintf(stderr,
                 "usage: crm_bench --workload crm_point|crm_report|crm_txn "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return false;
  }
  return true;
}

/// End-to-end numbers of one layout's measured rounds.
struct EndToEnd {
  double ops_per_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;  // pooled over all rounds; printed, not a metric
  size_t samples = 0;
};

std::vector<double> MeasuredLatenciesUs(const PhaseResult& r) {
  std::vector<double> lat;
  for (const OpRecord& op : r.ops) {
    if (op.measured && op.ok) lat.push_back(static_cast<double>(op.latency_ns) / 1e3);
  }
  return lat;
}

/// The reported figures are medians over the rounds of that round's value,
/// so a burst of noise on the host that slows a few rounds moves none of
/// them. The tail metric is p95: on crm_report, host stalls of a few
/// milliseconds lifted extension's p99 from about 2.5 ms to 6 ms in some
/// runs, beyond any usable bound. p99 over all samples is still printed.
EndToEnd Summarize(const std::vector<PhaseResult>& rounds) {
  EndToEnd e;
  std::vector<double> rates, p50s, p95s, all;
  for (const PhaseResult& r : rounds) {
    std::vector<double> lat = MeasuredLatenciesUs(r);
    e.samples += lat.size();
    if (r.measured_wall_s > 0) {
      rates.push_back(static_cast<double>(lat.size()) / r.measured_wall_s);
    }
    p50s.push_back(Quantile(lat, 0.50));
    p95s.push_back(Quantile(lat, 0.95));
    all.insert(all.end(), lat.begin(), lat.end());
  }
  e.ops_per_s = Median(std::move(rates));
  e.p50_us = Median(std::move(p50s));
  e.p95_us = Median(std::move(p95s));
  e.p99_us = Quantile(std::move(all), 0.99);
  return e;
}

/// Latency by op kind, to show what sets a layout's percentiles.
void PrintKinds(const PhaseResult& r) {
  std::map<int, std::vector<double>> by_kind;
  for (const OpRecord& op : r.ops) {
    if (op.measured && op.ok) {
      by_kind[op.kind].push_back(static_cast<double>(op.latency_ns) / 1e3);
    }
  }
  for (auto& [kind, lat] : by_kind) {
    std::printf("    %-13s n=%-6zu p50 %10.1f  p90 %10.1f  p99 %10.1f  max %10.1f us\n",
                OpKindName(static_cast<Op::Kind>(kind)), lat.size(),
                Quantile(lat, 0.5), Quantile(lat, 0.9), Quantile(lat, 0.99),
                Quantile(lat, 1.0));
  }
}

void PrintErrors(const PhaseResult& r) {
  for (const std::string& e : r.errors) std::printf("  FAILED %s\n", e.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::printf("crm_bench workload=%s seed=%llu seconds=%d trace=%d\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: type=%s flags=[%s]\n", CRMBENCH_BUILD_TYPE,
              CRMBENCH_CXX_FLAGS);
#ifndef NDEBUG
  std::fprintf(stderr,
               "refusing to report: this build does not define NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  std::printf(
      "flush policy: WAL appended with write(2) per group commit, never "
      "fsync'd; checkpoint every %llu MiB of WAL plus explicit ones during "
      "the load\n",
      static_cast<unsigned long long>(
          mtdb::EngineOptions().checkpoint_interval_bytes >> 20));

  const Scale scale;
  const uint64_t budget = args.workload == Workload::kReport
                              ? kReportBudgetBytes
                              : kFitBudgetBytes;
  std::printf("data: %d tenants (1/3 healthcare, 1/3 automotive, 1/3 none) x "
              "%d accounts + %d opportunities; %d clients; memory budget "
              "%llu KiB; no simulated read latency\n",
              scale.tenants, scale.accounts,
              scale.accounts / kAccountsPerOpportunity, kClients,
              static_cast<unsigned long long>(budget >> 10));

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const std::string data_root = args.workdir + "/db";

  Dataset data = MakeDataset(scale, args.seed);
  std::vector<LayoutUnderTest> layouts;
  const double setup_s = SetupLayouts(data, data_root, budget, &layouts);
  if (setup_s < 0) {
    TeardownLayouts(&layouts);
    return 1;
  }
  std::printf("setup: %.3f s wall (layouts load in parallel)\n", setup_s);
  bool pool_ok = true;
  for (const LayoutUnderTest& l : layouts) {
    const double ratio = static_cast<double>(l.loaded_pages) /
                         static_cast<double>(l.pool_frames);
    std::printf("  %-13s setup %.3f s  loaded pages %llu  pool frames %llu  "
                "(%.1fx)  space amp %.2f\n",
                l.name.c_str(), l.setup_s,
                static_cast<unsigned long long>(l.loaded_pages),
                static_cast<unsigned long long>(l.pool_frames), ratio,
                l.space_amp);
    if (args.workload == Workload::kReport && ratio < 2.0) pool_ok = false;
    if (args.workload != Workload::kReport && ratio >= 1.0) pool_ok = false;
  }
  if (!pool_ok) {
    std::fprintf(stderr, "memory budget does not give the workload's "
                         "data/pool ratio\n");
    TeardownLayouts(&layouts);
    return 1;
  }

  MetricsJson json;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    std::printf("%-13s %10s %12s %12s %12s %9s %7s\n", "layout", "ops/s",
                "p50 us", "p95 us", "p99 us", "samples", "failed");
    std::vector<std::vector<PhaseResult>> rounds(kNumLayouts);
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kNumLayouts; ++i) {
        rounds[i].push_back(RunPhase(
            &layouts[i], scale,
            TimedPhase(args.workload, args.seed,
                       static_cast<double>(args.seconds) / kRounds, i, round)));
      }
    }
    std::vector<EndToEnd> e2e;
    for (int i = 0; i < kNumLayouts; ++i) {
      EndToEnd e = Summarize(rounds[i]);
      PhaseResult r;
      for (PhaseResult& part : rounds[i]) r.Append(std::move(part));
      std::printf("%-13s %10.1f %12.1f %12.1f %12.1f %9zu %7llu\n",
                  kLayouts[i], e.ops_per_s, e.p50_us, e.p95_us, e.p99_us,
                  e.samples,
                  static_cast<unsigned long long>(r.failed));
      PrintKinds(r);
      PrintErrors(r);
      attempted += r.attempted;
      failed += r.failed;
      if (r.mismatches > 0) correct = false;
      e2e.push_back(e);
    }
    for (int i = 0; i < kNumLayouts; ++i) {
      json.Add(std::string("ops_per_s.") + kLayouts[i], e2e[i].ops_per_s, "1/s");
    }
    for (int i = 0; i < kNumLayouts; ++i) {
      json.Add(std::string("op_p50_us.") + kLayouts[i], e2e[i].p50_us, "us");
    }
    for (int i = 0; i < kNumLayouts; ++i) {
      json.Add(std::string("op_p95_us.") + kLayouts[i], e2e[i].p95_us, "us");
    }
    json.Add("setup_s", setup_s, "s");
    const double failed_ratio =
        attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
    std::printf("failed_ratio: %.6f (%llu of %llu ops)\n", failed_ratio,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    json.Add("ok_ratio", 1.0 - failed_ratio, "ratio");
    TeardownLayouts(&layouts);
  } else {
    TracedOutcome t =
        RunTraced(scale, args.workload, args.seed, args.seconds, &layouts,
                  budget, args.workdir, &json);
    TeardownLayouts(&layouts);
    if (!t.ran) return 1;
    attempted = t.attempted;
    failed = t.failed;
    correct = t.correct;
  }
  std::printf("%s\n", json.Render(correct, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace crmbench

int main(int argc, char** argv) { return crmbench::Main(argc, argv); }
