// The traced run: per-layer metrics from the spans StatementTracer
// records, from stage-by-stage calls into the engine's public functions,
// and from counter deltas around the traced phase.
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "core/tenant_session.h"
#include "core/transformer.h"
#include "sql/parser.h"

namespace crmbench {

namespace {

/// Relative distance allowed between the stage sum and the traced root
/// span of the same SELECTs.
constexpr double kCoverageTolerance = 0.10;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics of one layout.
struct Layer {
  double transform_us = 0;
  double fanout = 0;
  double self_us = 0;
  double coverage = 0;
  double plan_us = 0;
  double run_us = 0;
  double pool_reads_per_row = 0;
  double pool_hit_ratio = 0;
  double pages_read_per_op = 0;
  double space_amp = 0;
  double wal_bytes_per_write = 0;
  double group_commits_per_write = 0;
  double checkpoint_op_us = 0;
  double lock_acquired_per_write = 0;
  double lock_waits_per_op = 0;
  double lock_wait_us = 0;
  double wal_appends_per_txn = 0;
  double rollback_us = 0;
  double ops_ratio = 0;
};

/// Counter readings taken before and after a phase.
struct Counters {
  mtdb::EngineStats stats;
  uint64_t physical_statements = 0;
  uint64_t lock_acquired = 0;
  uint64_t lock_waits = 0;

  static Counters Read(LayoutUnderTest* l) {
    Counters c;
    c.stats = l->db->Stats();
    c.physical_statements = l->layout->stats().physical_statements.value();
    c.lock_acquired = SumCounters(c.stats.metrics, "lock.acquired.");
    c.lock_waits = SumCounters(c.stats.metrics, "lock.waits.");
    return c;
  }
};

/// The counts the determinism self-check compares.
struct Counts {
  double fanout = 0;
  double wal_bytes_per_write = 0;
  double pool_reads_per_row = 0;
  double space_amp = 0;
};

void FillFromPhase(LayoutUnderTest* l, const PhaseResult& r,
                   const Counters& before, const Counters& after, Layer* m,
                   uint64_t* admit_ns, uint64_t* statements) {
  const mtdb::BufferPoolStats& b0 = before.stats.buffer;
  const mtdb::BufferPoolStats& b1 = after.stats.buffer;
  const auto& d0 = before.stats.durability;
  const auto& d1 = after.stats.durability;
  const double ops = static_cast<double>(r.ops.size());
  const double writes = static_cast<double>(r.logical_writes);
  m->fanout = Ratio(static_cast<double>(after.physical_statements -
                                        before.physical_statements),
                    static_cast<double>(r.logical_statements));
  std::vector<double> self;
  uint64_t select_reads = 0, select_rows = 0, lock_wait_ns = 0;
  for (const StmtRecord& s : r.stmts) {
    self.push_back(static_cast<double>(s.root_ns - std::min(s.root_ns, s.children_ns)) / 1e3);
    if (s.select) {
      select_reads += s.pool_reads;
      select_rows += s.rows;
    }
    lock_wait_ns += s.lock_wait_ns;
    *admit_ns += s.admit_ns;
  }
  *statements += r.stmts.size();
  m->self_us = Median(std::move(self));
  m->pool_reads_per_row =
      Ratio(static_cast<double>(select_reads),
            static_cast<double>(std::max<uint64_t>(select_rows, 1)));
  const uint64_t reads = b1.logical_reads() - b0.logical_reads();
  const uint64_t misses = b1.misses() - b0.misses();
  m->pool_hit_ratio =
      reads == 0 ? 1.0 : 1.0 - static_cast<double>(misses) / static_cast<double>(reads);
  m->pages_read_per_op = Ratio(
      static_cast<double>(after.stats.store.physical_reads -
                          before.stats.store.physical_reads), ops);
  m->space_amp = l->space_amp;
  m->wal_bytes_per_write =
      Ratio(static_cast<double>(d1.wal_bytes - d0.wal_bytes), writes);
  m->group_commits_per_write =
      Ratio(static_cast<double>(d1.group_commits - d0.group_commits), writes);
  m->wal_appends_per_txn =
      Ratio(static_cast<double>(d1.wal_appends - d0.wal_appends),
            static_cast<double>(r.transactions));
  m->lock_acquired_per_write = Ratio(
      static_cast<double>(after.lock_acquired - before.lock_acquired), writes);
  m->lock_waits_per_op =
      Ratio(static_cast<double>(after.lock_waits - before.lock_waits), ops);
  m->lock_wait_us = Ratio(static_cast<double>(lock_wait_ns) / 1e3, ops);
  std::vector<double> ckpt, rollback;
  for (const OpRecord& op : r.ops) {
    if (op.checkpointed) ckpt.push_back(static_cast<double>(op.latency_ns) / 1e3);
    if (op.rollback && op.ok) rollback.push_back(static_cast<double>(op.latency_ns) / 1e3);
  }
  m->checkpoint_op_us = Median(std::move(ckpt));
  m->rollback_us = Median(std::move(rollback));
}

double OpsPerSecond(const PhaseResult& r) {
  size_t n = 0;
  for (const OpRecord& op : r.ops) n += op.measured && op.ok ? 1 : 0;
  return Ratio(static_cast<double>(n), r.measured_wall_s);
}

/// Times parse -> transform -> plan -> execute on each sampled SELECT and
/// runs the same SELECT through a traced session: after one untimed
/// warm-up run, in the order traced, staged, staged, traced, so that each
/// side runs once first and once second against the same cache state. Fills the stage metrics and
/// returns false when the stage sum misses the root span by more than the
/// tolerance. Appends parse times to `parse_us`.
bool StageProbe(LayoutUnderTest* l, const std::vector<SampleSelect>& sample,
                Layer* m, std::vector<double>* parse_us, std::string* error) {
  std::vector<mtdb::mapping::TenantSession> sessions;
  for (size_t t = 0; t < l->model.size(); ++t) {
    sessions.push_back(l->layout->OpenSession(static_cast<int>(t)));
    sessions.back().EnableTracing(true);
  }
  std::vector<double> transform, plan, run, coverage;
  for (const SampleSelect& q : sample) {
    double root_us = 0, stage_us = 0;
    auto traced = [&]() -> bool {
      mtdb::mapping::TenantSession& s = sessions[q.tenant];
      auto r = s.Query(q.sql, q.params);
      if (!r.ok() || s.tracer()->last() == nullptr) {
        *error = "traced query: " + r.status().ToString();
        return false;
      }
      root_us += static_cast<double>(s.tracer()->last()->root->elapsed_ns) / 1e3;
      return true;
    };
    auto staged = [&]() -> bool {
      const uint64_t t0 = NowNs();
      auto stmt = mtdb::sql::ParseSelect(q.sql);
      const uint64_t t1 = NowNs();
      if (!stmt.ok()) return *error = stmt.status().ToString(), false;
      // The same transformer SchemaMapping::Query builds, heat recording
      // included.
      mtdb::mapping::QueryTransformer transformer(
          l->layout.get(), l->layout->transform_options(),
          l->layout->mutable_heat_profile());
      auto physical = transformer.TransformSelect(q.tenant, **stmt);
      const uint64_t t2 = NowNs();
      if (!physical.ok()) return *error = physical.status().ToString(), false;
      auto explained = l->db->ExplainAst(**physical);
      const uint64_t t3 = NowNs();
      if (!explained.ok()) return *error = explained.status().ToString(), false;
      auto rows = l->db->QueryAst(**physical, q.params);
      const uint64_t t4 = NowNs();
      if (!rows.ok()) return *error = rows.status().ToString(), false;
      parse_us->push_back(static_cast<double>(t1 - t0) / 1e3);
      transform.push_back(static_cast<double>(t2 - t1) / 1e3);
      plan.push_back(static_cast<double>(t3 - t2) / 1e3);
      // QueryAst plans again before it executes; execution alone is the
      // difference.
      run.push_back(static_cast<double>((t4 - t3) - std::min(t4 - t3, t3 - t2)) / 1e3);
      stage_us += static_cast<double>((t2 - t0) + (t4 - t3)) / 1e3;
      return true;
    };
    // One untimed run first, so neither side pays for a cold cache alone.
    if (!sessions[q.tenant].Query(q.sql, q.params).ok()) {
      *error = "warm-up query failed";
      return false;
    }
    if (!(traced() && staged() && staged() && traced())) return false;
    coverage.push_back(Ratio(stage_us, root_us));
  }
  m->transform_us = Median(transform);
  m->plan_us = Median(plan);
  m->run_us = Median(run);
  m->coverage = Median(coverage);
  return std::fabs(m->coverage - 1.0) <= kCoverageTolerance;
}

/// Runs 160 ops in all, split over `clients`, on freshly loaded databases
/// and returns the determinism counts per layout.
bool DeterminismCounts(const Scale& scale, Workload w, uint64_t seed,
                       uint64_t budget, const std::string& root, int clients,
                       std::vector<Counts>* out, TracedOutcome* outcome) {
  Dataset data = MakeDataset(scale, seed);
  std::vector<LayoutUnderTest> layouts;
  if (SetupLayouts(data, root, budget, &layouts) < 0) {
    TeardownLayouts(&layouts);
    return false;
  }
  out->clear();
  for (LayoutUnderTest& l : layouts) {
    PhaseOptions opts;
    opts.workload = w;
    opts.seed = seed;
    opts.clients = clients;
    opts.fixed_ops = 160 / clients;
    opts.trace = true;
    Counters before = Counters::Read(&l);
    PhaseResult r = RunPhase(&l, scale, opts);
    Counters after = Counters::Read(&l);
    for (const std::string& e : r.errors) std::printf("  FAILED %s\n", e.c_str());
    outcome->attempted += r.attempted;
    outcome->failed += r.failed;
    if (r.mismatches > 0) outcome->correct = false;
    Layer m;
    uint64_t admit = 0, statements = 0;
    FillFromPhase(&l, r, before, after, &m, &admit, &statements);
    out->push_back({m.fanout, m.wal_bytes_per_write, m.pool_reads_per_row,
                    m.space_amp});
  }
  TeardownLayouts(&layouts);
  return true;
}

}  // namespace

void MetricsJson::Add(const std::string& name, double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
}

std::string MetricsJson::Render(bool correct, uint64_t attempted,
                                uint64_t failed) const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body_ + "}}";
}

TracedOutcome RunTraced(const Scale& scale, Workload w, uint64_t seed,
                        int seconds,
                        std::vector<LayoutUnderTest>* layouts,
                        uint64_t memory_budget_bytes,
                        const std::string& workdir, MetricsJson* json) {
  TracedOutcome out;
  std::vector<Layer> layers(layouts->size());
  std::vector<std::string> spans;
  uint64_t admit_ns = 0, statements = 0;
  std::vector<double> parse_us;

  std::printf("traced phase (tracing on), then untraced reference phase:\n");
  std::printf("%-13s %12s %12s %9s %8s\n", "layout", "traced op/s",
              "untraced", "ratio", "failed");
  for (size_t i = 0; i < layouts->size(); ++i) {
    LayoutUnderTest* l = &(*layouts)[i];
    PhaseOptions opts =
        TimedPhase(w, seed, seconds / 2.0, static_cast<int>(i), /*phase=*/0);
    opts.trace = true;
    opts.span_sink = &spans;
    Counters before = Counters::Read(l);
    PhaseResult traced = RunPhase(l, scale, opts);
    Counters after = Counters::Read(l);
    FillFromPhase(l, traced, before, after, &layers[i], &admit_ns, &statements);

    PhaseOptions plain =
        TimedPhase(w, seed, seconds / 8.0, static_cast<int>(i), /*phase=*/1);
    PhaseResult untraced = RunPhase(l, scale, plain);
    const double traced_rate = OpsPerSecond(traced);
    const double plain_rate = OpsPerSecond(untraced);
    layers[i].ops_ratio = Ratio(traced_rate, plain_rate);
    std::printf("%-13s %12.1f %12.1f %9.3f %8llu\n", l->name.c_str(),
                traced_rate, plain_rate, layers[i].ops_ratio,
                static_cast<unsigned long long>(traced.failed + untraced.failed));
    for (const PhaseResult* r : {&traced, &untraced}) {
      for (const std::string& e : r->errors) std::printf("  FAILED %s\n", e.c_str());
      out.attempted += r->attempted;
      out.failed += r->failed;
      if (r->mismatches > 0) out.correct = false;
    }
  }

  const int probe_count = w == Workload::kPoint ? 60 : 24;
  const std::vector<SampleSelect> sample =
      SampleSelects(w, scale, seed, probe_count);
  std::printf("stage probe (%zu SELECTs per layout; medians in us):\n",
              sample.size());
  std::printf("%-13s %10s %10s %10s %10s\n", "layout", "transform", "plan",
              "run", "coverage");
  for (size_t i = 0; i < layouts->size(); ++i) {
    LayoutUnderTest* l = &(*layouts)[i];
    std::string error;
    const bool covered = StageProbe(l, sample, &layers[i], &parse_us, &error);
    std::printf("%-13s %10.1f %10.1f %10.1f %10.3f %s\n", l->name.c_str(),
                layers[i].transform_us, layers[i].plan_us, layers[i].run_us,
                layers[i].coverage,
                !error.empty() ? error.c_str() : covered ? "ok" : "UNATTRIBUTED");
    out.attempted++;
    if (!covered) {
      out.failed++;
      out.correct = false;
    }
  }

  const std::string span_path = workdir + "/spans-" +
                                WorkloadName(w) + ".jsonl";
  {
    std::ofstream f(span_path, std::ios::trunc);
    for (const std::string& line : spans) f << line << '\n';
  }
  std::printf("spans: %zu statement traces in %s\n", spans.size(),
              span_path.c_str());

  // Count-determinism self-check on a small fresh load: with one client
  // the counts must repeat exactly; with two they are labelled.
  const Scale small{scale.tenants, 60};
  const std::string det_root = workdir + "/det";
  std::vector<Counts> one_a, one_b, two_a, two_b;
  if (!DeterminismCounts(small, w, seed, memory_budget_bytes, det_root, 1, &one_a, &out) ||
      !DeterminismCounts(small, w, seed, memory_budget_bytes, det_root, 1, &one_b, &out) ||
      !DeterminismCounts(small, w, seed, memory_budget_bytes, det_root, 2, &two_a, &out) ||
      !DeterminismCounts(small, w, seed, memory_budget_bytes, det_root, 2, &two_b, &out)) {
    return out;
  }
  std::printf("count determinism (%d tenants x %d accounts, 160 ops):\n",
              small.tenants, small.accounts);
  for (size_t i = 0; i < layouts->size(); ++i) {
    const char* name = kLayouts[i];
    auto row = [&](const char* metric, double Counts::*field) {
      const bool one = one_a[i].*field == one_b[i].*field;
      const bool two = two_a[i].*field == two_b[i].*field;
      std::printf("  %s.%-13s 1 client: %s  2 clients: %s\n", metric, name,
                  one ? "repeats" : "DIFFERS", two ? "repeats" : "varying");
      out.attempted++;
      if (!one) {
        out.failed++;
        out.correct = false;
      }
    };
    row("core.fanout", &Counts::fanout);
    row("storage.wal_bytes_per_write", &Counts::wal_bytes_per_write);
    row("exec.pool_reads_per_row", &Counts::pool_reads_per_row);
    row("storage.space_amp", &Counts::space_amp);
  }

  json->Add("sql.parse_us", Median(parse_us), "us");
  json->Add("engine.admission.admit_us",
            Ratio(static_cast<double>(admit_ns) / 1e3, static_cast<double>(statements)),
            "us");
  for (size_t i = 0; i < layouts->size(); ++i) {
    const std::string n = std::string(".") + kLayouts[i];
    const Layer& m = layers[i];
    json->Add("core.transform_us" + n, m.transform_us, "us");
    json->Add("core.fanout" + n, m.fanout, "count");
    json->Add("core.self_us" + n, m.self_us, "us");
    json->Add("core.stage_coverage" + n, m.coverage, "ratio");
    json->Add("engine.plan_us" + n, m.plan_us, "us");
    json->Add("exec.run_us" + n, m.run_us, "us");
    json->Add("exec.pool_reads_per_row" + n, m.pool_reads_per_row, "count");
    json->Add("storage.pool_hit_ratio" + n, m.pool_hit_ratio, "ratio");
    json->Add("storage.pages_read_per_op" + n, m.pages_read_per_op, "count");
    json->Add("storage.space_amp" + n, m.space_amp, "ratio");
    json->Add("storage.wal_bytes_per_write" + n, m.wal_bytes_per_write, "B");
    json->Add("storage.group_commits_per_write" + n, m.group_commits_per_write,
              "count");
    json->Add("storage.checkpoint_op_us" + n, m.checkpoint_op_us, "us");
    json->Add("engine.lock.acquired_per_write" + n, m.lock_acquired_per_write,
              "count");
    json->Add("engine.lock.waits_per_op" + n, m.lock_waits_per_op, "count");
    json->Add("engine.lock.wait_us" + n, m.lock_wait_us, "us");
    json->Add("engine.txn.wal_appends_per_txn" + n, m.wal_appends_per_txn,
              "count");
    json->Add("engine.txn.rollback_us" + n, m.rollback_us, "us");
    json->Add("trace.ops_ratio" + n, m.ops_ratio, "ratio");
  }
  out.ran = true;
  return out;
}

}  // namespace crmbench
