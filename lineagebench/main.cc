// lineagebench: end-to-end and per-layer timing of lineage capture and
// lineage tracing through the public SmokeEngine API, with every answer
// checked against an oracle computed here from the generated rows.
//
//   lineagebench <capture|trace> <seed> <seconds> <trace 0|1> <part> <parts>
//
// One process is one part of a run: run.py starts the parts one after
// another and pools their samples. Every part does both phases, one after
// the other, so that every metric is reported by every workload; the
// workload decides which phase gets three quarters of the time. The last
// stdout line is one JSON object of raw samples (see README.md).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/smoke_engine.h"
#include "engine/group_by.h"
#include "query/lineage_query.h"

namespace {

using namespace smoke;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- seeded inputs -------------------------------------------------------

struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL) {}
  uint64_t Next() {  // splitmix64
    uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

// zipf(id, z, v): z zipfian over [1, groups], v an integer-valued double in
// [0, 100) so sums are exact in any summation order.
Table MakeZipf(size_t n, int64_t groups, double theta, uint64_t seed) {
  std::vector<double> cdf(static_cast<size_t>(groups));
  double acc = 0;
  for (int64_t k = 0; k < groups; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf[static_cast<size_t>(k)] = acc;
  }
  Table t(Schema({{"id", DataType::kInt64},
                  {"z", DataType::kInt64},
                  {"v", DataType::kFloat64}}));
  auto& id = t.mutable_column(0).mutable_ints();
  auto& z = t.mutable_column(1).mutable_ints();
  auto& v = t.mutable_column(2).mutable_doubles();
  id.resize(n);
  z.resize(n);
  v.resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Unit() * acc;
    id[i] = static_cast<int64_t>(i);
    z[i] = 1 + (std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (z[i] > groups) z[i] = groups;
    v[i] = static_cast<double>(rng.Below(100));
  }
  return t;
}

// fact(id, fk, v): fk uniform over [1, fk_range]; dim(key, cat) with keys
// [1, dim_keys], so fact rows with fk > dim_keys find no partner.
Table MakeFact(size_t n, int64_t fk_range, uint64_t seed) {
  Table t(Schema({{"fid", DataType::kInt64},
                  {"fk", DataType::kInt64},
                  {"fv", DataType::kFloat64}}));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    t.mutable_column(0).AppendInt(static_cast<int64_t>(i));
    t.mutable_column(1).AppendInt(
        1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(fk_range))));
    t.mutable_column(2).AppendDouble(static_cast<double>(rng.Below(100)));
  }
  return t;
}

Table MakeDim(int64_t keys) {
  Table t(Schema({{"key", DataType::kInt64}, {"cat", DataType::kInt64}}));
  for (int64_t k = 1; k <= keys; ++k) {
    t.mutable_column(0).AppendInt(k);
    t.mutable_column(1).AppendInt(k % 100);
  }
  return t;
}

// ---- results and checks ----------------------------------------------------

bool g_correct = true;
uint64_t g_attempted = 0;
uint64_t g_failed = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    if (g_correct) std::fprintf(stderr, "lineagebench: CHECK FAILED: %s\n",
                                what.c_str());
    g_correct = false;
  }
}

// Counts one program operation; a non-OK Status is a failed operation.
bool Op(const Status& st, const char* what) {
  ++g_attempted;
  if (st.ok()) return true;
  ++g_failed;
  std::fprintf(stderr, "lineagebench: %s failed: %s\n", what,
               st.ToString().c_str());
  return false;
}

// ---- spans (traced run only) -------------------------------------------------
//
// One span per call into a layer: name, start, end, parent span and request
// id, kept in memory and written to lineagebench_spans.jsonl at exit.

struct SpanRec {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;
  uint64_t request;
};
bool g_tracing = false;
uint64_t g_request = 0;
std::vector<SpanRec> g_spans;
std::vector<int> g_stack;

class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracing) return;
    id_ = static_cast<int>(g_spans.size());
    g_spans.push_back({name, MsSince(kProcessStart), 0,
                       g_stack.empty() ? -1 : g_stack.back(), g_request});
    g_stack.push_back(id_);
  }
  ~Span() {
    if (id_ < 0) return;
    g_spans[static_cast<size_t>(id_)].end_ms = MsSince(kProcessStart);
    g_stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

// Per request, the summed self time of spans named `name`.
std::vector<double> SelfTimes(const std::string& name) {
  std::vector<double> child(g_spans.size(), 0);
  for (const SpanRec& s : g_spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<uint64_t, double> per_request;
  for (size_t i = 0; i < g_spans.size(); ++i) {
    if (name != g_spans[i].name) continue;
    per_request[g_spans[i].request] +=
        g_spans[i].end_ms - g_spans[i].start_ms - child[i];
  }
  std::vector<double> v;
  for (const auto& [req, ms] : per_request) v.push_back(ms);
  return v;
}

// Appends this part's spans; times are from this process's start.
void WriteSpans(const char* path, int part) {
  FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRec& s = g_spans[i];
    std::fprintf(f,
                 "{\"part\":%d,\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 part, i, s.parent, static_cast<unsigned long long>(s.request),
                 s.name, s.start_ms, s.end_ms);
  }
  std::fclose(f);
}

// ---- fixture ---------------------------------------------------------------

constexpr size_t kCaptureRows = 1000000;
constexpr int64_t kCaptureGroups = 10000;
constexpr int64_t kDimKeys = 10000;
constexpr size_t kTraceRows = 1000000;
constexpr int64_t kTraceGroups = 1000;
constexpr size_t kForwardRids = 8192;
// Capture threads of the timed plans and of the trace view. One thread keeps
// these timings apart from how many cores the shared host grants at the
// moment; the 4-thread kernels are timed in the traced run.
constexpr int kCaptureThreads = 1;

CaptureOptions CaptureOpts(CaptureMode mode, int threads) {
  CaptureOptions o = CaptureOptions::Mode(mode);
  o.num_threads = threads;
  o.lineage_codec = LineageCodec::kAdaptive;
  return o;
}

struct Fixture {
  SmokeEngine capture_engine;
  SmokeEngine trace_engine;
  const Table* cz = nullptr;
  const Table* fact = nullptr;
  const Table* dim = nullptr;
  const Table* tz = nullptr;
  LogicalPlan groupby_plan;  // (a) group-by over cz
  LogicalPlan join_plan;     // (b) dim ⋈ fact, group-by dim.cat
  // Oracle: scan aggregates and key -> rids inverted indexes.
  std::map<int64_t, std::pair<int64_t, double>> cz_agg;   // z -> (cnt, sum)
  std::map<int64_t, std::pair<int64_t, double>> join_agg;  // cat -> (cnt, sum)
  std::vector<std::vector<rid_t>> tz_rids;  // z -> ascending rids
  std::vector<int64_t> tv_keys;             // trace view output rid -> z
  std::vector<rid_t> backward_order;        // seeded permutation of outputs
  size_t walk_start = 0;  // this part's first position in backward_order
};

void BuildFixture(uint64_t seed, int part, int parts, Fixture* fx) {
  Check(fx->capture_engine
            .CreateTable("cz", MakeZipf(kCaptureRows, kCaptureGroups, 1.0,
                                        seed * 4 + 1))
            .ok(),
        "create cz");
  Check(fx->capture_engine
            .CreateTable("fact", MakeFact(kCaptureRows, kDimKeys + kDimKeys / 40,
                                          seed * 4 + 2))
            .ok(),
        "create fact");
  Check(fx->capture_engine.CreateTable("dim", MakeDim(kDimKeys)).ok(),
        "create dim");
  Check(fx->trace_engine
            .CreateTable("tz", MakeZipf(kTraceRows, kTraceGroups, 1.0,
                                        seed * 4 + 3))
            .ok(),
        "create tz");
  Check(fx->capture_engine.GetTable("cz", &fx->cz).ok() &&
            fx->capture_engine.GetTable("fact", &fx->fact).ok() &&
            fx->capture_engine.GetTable("dim", &fx->dim).ok() &&
            fx->trace_engine.GetTable("tz", &fx->tz).ok(),
        "get tables");

  {
    PlanBuilder b;
    GroupBySpec spec;
    spec.key_names = {"z"};
    spec.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col("v"), "sum_v")};
    Check(b.Build(b.GroupBy(b.Scan(fx->cz, "cz"), spec), &fx->groupby_plan)
              .ok(),
          "build groupby plan");
  }
  {
    PlanBuilder b;
    JoinSpec js;
    js.left_key_name = "key";
    js.right_key_name = "fk";
    js.pk_build = true;
    int j = b.HashJoin(b.Scan(fx->dim, "dim"), b.Scan(fx->fact, "fact"), js);
    GroupBySpec spec;
    spec.key_names = {"cat"};
    spec.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col("fv"), "sum_v")};
    Check(b.Build(b.GroupBy(j, spec), &fx->join_plan).ok(), "build join plan");
  }

  // Oracle, from the generated rows only.
  const auto& z = fx->cz->column(1).ints();
  const auto& v = fx->cz->column(2).doubles();
  for (size_t i = 0; i < z.size(); ++i) {
    auto& a = fx->cz_agg[z[i]];
    a.first++;
    a.second += v[i];
  }
  const auto& fk = fx->fact->column(1).ints();
  const auto& fv = fx->fact->column(2).doubles();
  for (size_t i = 0; i < fk.size(); ++i) {
    if (fk[i] < 1 || fk[i] > kDimKeys) continue;
    auto& a = fx->join_agg[fk[i] % 100];
    a.first++;
    a.second += fv[i];
  }
  const auto& tz = fx->tz->column(1).ints();
  fx->tz_rids.assign(static_cast<size_t>(kTraceGroups) + 1, {});
  for (size_t i = 0; i < tz.size(); ++i) {
    fx->tz_rids[static_cast<size_t>(tz[i])].push_back(static_cast<rid_t>(i));
  }

  // The trace phase's retained view.
  PlanBuilder b;
  GroupBySpec spec;
  spec.key_names = {"z"};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan tv;
  Check(b.Build(b.GroupBy(b.Scan(fx->tz, "tz"), spec), &tv).ok(),
        "build trace view");
  Op(fx->trace_engine.ExecutePlan(
         "tv", tv, CaptureOpts(CaptureMode::kInject, kCaptureThreads)),
     "retain trace view");
  const Table* out = nullptr;
  if (Op(fx->trace_engine.GetResult("tv", &out), "get trace view")) {
    fx->tv_keys = out->column(0).ints();
  }
  Rng rng(seed * 4 + 4);
  for (size_t o = 0; o < fx->tv_keys.size(); ++o) {
    fx->backward_order.push_back(static_cast<rid_t>(o));
    std::swap(fx->backward_order[o], fx->backward_order[rng.Below(o + 1)]);
  }
  fx->walk_start = fx->backward_order.size() * static_cast<size_t>(part) /
                   static_cast<size_t>(parts);
}

// Output rows of a (key, cnt, sum) group-by equal the oracle's aggregates.
void CheckAgg(const Table& out,
              const std::map<int64_t, std::pair<int64_t, double>>& expect,
              const std::string& what) {
  Check(out.num_rows() == expect.size(), what + ": group count");
  for (size_t r = 0; r < out.num_rows(); ++r) {
    auto it = expect.find(out.column(0).ints()[r]);
    Check(it != expect.end() && it->second.first == out.column(1).ints()[r] &&
              it->second.second == out.column(2).doubles()[r],
          what + ": group aggregates");
  }
}

// Backward lists of the group-by partition the input rids, each rid's key is
// its group's key, and forward is the inverse of backward.
void CheckGroupLineage(const PlanResult& pr, const Table& in,
                       const std::string& rel, const std::string& what) {
  const int idx = pr.lineage.FindInput(rel);
  Check(idx >= 0, what + ": lineage input");
  if (idx < 0) return;
  const TableLineage& tl = pr.lineage.input(static_cast<size_t>(idx));
  const auto& keys = in.column(1).ints();
  std::vector<rid_t> owner(in.num_rows(), kInvalidRid);
  bool ok = true;
  for (size_t o = 0; o < pr.output.num_rows(); ++o) {
    const int64_t key = pr.output.column(0).ints()[o];
    tl.backward.ForEachRelated(static_cast<rid_t>(o), [&](rid_t r) {
      if (r >= owner.size() || owner[r] != kInvalidRid || keys[r] != key) {
        ok = false;
        return;
      }
      owner[r] = static_cast<rid_t>(o);
    });
  }
  for (rid_t r : owner) ok = ok && r != kInvalidRid;
  Check(ok, what + ": backward partitions the input by key");
  bool inv = true;
  for (size_t r = 0; r < owner.size() && inv; ++r) {
    size_t n = 0;
    tl.forward.ForEachRelated(static_cast<rid_t>(r), [&](rid_t o) {
      inv = inv && o == owner[r];
      ++n;
    });
    inv = inv && n == 1;
  }
  Check(inv, what + ": forward is the inverse of backward");
}

// ---- capture phase -----------------------------------------------------------

struct Samples {
  // capture phase: plan (a) and (b) with Smoke-I capture and without
  std::vector<double> groupby, groupby_base, join, join_base, bytes;
  // trace phase: forward traces through the lineage index and by lazy
  // re-execution
  std::vector<double> forward, forward_lazy;
  uint64_t capture_rounds = 0;
};

// The lineage checks walk every input rid in both directions, so they run on
// the first round and then on every kLineageCheckEvery-th; aggregates are
// checked on every round.
constexpr uint64_t kLineageCheckEvery = 8;

// Executes `plan` through SmokeEngine and retains it as `name`; appends the
// time to `ms`.
bool TimedExecute(SmokeEngine& e, const char* name, const LogicalPlan& plan,
                  CaptureMode mode, std::vector<double>* ms) {
  Span span(mode == CaptureMode::kNone ? "core.execute_plan_nocapture"
                                       : "core.execute_plan");
  auto t0 = Clock::now();
  if (!Op(e.ExecutePlan(name, plan, CaptureOpts(mode, kCaptureThreads)),
          name)) {
    return false;
  }
  ms->push_back(MsSince(t0));
  return true;
}

// One round executes and retains (a) and (b) under Smoke-I and, as the
// baseline, without capture; the side that runs first alternates from round
// to round.
void CaptureRound(Fixture* fx, bool traced, Samples* s) {
  SmokeEngine& e = fx->capture_engine;
  const bool capture_first = s->capture_rounds % 2 == 0;
  const bool check_lineage = s->capture_rounds++ % kLineageCheckEvery == 0;
  ++g_request;
  for (int side = 0; side < 2; ++side) {
    if ((side == 0) == capture_first) {
      if (!TimedExecute(e, "a", fx->groupby_plan, CaptureMode::kInject,
                        &s->groupby) ||
          !TimedExecute(e, "b", fx->join_plan, CaptureMode::kInject,
                        &s->join)) {
        return;
      }
    } else if (!TimedExecute(e, "a0", fx->groupby_plan, CaptureMode::kNone,
                             &s->groupby_base) ||
               !TimedExecute(e, "b0", fx->join_plan, CaptureMode::kNone,
                             &s->join_base)) {
      return;
    }
  }
  s->bytes.push_back(static_cast<double>(e.LineageMemoryStats().total_bytes));

  const PlanResult* r = nullptr;
  if (Op(e.GetPlanResult("a", &r), "get (a)")) {
    CheckAgg(r->output, fx->cz_agg, "groupby");
    if (check_lineage) CheckGroupLineage(*r, *fx->cz, "cz", "groupby");
  }
  if (Op(e.GetPlanResult("a0", &r), "get (a0)")) {
    CheckAgg(r->output, fx->cz_agg, "groupby without capture");
  }
  if (Op(e.GetPlanResult("b", &r), "get (b)")) {
    CheckAgg(r->output, fx->join_agg, "join");
  }
  if (Op(e.GetPlanResult("b0", &r), "get (b0)")) {
    CheckAgg(r->output, fx->join_agg, "join without capture");
  }
  for (const char* name : {"a", "b", "a0", "b0"}) Op(e.DropResult(name), name);

  if (!traced) return;
  // Per-layer calls, baseline and capture sides in alternating order.
  GroupBySpec spec;
  spec.keys = {1};
  spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(2), "sum_v")};
  for (int side = 0; side < 2; ++side) {
    if ((side == 0) == capture_first) {
      Span sp("engine.groupby_capture");
      GroupByExec(*fx->cz, "cz", spec, CaptureOpts(CaptureMode::kInject, 4));
    } else {
      Span sp("engine.groupby_nocapture");
      GroupByExec(*fx->cz, "cz", spec, CaptureOpts(CaptureMode::kNone, 4));
    }
  }
  {
    Span sp("engine.groupby_capture_1t");
    GroupByExec(*fx->cz, "cz", spec, CaptureOpts(CaptureMode::kInject, 1));
  }
  {
    Span sp("plan.execute");
    PlanResult pr;
    Op(ExecutePlan(fx->groupby_plan,
                   CaptureOpts(CaptureMode::kInject, kCaptureThreads), &pr),
       "plan execute (a)");
  }
}

// ---- trace phase -------------------------------------------------------------

// Lazy backward trace, the baseline Smoke's index is measured against:
// re-scan the input for the rows of the output's group.
bool LazyBackward(const Fixture& fx, int64_t key, PlanResult* out) {
  Span span("plan.lazy_backward");
  PlanBuilder b;
  LogicalPlan plan;
  return Op(b.Build(b.Select(b.Scan(fx.tz, "tz"),
                             {Predicate::Int(1, CmpOp::kEq, key)}),
                    &plan),
            "build lazy backward") &&
         Op(ExecutePlan(plan, CaptureOpts(CaptureMode::kNone, 1), out),
            "lazy backward");
}

// Lazy forward trace: re-run the view's group-by over the traced inputs.
bool LazyForward(const Fixture& fx, const std::vector<rid_t>& in,
                 GroupByResult* out) {
  Span span("engine.lazy_forward");
  Table rows;
  if (!Op(MaterializeRowsChecked(*fx.tz, in, &rows), "lazy forward rows")) {
    return false;
  }
  GroupBySpec spec;
  spec.keys = {1};
  spec.aggs = {AggSpec::Count("cnt")};
  *out = GroupByExec(rows, "tz", spec, CaptureOpts(CaptureMode::kNone, 1));
  return true;
}

void TraceRequest(Fixture* fx, Rng* rng, bool traced, Samples* s) {
  SmokeEngine& e = fx->trace_engine;
  ++g_request;
  // Requests alternate backward / forward, and within each class whether the
  // index or the lazy baseline runs first. Backward seeds walk a seeded
  // permutation of the view's outputs, so every run traces the same spread
  // of group sizes (three orders of magnitude under zipf(1)).
  const bool lazy_first = (g_request / 2) % 2 == 1;
  if (g_request % 2 == 0) {
    const rid_t o = fx->backward_order[(fx->walk_start + g_request / 2) %
                                       fx->backward_order.size()];
    const int64_t key = fx->tv_keys[o];
    // Backward traces are timed by their spans only: their time moved
    // with the machine more than any ratio could gate (README.md).
    TraceResult res;
    PlanResult lazy;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == lazy_first) {
        if (!LazyBackward(*fx, key, &lazy)) return;
      } else {
        Span span("core.trace_backward");
        if (!Op(e.TraceBackward("tv", "tz", {o}, &res), "trace backward")) {
          return;
        }
      }
    }
    std::vector<rid_t> got = res.rids;
    std::sort(got.begin(), got.end());
    const auto& expect = fx->tz_rids[static_cast<size_t>(key)];
    Check(got == expect, "backward rids match the inverted index");
    bool rows_ok = res.rows.num_rows() == res.rids.size();
    for (size_t i = 0; rows_ok && i < res.rids.size(); ++i) {
      rows_ok = res.rows.column(0).ints()[i] == static_cast<int64_t>(res.rids[i]) &&
                res.rows.column(1).ints()[i] == key;
    }
    Check(rows_ok, "backward rows are the traced input rows");
    std::vector<int64_t> lazy_ids = lazy.output.column(0).ints();
    std::sort(lazy_ids.begin(), lazy_ids.end());
    Check(std::equal(lazy_ids.begin(), lazy_ids.end(), expect.begin(),
                     expect.end(),
                     [](int64_t id, rid_t r) {
                       return id == static_cast<int64_t>(r);
                     }),
          "lazy backward rows match the inverted index");
    if (traced) {
      const PlanResult* pr = nullptr;
      if (!Op(e.GetPlanResult("tv", &pr), "get trace view")) return;
      std::vector<rid_t> rids;
      Table rows;
      {
        Span sp("query.backward_rids");
        Op(BackwardRidsChecked(pr->lineage, "tz", {o}, true, &rids),
           "backward rids");
      }
      Span sp("query.materialize");
      Op(MaterializeRowsChecked(*fx->tz, rids, &rows), "materialize");
    }
    return;
  }
  std::vector<rid_t> in(kForwardRids);
  for (rid_t& r : in) r = static_cast<rid_t>(rng->Below(fx->tz->num_rows()));
  TraceResult res;
  GroupByResult lazy;
  for (int side = 0; side < 2; ++side) {
    auto t0 = Clock::now();
    if ((side == 0) == lazy_first) {
      if (!LazyForward(*fx, in, &lazy)) return;
      s->forward_lazy.push_back(MsSince(t0));
    } else {
      {
        Span span("core.trace_forward");
        if (!Op(e.TraceForward("tv", "tz", in, &res), "trace forward")) return;
      }
      s->forward.push_back(MsSince(t0));
    }
  }
  std::vector<int64_t> want, got;
  for (rid_t r : in) want.push_back(fx->tz->column(1).ints()[r]);
  for (rid_t o : res.rids) got.push_back(fx->tv_keys.at(o));
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::sort(got.begin(), got.end());
  Check(got == want, "forward groups match the inputs' keys");
  std::vector<int64_t> lazy_keys = lazy.output.column(0).ints();
  std::sort(lazy_keys.begin(), lazy_keys.end());
  Check(lazy_keys == want, "lazy forward groups match the inputs' keys");
  if (traced) {
    const PlanResult* pr = nullptr;
    if (!Op(e.GetPlanResult("tv", &pr), "get trace view")) return;
    std::vector<rid_t> outs;
    Span sp("query.forward_rids");
    Op(ForwardRidsChecked(pr->lineage, "tz", in, true, &outs), "forward rids");
  }
}

// Whole rounds of 64 requests, so every run attempts a multiple of them.
void TraceRound(Fixture* fx, Rng* rng, bool traced, Samples* s) {
  for (int i = 0; i < 64; ++i) TraceRequest(fx, rng, traced, s);
}

void PrintSamples(bool* first, const char* name,
                  const std::vector<double>& v) {
  std::printf("%s\"%s\": [", *first ? "" : ", ", name);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", v[i]);
  }
  std::printf("]");
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: lineagebench <capture|trace> <seed> <seconds> <0|1> "
                 "<part> <parts>\n");
    return 2;
  }
  const std::string workload = argv[1];
  const uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const double seconds = std::atof(argv[3]);
  const bool traced_run = std::atoi(argv[4]) != 0;
  const int part = std::atoi(argv[5]);
  const int parts = std::atoi(argv[6]);
  if ((workload != "capture" && workload != "trace") || seconds <= 0 ||
      parts < 1 || part < 0 || part >= parts) {
    std::fprintf(stderr, "lineagebench: bad workload, seconds or part\n");
    return 2;
  }
  // Same allocator policy as bench/harness.h StabilizeAllocator: keep large
  // freed blocks on the heap so neither side of a comparison pays page faults
  // the other does not.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  g_tracing = traced_run;

  Fixture fx;
  BuildFixture(seed, part, parts, &fx);
  const double setup_s = MsSince(kProcessStart) / 1000.0;

  // The capture phase runs first for its share of the part, then the trace
  // phase for the rest. Across the parts of a run the phases alternate every
  // few seconds, so a slow spell of the shared machine reaches both alike.
  const double capture_share = workload == "capture" ? 0.75 : 0.25;
  const double capture_ms = seconds * 1000.0 * capture_share;
  const double trace_ms = seconds * 1000.0 - capture_ms;
  Rng rng(seed * 4 + 5 + static_cast<uint64_t>(part) * 0x10000);
  Samples s;
  auto t0 = Clock::now();
  while (g_correct && g_failed == 0 &&
         (MsSince(t0) < capture_ms || s.groupby.empty())) {
    CaptureRound(&fx, traced_run, &s);
  }
  t0 = Clock::now();
  while (g_correct && g_failed == 0 &&
         (MsSince(t0) < trace_ms || s.forward.empty())) {
    TraceRound(&fx, &rng, traced_run, &s);
  }

  // One JSON line of raw samples; run.py pools the parts of a run.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"setup_s\": %.17g, \"samples\": {",
              g_correct ? "true" : "false",
              static_cast<unsigned long long>(g_attempted),
              static_cast<unsigned long long>(g_failed), setup_s);
  bool first = true;
  if (!traced_run) {
    PrintSamples(&first, "groupby_ms", s.groupby);
    PrintSamples(&first, "groupby_base_ms", s.groupby_base);
    PrintSamples(&first, "join_ms", s.join);
    PrintSamples(&first, "join_base_ms", s.join_base);
    PrintSamples(&first, "lineage_bytes", s.bytes);
    PrintSamples(&first, "forward_ms", s.forward);
    PrintSamples(&first, "forward_lazy_ms", s.forward_lazy);
  } else {
    WriteSpans("lineagebench_spans.jsonl", part);
    const char* layers[][2] = {
        {"engine.groupby_nocapture_ms", "engine.groupby_nocapture"},
        {"engine.groupby_capture_ms", "engine.groupby_capture"},
        {"engine.groupby_capture_1t_ms", "engine.groupby_capture_1t"},
        {"plan.execute_ms", "plan.execute"},
        {"core.execute_plan_ms", "core.execute_plan"},
        {"core.execute_plan_nocapture_ms", "core.execute_plan_nocapture"},
        {"core.trace_backward_ms", "core.trace_backward"},
        {"core.trace_forward_ms", "core.trace_forward"},
        {"plan.lazy_backward_ms", "plan.lazy_backward"},
        {"engine.lazy_forward_ms", "engine.lazy_forward"},
        {"query.backward_rids_ms", "query.backward_rids"},
        {"query.materialize_ms", "query.materialize"},
        {"query.forward_rids_ms", "query.forward_rids"},
    };
    for (const auto& l : layers) PrintSamples(&first, l[0], SelfTimes(l[1]));
    PrintSamples(&first, "lineage.store.bytes",
                 {static_cast<double>(
                     fx.trace_engine.LineageMemoryStats().total_bytes)});
  }
  std::printf("}}\n");
  return 0;
}
