// Phase `resident`: one durable server::Database driven by one client in a
// closed loop (each operation starts when the previous one returned).
//
// The program has one IDB predicate per query route:
//   T — transitive closure (s1a shape): iterate-selection;
//   S — s11 shape (class E): resident filter over the maintained IDB;
//   D — s10 shape (class D, rank 2): bounded inline expansion.
// A round is one write step (an insert batch, then a delete batch, each
// touching kBatchTuples tuples of each of E, C and K) followed by kReads
// reads on each route; a read sample is the round's mean per read. Every kGroupEvery-th round also submits a group of
// kGroupBatches batches under Pause/SubmitAsync/Resume, so the group size
// never depends on timing. Deletes remove seeded existing tuples and inserts
// add as many new ones, so the EDB size stays fixed over the run.
//
// Durability is armed with the default flush policy (fsync on snapshots
// only) in a fresh directory; writes go through EnableAdmission + Submit.
//
// Checks: every kCheckEvery rounds and at the end, the resident EDB and IDB
// against the benchmark's mirror of the EDB and the reference evaluator,
// and that round's read answers against the reference; at the end, the
// state OpenOrRecover revives against the state before the restart.

#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "classify/program_analysis.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "server/database.h"
#include "server/durability.h"

namespace recurbench {
namespace {

using recur::SymbolTable;
namespace ra = recur::ra;
namespace eval = recur::eval;
namespace datalog = recur::datalog;
namespace server = recur::server;

constexpr char kProgram[] =
    "T(X, Y) :- E(X, Y).\n"
    "T(X, Y) :- E(X, Z), T(Z, Y).\n"
    "S(X, Y) :- F(X, Y).\n"
    "S(X, Y) :- A(X, X1), B(Y, Y1), C(X1, Y1), S(X1, Y1).\n"
    "D(X, Y) :- G(X, Y).\n"
    "D(X, Y) :- H(Y), K(X, Y1), D(X1, Y1).\n";

constexpr int kTcLayers = 8;
constexpr int kTcWidth = 24;
constexpr int kEPerNode = 2;  // E edges per node of the first 7 layers
constexpr int kSLevels = 4;  // levels below the roots
constexpr int kSWidth = 24;
constexpr int kFPerRoot = 8;  // F pairs per root: most of S, a fixed count
constexpr int kCPerNode = 6;  // C pairs per x node and level
constexpr int kDDomain = 64;
constexpr int kDRows = 96;
constexpr int kBatchTuples = 2;
constexpr int kReads = 8;
constexpr int kGroupEvery = 4;
constexpr int kGroupBatches = 4;
constexpr int kCheckEvery = 8;

constexpr const char* kRoutePred[3] = {"T", "S", "D"};
constexpr server::RouteKind kRouteKind[3] = {server::RouteKind::kIterateSelection,
                                             server::RouteKind::kResidentFilter,
                                             server::RouteKind::kBoundedInline};
constexpr const char* kReadMetric[3] = {"read_iterate_us", "read_filter_us",
                                        "read_inline_us"};

// One EDB relation the writes churn: the tuples present now, and a sampler
// of candidate tuples from its universe.
struct Churned {
  const char* pred;
  std::vector<Tuple> present;
  std::unordered_map<Tuple, size_t, TupleHash> where;
  std::function<Tuple(Rng*)> candidate;

  void Add(const Tuple& t) {
    where.emplace(t, present.size());
    present.push_back(t);
  }
  void Remove(const Tuple& t) {
    const size_t i = where.at(t);
    where[present.back()] = i;
    present[i] = present.back();
    present.pop_back();
    where.erase(t);
  }
};

struct Read {
  int route;
  Value constant;
  Digest digest;
};

class Resident : public Phase {
 public:
  const char* name() const override { return "resident"; }

  void Setup(Context* ctx) override {
    rng_ = std::make_unique<Rng>(ctx->seed * 3 + 3);
    Rng& rng = *rng_;
    // Every churned relation starts as a uniform sample of its universe, the
    // distribution the churn keeps it in, so the state is stationary from
    // the first round.
    churned_.resize(3);
    // T: random edges between adjacent layers of a layered DAG.
    tc_nodes_ = RandomLabels(kTcLayers * kTcWidth, &rng);
    churned_[0].pred = "E";
    churned_[0].candidate = [this](Rng* r) {
      const int l = static_cast<int>(r->Below(kTcLayers - 1));
      return Tuple{tc_nodes_[l * kTcWidth + r->Below(kTcWidth)],
                   tc_nodes_[(l + 1) * kTcWidth + r->Below(kTcWidth)]};
    };
    // S: A and B map each node to one node of the level above (one child
    // per node, so |S| varies little across seeds); C is a churned
    // same-level pairing and F holds kFPerRoot root pairs per root.
    xs_ = RandomLabels((kSLevels + 1) * kSWidth, &rng);
    ys_ = RandomLabels((kSLevels + 1) * kSWidth, &rng);
    for (int l = 0; l < kSLevels; ++l) {
      for (int j = 0; j < kSWidth; ++j) {
        fixed_["A"].insert({xs_[(l + 1) * kSWidth + j], xs_[l * kSWidth + j]});
        fixed_["B"].insert({ys_[(l + 1) * kSWidth + j], ys_[l * kSWidth + j]});
      }
    }
    while (fixed_["F"].size() < static_cast<size_t>(kFPerRoot * kSWidth)) {
      fixed_["F"].insert({xs_[rng.Below(kSWidth)], ys_[rng.Below(kSWidth)]});
    }
    churned_[1].pred = "C";
    churned_[1].candidate = [this](Rng* r) {
      const int l = static_cast<int>(r->Below(kSLevels + 1));
      return Tuple{xs_[l * kSWidth + r->Below(kSWidth)], ys_[l * kSWidth + r->Below(kSWidth)]};
    };
    // D: small random relations over one domain; K is churned.
    d_domain_ = RandomLabels(kDDomain, &rng);
    churned_[2].pred = "K";
    churned_[2].candidate = [this](Rng* r) {
      return Tuple{d_domain_[r->Below(kDDomain)], d_domain_[r->Below(kDDomain)]};
    };
    const size_t initial[3] = {kEPerNode * (kTcLayers - 1) * kTcWidth,
                               kCPerNode * (kSLevels + 1) * kSWidth, kDRows};
    for (int i = 0; i < 3; ++i) {
      Churned* c = &churned_[i];
      const size_t want = initial[i];
      while (c->present.size() < want) {
        Tuple t = c->candidate(&rng);
        if (c->where.count(t) == 0) c->Add(t);
      }
    }
    while (fixed_["G"].size() < static_cast<size_t>(kDRows)) {
      fixed_["G"].insert({d_domain_[rng.Below(kDDomain)], d_domain_[rng.Below(kDDomain)]});
    }
    while (fixed_["H"].size() < static_cast<size_t>(kDDomain / 4)) {
      fixed_["H"].insert({d_domain_[rng.Below(kDDomain)]});
    }

    // Load and bootstrap.
    auto program = datalog::ParseProgram(kProgram, &symbols_);
    if (!program.ok()) throw std::runtime_error(program.status().ToString());
    ra::Database edb;
    for (const auto& [pred, rows] : MirrorEdb()) {
      ra::Relation* rel = *edb.GetOrCreate(symbols_.Intern(pred),
                                           static_cast<int>(rows.begin()->size()));
      for (const Tuple& t : rows) rel->Insert(t);
    }
    dir_ = ctx->tmp_dir + "/resident";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    options_.durability.dir = dir_;
    options_.durability.program_text = kProgram;
    program_ = *program;
    const auto t0 = Clock::now();
    {
      Scope span(&ctx->tracer, "server.Database.Create", ctx->next_op++);
      auto db = server::Database::Create(std::move(*program), std::move(edb),
                                         &symbols_, options_);
      if (!db.ok()) throw std::runtime_error(db.status().ToString());
      db_ = std::move(*db);
    }
    bootstrap_s_ = SecondsSince(t0);
    db_->EnableAdmission();
  }

  void Prepare(Context* ctx) override {
    for (int r = 0; r < 3; ++r) {
      const server::Route* route = db_->FindRoute(symbols_.Lookup(kRoutePred[r]));
      if (route == nullptr || route->kind != kRouteKind[r]) {
        ctx->report.Fail(std::string("resident: ") + kRoutePred[r] + " routed as " +
                         (route ? server::ToString(route->kind) : "nothing"));
      }
    }
    CheckState(ctx);
  }

  void Round(Context* ctx, int round) override {
    reads_.clear();
    Write(ctx, /*insert=*/true);
    Write(ctx, /*insert=*/false);
    if (round % kGroupEvery == kGroupEvery - 1) Group(ctx);
    for (int r = 0; r < 3; ++r) {
      double seconds = 0;
      for (int i = 0; i < kReads; ++i) seconds += ReadOnce(ctx, r);
      ctx->Sample(kReadMetric[r], seconds * 1e6 / kReads);
    }
    if (round % kCheckEvery == 0) CheckState(ctx);
  }

  void Finish(Context* ctx) override {
    reads_.clear();
    CheckState(ctx);
    auto& layer = ctx->report.layer;
    layer["server.bootstrap_s"] = bootstrap_s_;
    layer["server.maint_iterations"] = maint_iterations_ / std::max(1.0, batches_);
    layer["server.maint_join_probes"] = maint_probes_ / std::max(1.0, batches_);
    layer["server.wal_encode_us"] = Median(wal_encode_us_);
    layer["server.group_commit_ms"] = Median(group_ms_);
    const auto cache = db_->plan_cache_stats();
    layer["server.plan_cache_hit_ratio"] =
        static_cast<double>(cache.hits) / std::max<size_t>(1, cache.hits + cache.misses);
    const server::ServerStats stats = db_->overload_stats();
    layer["server.batches_per_group"] =
        static_cast<double>(stats.committed_batches) / std::max<uint64_t>(1, stats.groups);
    if (stats.sheds != 0) ctx->report.Fail("resident: the committer shed a batch");
    if (ctx->trace) MeasureAnalysisAndRecompute(ctx);
    Restart(ctx);
    std::filesystem::remove_all(dir_);
  }

 private:
  RefDb MirrorEdb() const {
    RefDb edb = fixed_;
    for (const Churned& c : churned_) edb[c.pred].insert(c.present.begin(), c.present.end());
    return edb;
  }

  // Picks one batch: deletes of present tuples or inserts of absent ones,
  // none of them in `touched` (the tuples the same group already uses).
  eval::EdbDeltas PickBatch(bool insert, TupleSet* touched,
                            std::vector<std::pair<int, Tuple>>* picked) {
    eval::EdbDeltas deltas;
    for (int c = 0; c < 3; ++c) {
      Churned& ch = churned_[c];
      eval::EdbDelta delta(static_cast<int>(ch.candidate(rng_.get()).size()));
      for (int i = 0; i < kBatchTuples;) {
        Tuple t = insert ? ch.candidate(rng_.get())
                         : ch.present[rng_->Below(ch.present.size())];
        if ((ch.where.count(t) != 0) == insert || !touched->insert(t).second) continue;
        (insert ? delta.inserts : delta.deletes).Insert(t);
        picked->emplace_back(c, t);
        ++i;
      }
      deltas.emplace(symbols_.Lookup(ch.pred), std::move(delta));
    }
    return deltas;
  }

  void Commit(bool insert, const std::vector<std::pair<int, Tuple>>& picked) {
    for (const auto& [c, t] : picked) {
      insert ? churned_[c].Add(t) : churned_[c].Remove(t);
    }
  }

  void Write(Context* ctx, bool insert) {
    TupleSet touched;
    std::vector<std::pair<int, Tuple>> picked;
    eval::EdbDeltas deltas = PickBatch(insert, &touched, &picked);
    const int64_t op = ctx->next_op++;
    if (ctx->tracer.enabled) EncodeWal(ctx, deltas, op);
    eval::EvalStats stats;
    recur::Status status;
    const double s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.Database.Submit", op);
      status = db_->Submit(std::move(deltas), 0.0, &stats);
    });
    ++ctx->report.attempted;
    if (!status.ok()) {
      ++ctx->report.failed;
      std::cerr << "resident write: " << status << "\n";
      return;
    }
    Commit(insert, picked);
    ctx->Sample(insert ? "insert_ms" : "delete_ms", s * 1e3);
    if (ctx->recording) {
      maint_iterations_ += stats.iterations;
      maint_probes_ += static_cast<double>(stats.join_probes);
      batches_ += 1;
    }
  }

  void Group(Context* ctx) {
    TupleSet touched;
    std::vector<std::vector<std::pair<int, Tuple>>> picked(kGroupBatches);
    std::vector<eval::EdbDeltas> batches;
    for (int b = 0; b < kGroupBatches; ++b) {
      batches.push_back(PickBatch(b % 2 == 0, &touched, &picked[b]));
    }
    const int64_t op = ctx->next_op++;
    std::vector<recur::Status> status(kGroupBatches);
    const double s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.group_commit", op);
      server::GroupCommitter* committer = db_->committer();
      committer->Pause();
      std::vector<server::GroupCommitter::Ticket> tickets;
      for (auto& batch : batches) tickets.push_back(committer->SubmitAsync(std::move(batch)));
      committer->Resume();
      for (int b = 0; b < kGroupBatches; ++b) status[b] = tickets[b].Wait();
    });
    for (int b = 0; b < kGroupBatches; ++b) {
      ++ctx->report.attempted;
      if (!status[b].ok()) {
        ++ctx->report.failed;
        std::cerr << "resident group write: " << status[b] << "\n";
        continue;
      }
      Commit(b % 2 == 0, picked[b]);
    }
    if (ctx->recording) group_ms_.push_back(s * 1e3);
  }

  void EncodeWal(Context* ctx, const eval::EdbDeltas& deltas, int64_t op) {
    const double s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.EncodeWalRecord", op);
      auto record = server::EncodeWalRecord(db_->epoch() + 1, deltas, symbols_);
      if (!record.ok()) ctx->report.Fail("resident: " + record.status().ToString());
    });
    if (ctx->recording) wal_encode_us_.push_back(s * 1e6);
  }

  // One read on `route`; returns its wall time.
  double ReadOnce(Context* ctx, int route) {
    Value constant = 0;
    switch (route) {
      case 0:
        constant = tc_nodes_[rng_->Below(4 * kTcWidth)];
        break;
      case 1:
        constant = xs_[rng_->Below(2 * kSWidth)];  // levels 0-1
        break;
      default:
        constant = d_domain_[rng_->Below(kDDomain)];
    }
    eval::Query query;
    query.pred = symbols_.Lookup(kRoutePred[route]);
    query.bindings = {constant, std::nullopt};
    recur::Result<server::QueryResult> result = recur::Status::Internal("unset");
    const int64_t op = ctx->next_op++;
    const double s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.Database.Query", op);
      result = db_->Query(query);
    });
    ++ctx->report.attempted;
    if (!result.ok()) {
      ++ctx->report.failed;
      std::cerr << "resident read: " << result.status() << "\n";
      return s;
    }
    if (result->route != kRouteKind[route]) {
      ctx->report.Fail(std::string("resident: read on ") + kRoutePred[route] +
                       " took route " + server::ToString(result->route));
    }
    reads_.push_back(Read{route, constant, DigestOf(result->rows)});
    return s;
  }

  // The resident state equals the mirror EDB and its reference fixpoint;
  // the reads since the last write step match the reference answers.
  void CheckState(Context* ctx) {
    const RefDb edb = MirrorEdb();
    RefDb idb = ReferenceFixpoint(ParseRules(kProgram), edb);
    const server::Database::Snapshot snap = db_->snapshot();
    auto compare = [&](const ra::Database& db, const RefDb& ref) {
      for (const auto& [pred, rows] : ref) {
        const ra::Relation* rel = db.Find(symbols_.Lookup(pred));
        const Digest got = rel == nullptr ? Digest{} : DigestOf(*rel);
        if (got != DigestOf(rows)) {
          ctx->report.Fail("resident: " + pred + " has " + std::to_string(got.count) +
                           " tuples, reference " + std::to_string(rows.size()));
        }
      }
    };
    compare(snap.edb(), edb);
    compare(snap.idb(), idb);
    std::unordered_map<Value, Digest> by_first[3];
    for (int r = 0; r < 3; ++r) by_first[r] = DigestByFirst(idb[kRoutePred[r]]);
    for (const Read& read : reads_) {
      auto it = by_first[read.route].find(read.constant);
      if (read.digest != (it == by_first[read.route].end() ? Digest{} : it->second)) {
        ctx->report.Fail(std::string("resident: wrong answer on ") + kRoutePred[read.route]);
      }
    }
  }

  void MeasureAnalysisAndRecompute(Context* ctx) {
    std::vector<double> analyze_us;
    for (int i = 0; i < 50; ++i) {
      analyze_us.push_back(1e6 * TimeOp([&] {
        Scope span(&ctx->tracer, "classify.AnalyzeProgram", ctx->next_op++);
        auto analysis = recur::classify::AnalyzeProgram(program_);
        if (!analysis.ok()) ctx->report.Fail(analysis.status().ToString());
      }));
    }
    ctx->report.layer["classify.analyze_program_us"] = Median(analyze_us);
    const server::Database::Snapshot snap = db_->snapshot();
    std::vector<double> recompute_ms;
    for (int i = 0; i < 9; ++i) {
      recompute_ms.push_back(1e3 * TimeOp([&] {
        Scope span(&ctx->tracer, "eval.SemiNaiveEvaluate", ctx->next_op++);
        auto idb = eval::SemiNaiveEvaluate(program_, snap.edb());
        if (!idb.ok()) ctx->report.Fail(idb.status().ToString());
      }));
    }
    std::vector<double> deletes = ctx->report.samples["delete_ms"];
    const auto& traced = ctx->report.traced["delete_ms"];
    deletes.insert(deletes.end(), traced.begin(), traced.end());
    ctx->report.layer["server.delete_vs_recompute"] = Median(deletes) / Median(recompute_ms);
  }

  // Snapshot, one more batch into the write-ahead log, restart, and compare.
  void Restart(Context* ctx) {
    const double save_s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.Database.SaveSnapshot", ctx->next_op++);
      const recur::Status st = db_->SaveSnapshot();
      if (!st.ok()) ctx->report.Fail("resident snapshot: " + st.ToString());
    });
    ctx->report.layer["server.snapshot_save_ms"] = save_s * 1e3;
    TupleSet touched;
    std::vector<std::pair<int, Tuple>> picked;
    const recur::Status st = db_->Submit(PickBatch(true, &touched, &picked));
    if (!st.ok()) ctx->report.Fail("resident: " + st.ToString());
    Commit(true, picked);

    std::map<std::string, Digest> before;
    {
      const server::Database::Snapshot snap = db_->snapshot();
      for (const auto& db : {&snap.edb(), &snap.idb()}) {
        for (const auto& [pred, rel] : db->relations()) before[symbols_.NameOf(pred)] = DigestOf(*rel);
      }
    }
    db_.reset();
    const double recover_s = TimeOp([&] {
      Scope span(&ctx->tracer, "server.Database.OpenOrRecover", ctx->next_op++);
      auto db = server::Database::OpenOrRecover(dir_, kProgram, &symbols_, options_);
      if (!db.ok()) {
        ctx->report.Fail("resident recovery: " + db.status().ToString());
        return;
      }
      db_ = std::move(*db);
    });
    ctx->report.layer["server.recover_ms"] = recover_s * 1e3;
    if (db_ == nullptr) return;
    std::map<std::string, Digest> after;
    const server::Database::Snapshot snap = db_->snapshot();
    for (const auto& db : {&snap.edb(), &snap.idb()}) {
      for (const auto& [pred, rel] : db->relations()) after[symbols_.NameOf(pred)] = DigestOf(*rel);
    }
    if (after != before) ctx->report.Fail("resident: recovered state differs");
    reads_.clear();
    CheckState(ctx);
  }

  SymbolTable symbols_;
  std::unique_ptr<Rng> rng_;
  std::vector<Value> tc_nodes_, xs_, ys_, d_domain_;
  std::vector<Churned> churned_;
  RefDb fixed_;
  datalog::Program program_;
  server::ServerOptions options_;
  std::string dir_;
  double bootstrap_s_ = 0;
  double maint_iterations_ = 0, maint_probes_ = 0, batches_ = 0;
  std::vector<double> wal_encode_us_, group_ms_;
  std::vector<Read> reads_;
  std::unique_ptr<server::Database> db_;
};

}  // namespace

std::unique_ptr<Phase> MakeResident() { return std::make_unique<Resident>(); }

}  // namespace recurbench
