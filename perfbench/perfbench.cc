// socs_perfbench: wall-clock benchmark of the socs SQL server. One process
// runs one named workload for one seed: it loads SkyServer-like rows through
// the public C++ API, serves them from an in-process SqlServer on loopback
// and replays a statement stream fixed by the seed from one client
// connection in a closed loop, timing each statement from send until its
// whole reply has arrived. Every reply is checked against an oracle the
// benchmark computes itself (inputs.h). See README.md for the workloads and
// metrics.
//
//   socs_perfbench --workload sky_count --seed 1 --seconds 30 --trace 0
//                  [--short] [--out DIR] [--data-root DIR]
//
// A run repeats whole rounds until --seconds have passed. A round always
// starts from freshly loaded rows and replays a stream fixed by (seed,
// round), so the seed fixes every learned layout and byte count; only the
// number of rounds depends on the host. --trace 1 replays each round three
// times -- over TCP with a span around each round trip, in-process through
// the same calls Session::Execute makes with a span around each, and through
// the strategy's own RunRange/Append -- and prints per-layer metrics instead.
// The last line of standard output is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive_segmentation.h"
#include "core/apm.h"
#include "engine/catalog.h"
#include "engine/mal_interpreter.h"
#include "engine/optimizer.h"
#include "exec/task_scheduler.h"
#include "inputs.h"
#include "persist/bootstrap.h"
#include "persist/store.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "spans.h"
#include "sql/compiler.h"
#include "sql/parser.h"

namespace {

using namespace socs;
using namespace perfbench;
using server::WireReply;
namespace fs = std::filesystem;

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  Shape full;
  Shape quick;  // --short: a few seconds end to end, for self-checks
  bool compression = false;
  bool durable = false;
  uint64_t checkpoint_every = 0;  // statements between background checkpoints
  size_t probes = 0;              // range probes after the restart
};

const Workload kWorkloads[] = {
    {"sky_count", {8'000'000, 500, 0, 0}, {200'000, 300, 0, 0}},
    {"sky_count_packed",
     {2'000'000, 600, 0, 0},
     {200'000, 300, 0, 0},
     /*compression=*/true},
    {"sky_ingest_durable",
     {1'000'000, 200, 4, 16},
     {100'000, 120, 4, 16},
     false,
     /*durable=*/true,
     /*checkpoint_every=*/100,
     /*probes=*/32},
};

struct Env {
  const Workload* w = nullptr;
  Shape shape;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".bench_out";
  std::string data_root;
  size_t threads = 1;  // TaskScheduler: fan-out pool plus background lane
  // One client in a closed loop keeps at most one statement in flight, so
  // one executor serves it. With two, consecutive statements alternate
  // between threads and malloc arenas, and one seed's memory peak moved
  // 85-104 MB from run to run.
  size_t executors = 1;
};

/// APM bounds of the paper's SkyServer runs (1 MB and 5 MB of a 180 MB
/// column), scaled to this column's size in bytes.
uint64_t ApmMin(size_t rows) { return rows * sizeof(OidValue) / 180 + 1; }
uint64_t ApmMax(size_t rows) { return rows * sizeof(OidValue) * 5 / 180 + 1; }

SegmentSpace::Options SpaceOptions(const Env& env) {
  SegmentSpace::Options o;
  o.compression = env.w->compression;
  return o;
}

std::unique_ptr<AdaptiveSegmentation<OidValue>> MakeStrategy(
    const std::vector<Row>& rows, SegmentSpace* space) {
  std::vector<OidValue> v;
  v.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) v.push_back({i, rows[i].ra});
  return std::make_unique<AdaptiveSegmentation<OidValue>>(
      std::move(v), ValueRange(0.0, 360.0),
      std::make_unique<Apm>(ApmMin(rows.size()), ApmMax(rows.size())), space);
}

// --- the program's state for one round -----------------------------------------

struct Db {
  std::unique_ptr<persist::PersistentStore> store;
  std::unique_ptr<SegmentSpace> space;
  std::unique_ptr<Catalog> cat;
};

Status OpenStore(const std::string& dir, Db* db) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  persist::PersistentStore::Options popts;
  popts.dir = dir;  // fsync_data stays at its default (on)
  auto opened = persist::PersistentStore::Open(std::move(popts));
  if (!opened.ok()) return opened.status();
  db->store = std::move(*opened);
  db->space->set_durability(db->store.get());
  return Status::OK();
}

/// Loads the rows into a fresh catalog (P: ra adaptive-segmented with APM,
/// objid plain); with `dir`, mirrors it there and commits a first checkpoint.
Status BuildDb(const Env& env, const std::vector<Row>& rows,
               const std::string& dir, Db* db) {
  db->space = std::make_unique<SegmentSpace>(CostParams{}, 0, SpaceOptions(env));
  db->cat = std::make_unique<Catalog>();
  if (!dir.empty()) SOCS_RETURN_IF_ERROR(OpenStore(dir, db));
  std::vector<int64_t> objid(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) objid[i] = rows[i].objid;
  auto col = std::make_unique<SegmentedColumn>(
      Catalog::SegHandle("P", "ra"), ValType::kDbl,
      MakeStrategy(rows, db->space.get()), db->space.get());
  SOCS_RETURN_IF_ERROR(db->cat->AddSegmentedColumn("P", "ra", std::move(col)));
  SOCS_RETURN_IF_ERROR(db->cat->AddColumn("P", "objid", TypedVector::Of(std::move(objid))));
  if (db->store != nullptr) {
    auto gen = persist::CheckpointNow(db->store.get(), *db->cat);
    if (!gen.ok()) return gen.status();
  }
  return Status::OK();
}

/// Reopens `dir` and restores the catalog it holds.
Status RecoverDb(const Env& env, const std::string& dir, Db* db,
                 Spans* spans = nullptr) {
  db->space = std::make_unique<SegmentSpace>(CostParams{}, 0, SpaceOptions(env));
  db->cat = std::make_unique<Catalog>();
  {
    Spans::Scope sp(spans, "persist.open", -1);
    SOCS_RETURN_IF_ERROR(OpenStore(dir, db));
  }
  Spans::Scope sp(spans, "persist.restore", -1);
  auto report = persist::RestoreDatabase(db->store.get(), db->space.get(), db->cat.get());
  return report.ok() ? Status::OK() : report.status();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

uint64_t NewestCheckpointBytes(const std::string& dir) {
  uint64_t gen = 0, bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string n = e.path().filename().string();
    if (n.rfind("checkpoint_", 0) != 0) continue;
    const uint64_t g = std::strtoull(n.c_str() + 11, nullptr, 10);
    if (g >= gen) {
      gen = g;
      bytes = e.file_size(ec);
    }
  }
  return bytes;
}

// --- checks --------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(why);
  }
};

/// Checks one reply against the oracle's expectation. ERR replies count as
/// failed statements; a wrong answer makes the run incorrect.
void CheckReply(const Statement& s, const Expected& e, const WireReply& r,
                Tally* t) {
  ++t->attempted;
  if (!r.ok) {
    ++t->failed;
    if (t->problems.size() < 8) t->problems.push_back("ERR " + r.error + " for " + s.text);
    return;
  }
  Expected got;
  switch (s.kind) {
    case Statement::Kind::kCount:
    case Statement::Kind::kInsert:
      if (r.rows.size() != 1) {
        t->Fail("expected one row for " + s.text);
        return;
      }
      got.rows = std::strtoull(r.rows[0].c_str(), nullptr, 10);
      if (s.kind == Statement::Kind::kCount && r.stats.result_count != e.rows) {
        t->Fail("#stats result_count " + std::to_string(r.stats.result_count) +
                " != " + std::to_string(e.rows) + " for " + s.text);
      }
      break;
    case Statement::Kind::kProject:
      got.rows = r.rows.size();
      for (const std::string& cell : r.rows) {
        const uint64_t v = static_cast<uint64_t>(std::strtoll(cell.c_str(), nullptr, 10));
        got.sum += v;
        got.xr ^= v;
      }
      if (r.stats.result_count != e.rows) {
        t->Fail("#stats result_count " + std::to_string(r.stats.result_count) +
                " != " + std::to_string(e.rows) + " for " + s.text);
      }
      break;
  }
  if (!(got == e)) {
    t->Fail("reply (" + std::to_string(got.rows) + " rows) != oracle (" +
            std::to_string(e.rows) + " rows) for " + s.text);
  }
}

/// client::Connection::Execute, inside a tcp.roundtrip span when traced.
StatusOr<WireReply> Roundtrip(client::Connection& conn, const std::string& text,
                              int64_t stmt, Spans* spans) {
  Spans::Scope rt(spans, "tcp.roundtrip", stmt);
  return conn.Execute(text);
}

// --- per-round records --------------------------------------------------------------

uint64_t ProcStatusKb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::strtoull(line.c_str() + n, nullptr, 10);
  }
  return 0;
}

struct Rusage {
  double sys_s = 0;
  uint64_t minflt = 0;
  static Rusage Now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return {u.ru_stime.tv_sec + u.ru_stime.tv_usec / 1e6,
            static_cast<uint64_t>(u.ru_minflt)};
  }
};

struct TcpRound {
  double setup_s = 0;
  double stream_s = 0;
  std::vector<double> select_ms, insert_ms;
  QueryExecution trailers;  // summed #stats of the stream
  uint64_t result_rows = 0;
  IoStats io;
  uint64_t physical_bytes = 0, decode_cache_bytes = 0;
  uint64_t bg_runs = 0, bg_skips = 0;
  uint64_t epoch_retires = 0, epoch_reclaims = 0, latch_exclusive = 0;
  uint64_t minor_faults = 0;
  double sys_cpu_s = 0;
  double hwm_mb = 0;  // process high-water mark when the stream ended
  double recover_s = 0;
  double disk_per_user_byte = 0;
};

std::vector<std::string> Report(client::Connection& c, const std::string& what,
                                Tally* t) {
  ++t->attempted;
  auto r = c.Execute(what);
  if (!r.ok() || !r->ok) {
    ++t->failed;
    t->Fail(what + " failed");
    return {};
  }
  return r->rows;
}

std::vector<std::string> SplitCsv(const std::string& row) {
  std::vector<std::string> out;
  std::stringstream ss(row);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

server::SqlServer::Options ServerOptions(const Env& env, Db* db) {
  server::SqlServer::Options o;
  o.executors = env.executors;
  o.persist = db->store.get();
  o.checkpoint_every = db->store != nullptr ? env.w->checkpoint_every : 0;
  return o;
}

/// One round over TCP: set-up, the stream, the reports, a graceful Stop and,
/// for the durable workload, a restart from the data directory and probes.
TcpRound RunTcpRound(const Env& env, const std::vector<Row>& rows,
                     const std::vector<Statement>& stream,
                     const std::vector<Expected>& expect, Oracle* oracle,
                     const std::string& dir, int64_t stmt_base, Spans* spans,
                     Tally* t) {
  TcpRound out;
  const int64_t t0 = NowNs();
  Db db, re;  // `re`: the restarted server's state; both outlive `srv`
  if (Status st = BuildDb(env, rows, dir, &db); !st.ok()) {
    t->Fail("set-up: " + st.ToString());
    return out;
  }
  auto sched = std::make_unique<TaskScheduler>(env.threads);
  auto srv = std::make_unique<server::SqlServer>(db.cat.get(), sched.get(),
                                                 ServerOptions(env, &db));
  if (Status st = srv->Start(); !st.ok()) {
    t->Fail("server start: " + st.ToString());
    return out;
  }
  auto conn = client::Connection::Connect("127.0.0.1", srv->port());
  if (!conn.ok()) {
    t->Fail("connect: " + conn.status().ToString());
    return out;
  }
  out.setup_s = (NowNs() - t0) / 1e9;

  const Rusage u0 = Rusage::Now();
  const int64_t s0 = NowNs();
  for (size_t i = 0; i < stream.size(); ++i) {
    const Statement& s = stream[i];
    const int64_t a = NowNs();
    auto r = Roundtrip(*conn, s.text, stmt_base + static_cast<int64_t>(i), spans);
    const double ms = (NowNs() - a) / 1e6;
    if (!r.ok()) {
      ++t->attempted;
      ++t->failed;
      t->Fail("connection: " + r.status().ToString());
      return out;
    }
    CheckReply(s, expect[i], *r, t);
    (s.kind == Statement::Kind::kInsert ? out.insert_ms : out.select_ms).push_back(ms);
    out.trailers += r->stats;
    if (s.kind != Statement::Kind::kInsert) out.result_rows += r->stats.result_count;
  }
  out.stream_s = (NowNs() - s0) / 1e9;
  out.hwm_mb = ProcStatusKb("VmHWM:") / 1024.0;
  const Rusage u1 = Rusage::Now();
  out.minor_faults = u1.minflt - u0.minflt;
  out.sys_cpu_s = u1.sys_s - u0.sys_s;

  if (env.w->compression) {
    for (const std::string& row : Report(*conn, "#compression", t)) {
      const auto cells = SplitCsv(row);
      if (cells.size() < 3) continue;
      out.physical_bytes += std::strtoull(cells[2].c_str(), nullptr, 10);
      out.decode_cache_bytes += std::strtoull(cells.back().c_str(), nullptr, 10);
    }
  }
  std::vector<std::string> layout;
  if (db.store != nullptr) layout = Report(*conn, "#layout", t);
  out.io = db.space->stats();

  srv->Stop();
  const auto ledger = srv->Ledger();
  out.bg_runs = ledger.runs;
  out.bg_skips = ledger.skips;
  if (ledger.columns_with_pending_work != 0) t->Fail("pending maintenance after Stop");
  const AccessStrategy<OidValue>* strat = db.cat->SegmentedColumns()[0]->strategy();
  out.epoch_retires = strat->epochs().retires();
  out.epoch_reclaims = strat->epochs().reclaims();
  out.latch_exclusive = strat->latch().exclusive_acquisitions();
  srv.reset();
  sched.reset();
  if (db.store == nullptr) return out;

  // Durable: the data directory after the final checkpoint, then a restart.
  uint64_t stored_values = rows.size();
  for (const Statement& s : stream) stored_values += s.rows.size();
  out.disk_per_user_byte = static_cast<double>(DirBytes(dir)) /
                           static_cast<double>(stored_values * sizeof(double));
  db = Db{};

  const int64_t r0 = NowNs();
  if (Status st = RecoverDb(env, dir, &re); !st.ok()) {
    t->Fail("recover: " + st.ToString());
    return out;
  }
  sched = std::make_unique<TaskScheduler>(env.threads);
  srv = std::make_unique<server::SqlServer>(re.cat.get(), sched.get(),
                                            ServerOptions(env, &re));
  if (Status st = srv->Start(); !st.ok()) {
    t->Fail("restart: " + st.ToString());
    return out;
  }
  auto again = client::Connection::Connect("127.0.0.1", srv->port());
  if (!again.ok()) {
    t->Fail("reconnect: " + again.status().ToString());
    return out;
  }
  // The first probe covers the whole domain: every acknowledged row.
  const Statement all = MakeSelect(Statement::Kind::kCount, RangeQuery(0.0, 360.0));
  auto first = again->Execute(all.text);
  out.recover_s = (NowNs() - r0) / 1e9;
  if (!first.ok()) {
    t->Fail("probe: " + first.status().ToString());
    return out;
  }
  CheckReply(all, {oracle->TotalRows(), 0, 0}, *first, t);
  if (Report(*again, "#layout", t) != layout) t->Fail("#layout changed across the restart");
  const auto persist = Report(*again, "#persist", t);
  if (persist.size() != 1 || SplitCsv(persist[0]).back() != "ok") {
    t->Fail("#persist health is not ok");
  }
  const socs::Workload probes = Windows(env.seed ^ 0x5eed, env.w->probes);
  for (size_t p = 0; p < probes.size(); ++p) {
    const Statement s = MakeSelect(
        p % 2 == 0 ? Statement::Kind::kCount : Statement::Kind::kProject, probes[p]);
    auto r = again->Execute(s.text);
    if (!r.ok()) {
      ++t->attempted;
      ++t->failed;
      t->Fail("probe: " + r.status().ToString());
      return out;
    }
    CheckReply(s, oracle->Select(s), *r, t);
  }
  srv->Stop();
  return out;
}

// --- the traced in-process replay ----------------------------------------------------

struct InprocRound {
  QueryExecution trailers;
  uint64_t reply_bytes = 0;  // serialized replies, as the server sends them
  uint64_t mirror_bytes = 0;
  uint64_t delta_records = 0;
  double live_fraction = 0;
  uint64_t checkpoint_bytes = 0;
};

Status Checkpoint(persist::PersistentStore* store, Catalog& cat, Spans* spans,
                  uint64_t* delta_records) {
  Spans::Scope ck(spans, "persist.checkpoint", -1);
  *delta_records += store->stats().delta_records_since_checkpoint;
  const uint64_t seq = store->BeginCapture();
  StatusOr<persist::DatabaseImage> image = Status::Internal("not captured");
  {
    Spans::Scope s(spans, "persist.capture", -1);
    image = persist::CaptureDatabase(cat);
  }
  if (!image.ok()) return image.status();
  Spans::Scope s(spans, "persist.commit", -1);
  auto gen = store->WriteCheckpoint(*image, seq);
  return gen.ok() ? Status::OK() : gen.status();
}

/// Replays the stream through the calls Session::Execute makes, in its
/// order, with a span around each; checkpoints run inline at the server's
/// cadence, and the durable workload ends with a reopen and restore.
InprocRound RunInprocRound(const Env& env, const std::vector<Row>& rows,
                           const std::vector<Statement>& stream,
                           const std::vector<Expected>& expect,
                           const std::string& dir, int64_t stmt_base,
                           Spans* spans, Tally* t) {
  InprocRound out;
  Db db;
  if (Status st = BuildDb(env, rows, dir, &db); !st.ok()) {
    t->Fail("in-process set-up: " + st.ToString());
    return out;
  }
  TaskScheduler sched(env.threads);
  MalInterpreter interp(db.cat.get());
  interp.set_exec(&sched);
  for (size_t i = 0; i < stream.size(); ++i) {
    const int64_t id = stmt_base + static_cast<int64_t>(i);
    const Statement& s = stream[i];
    WireReply reply;
    std::string wire;
    {
      Spans::Scope root(spans, "stmt", id);
      StatusOr<sql::Statement> stmt = Status::Internal("not parsed");
      {
        Spans::Scope sp(spans, "sql.parse", id);
        stmt = sql::ParseStatement(s.text);
      }
      if (!stmt.ok()) {
        reply = server::MakeErrorReply(stmt.status().ToString());
      } else {
        std::unique_lock<std::mutex> write_lock;
        if (stmt->kind == sql::Statement::Kind::kInsert) {
          write_lock = db.cat->LockTableWrites(stmt->insert.table);
        }
        StatusOr<MalProgram> prog = Status::Internal("not compiled");
        {
          Spans::Scope sp(spans, "sql.compile", id);
          prog = sql::Compile(*stmt, *db.cat);
        }
        Status st = prog.status();
        if (st.ok()) {
          Spans::Scope sp(spans, "engine.optimize", id);
          OptContext octx;
          octx.catalog = db.cat.get();
          PassManager pm = MakeDefaultPipeline();
          st = pm.Run(&prog.value(), &octx);
        }
        StatusOr<std::shared_ptr<ResultSet>> rs = st;
        if (st.ok()) {
          Spans::Scope sp(spans, "engine.execute", id);
          rs = interp.Run(*prog);
        }
        write_lock = {};
        Spans::Scope sp(spans, "server.format", id);
        reply = rs.ok() ? server::MakeResultReply(**rs, interp.last_execution())
                        : server::MakeErrorReply(rs.status().ToString());
        wire = reply.Serialize();
      }
      out.reply_bytes += wire.size();
      if (!wire.empty()) {
        Spans::Scope sp(spans, "server.client_parse", id);
        std::istringstream is(wire);
        auto parsed = server::ParseReply(
            [&](std::string* line) { return static_cast<bool>(std::getline(is, *line)); });
        if (parsed.ok()) reply = std::move(*parsed);
        else t->Fail("in-process reply does not parse: " + parsed.status().ToString());
      }
    }
    CheckReply(s, expect[i], reply, t);
    out.trailers += reply.stats;
    if (db.store != nullptr && (i + 1) % env.w->checkpoint_every == 0) {
      if (Status st = Checkpoint(db.store.get(), *db.cat, spans, &out.delta_records);
          !st.ok()) {
        t->Fail("checkpoint: " + st.ToString());
      }
    }
  }
  sched.DrainBackground();  // idle-maintenance passes still reference `db`
  if (db.store == nullptr) return out;
  const auto before = db.store->stats();
  out.mirror_bytes = before.live_payload_bytes + before.dead_payload_bytes;
  if (Status st = Checkpoint(db.store.get(), *db.cat, spans, &out.delta_records);
      !st.ok()) {
    t->Fail("final checkpoint: " + st.ToString());
  }
  const auto after = db.store->stats();
  const uint64_t payload = after.live_payload_bytes + after.dead_payload_bytes;
  out.live_fraction = payload == 0 ? 0 : static_cast<double>(after.live_payload_bytes) / payload;
  out.checkpoint_bytes = NewestCheckpointBytes(dir);
  const std::vector<SegmentInfo> layout =
      db.cat->SegmentedColumns()[0]->strategy()->Segments();
  db = Db{};
  Db re;
  if (Status st = RecoverDb(env, dir, &re, spans); !st.ok()) {
    t->Fail("in-process recover: " + st.ToString());
    return out;
  }
  const std::vector<SegmentInfo> restored =
      re.cat->SegmentedColumns()[0]->strategy()->Segments();
  bool same = restored.size() == layout.size();
  for (size_t i = 0; same && i < layout.size(); ++i) {
    same = restored[i].id == layout[i].id && restored[i].count == layout[i].count &&
           restored[i].range == layout[i].range;
  }
  if (!same) t->Fail("in-process restore changed the layout");
  return out;
}

/// The same ranges and rows straight through the strategy's RunRange/Append
/// on an identically built column.
QueryExecution RunCoreRound(const Env& env, const std::vector<Row>& rows,
                            const std::vector<Statement>& stream,
                            int64_t stmt_base, Spans* spans) {
  SegmentSpace space(CostParams{}, 0, SpaceOptions(env));
  auto strat = MakeStrategy(rows, &space);
  uint64_t next_oid = rows.size();
  QueryExecution sum;
  for (size_t i = 0; i < stream.size(); ++i) {
    const int64_t id = stmt_base + static_cast<int64_t>(i);
    const Statement& s = stream[i];
    if (s.kind == Statement::Kind::kInsert) {
      std::vector<OidValue> v;
      for (const Row& r : s.rows) v.push_back({next_oid++, r.ra});
      Spans::Scope sp(spans, "core.append", id);
      sum += strat->Append(v);
    } else {
      Spans::Scope sp(spans, "core.range", id);
      sum += strat->RunRange(
          ValueRange(s.lo, std::nextafter(s.hi, std::numeric_limits<double>::infinity())));
    }
  }
  return sum;
}

// --- statistics and output ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }
  void Print(std::FILE* f) const {
    for (const auto& m : items_) {
      std::fprintf(f, "  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::vector<double> Values(const std::map<int64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [k, v] : m) {
    if (k >= 0) out.push_back(v);
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Env* env) {
  std::string workload;
  long long seed = -1, trace = -1;
  double seconds = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) workload = argv[++i];
    else if (a == "--seed" && has) seed = std::atoll(argv[++i]);
    else if (a == "--seconds" && has) seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has) trace = std::atoll(argv[++i]);
    else if (a == "--out" && has) env->out_dir = argv[++i];
    else if (a == "--data-root" && has) env->data_root = argv[++i];
    else if (a == "--short") env->quick = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) env->w = &w;
  }
  if (env->w == nullptr || seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: socs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--short] [--out DIR] [--data-root DIR]\n");
    return false;
  }
  env->shape = env->quick ? env->w->quick : env->w->full;
  env->seed = static_cast<uint64_t>(seed);
  env->seconds = seconds;
  env->trace = trace == 1;
  if (env->w->durable && env->data_root.empty()) env->data_root = env->out_dir;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  env->threads = static_cast<size_t>(std::clamp<long>(cpus, 1, 4));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Env env;
  if (!ParseArgs(argc, argv, &env)) return 2;

  const Rows inputs = MakeRows(env.shape);
  const std::vector<Row>& rows = inputs.base;
  Oracle oracle(rows);
  const double rss0_mb = ProcStatusKb("VmRSS:") / 1024.0;

  Tally tally;
  Spans spans;
  Spans* sp = env.trace ? &spans : nullptr;
  std::vector<TcpRound> tcp;
  std::vector<InprocRound> inproc;
  std::vector<QueryExecution> core;
  const int64_t start = NowNs();
  int64_t stmt_base = 0;
  do {
    const std::string round = std::to_string(tcp.size());
    const std::vector<Statement> stream =
        MakeStream(env.shape, inputs.added, env.seed, tcp.size());
    const std::vector<Expected> expect = ExpectStream(stream, &oracle);
    const std::string dir = env.w->durable ? env.data_root + "/tcp_" + round : "";
    tcp.push_back(RunTcpRound(env, rows, stream, expect, &oracle, dir, stmt_base, sp, &tally));
    if (!dir.empty()) fs::remove_all(dir);
    if (env.trace && tally.correct) {
      const std::string idir = env.w->durable ? env.data_root + "/inproc_" + round : "";
      inproc.push_back(
          RunInprocRound(env, rows, stream, expect, idir, stmt_base, sp, &tally));
      if (!idir.empty()) fs::remove_all(idir);
      core.push_back(RunCoreRound(env, rows, stream, stmt_base, sp));
    }
    stmt_base += static_cast<int64_t>(stream.size());
  } while (tally.correct && (NowNs() - start) / 1e9 < env.seconds);

  // The core and in-process replays must meter what the server's #stats
  // trailers reported for the same round.
  for (size_t i = 0; i < core.size(); ++i) {
    const QueryExecution& w = tcp[i].trailers;
    for (const QueryExecution* o : {&core[i], &inproc[i].trailers}) {
      if (o->read_bytes != w.read_bytes || o->write_bytes != w.write_bytes ||
          o->splits != w.splits) {
        tally.Fail(std::string(o == &core[i] ? "core" : "in-process") +
                   " replay metered read/write/splits " + std::to_string(o->read_bytes) +
                   "/" + std::to_string(o->write_bytes) + "/" + std::to_string(o->splits) +
                   " but the server reported " + std::to_string(w.read_bytes) + "/" +
                   std::to_string(w.write_bytes) + "/" + std::to_string(w.splits));
      }
    }
  }

  std::vector<double> select_ms, insert_ms, recover, disk;
  double stream_s = 0;
  size_t stream_stmts = 0;
  for (const TcpRound& r : tcp) {
    select_ms.insert(select_ms.end(), r.select_ms.begin(), r.select_ms.end());
    insert_ms.insert(insert_ms.end(), r.insert_ms.begin(), r.insert_ms.end());
    stream_s += r.stream_s;
    stream_stmts += r.select_ms.size() + r.insert_ms.size();
    recover.push_back(r.recover_s);
    disk.push_back(r.disk_per_user_byte);
  }
  const TcpRound& r0 = tcp[0];
  const double stmt_per_s = stream_s > 0 ? stream_stmts / stream_s : 0;

  Metrics m;
  if (!env.trace) {
    // Only the first round's set-up is cold: later rounds reuse the heap,
    // thread stacks and code pages it faulted in, so theirs measure a warm
    // reload. Run-to-run noise is left to the median over runs.
    m.Add("setup_s", r0.setup_s, "s");
    m.Add("stmt_per_s", stmt_per_s, "1/s");
    m.Add("select_p50_ms", Median(select_ms), "ms");
    // The first round's: memory freed by a round stays resident in the
    // allocator, so later rounds' peaks would measure its retention.
    m.Add("mem_peak_mb", r0.hwm_mb - rss0_mb, "MB");
  } else {
    // Per statement: client round trip minus the in-process time of the
    // same statement, client-side parsing included in both.
    const auto rt = spans.DurationMsByStatement("tcp.roundtrip");
    const auto inproc_total = spans.DurationMsByStatement("stmt");
    std::vector<double> wire;
    for (const auto& [id, ms] : rt) {
      if (id >= 0 && inproc_total.count(id)) wire.push_back(ms - inproc_total.at(id));
    }
    const QueryExecution& tr = r0.trailers;
    // Empty only when the first TCP round already failed a check.
    const QueryExecution core0 = core.empty() ? QueryExecution{} : core[0];
    const InprocRound inproc0 = inproc.empty() ? InprocRound{} : inproc[0];
    std::vector<double> faults, sys;
    for (const TcpRound& r : tcp) {
      faults.push_back(static_cast<double>(r.minor_faults));
      sys.push_back(r.sys_cpu_s);
    }
    const double rows_scanned = static_cast<double>(tr.read_bytes) / sizeof(OidValue);
    m.Add("server.wire_ms", Median(wire), "ms");
    m.Add("server.format_ms", Median(Values(spans.SelfMsByStatement("server.format"))), "ms");
    m.Add("server.client_parse_ms", Median(Values(spans.SelfMsByStatement("server.client_parse"))), "ms");
    m.Add("server.reply_bytes", static_cast<double>(inproc0.reply_bytes), "B");
    m.Add("sql.parse_ms", Median(Values(spans.SelfMsByStatement("sql.parse"))), "ms");
    m.Add("sql.compile_ms", Median(Values(spans.SelfMsByStatement("sql.compile"))), "ms");
    m.Add("engine.optimize_ms", Median(Values(spans.SelfMsByStatement("engine.optimize"))), "ms");
    m.Add("engine.execute_ms", Median(Values(spans.SelfMsByStatement("engine.execute"))), "ms");
    m.Add("engine.result_rows", static_cast<double>(r0.result_rows), "count");
    m.Add("core.range_ms", Median(Values(spans.SelfMsByStatement("core.range"))), "ms");
    m.Add("core.append_ms", Median(Values(spans.SelfMsByStatement("core.append"))), "ms");
    m.Add("core.read_bytes", static_cast<double>(core0.read_bytes), "B");
    m.Add("core.segments_scanned", static_cast<double>(core0.segments_scanned), "count");
    m.Add("core.scan_yield", rows_scanned > 0 ? tr.result_count / rows_scanned : 0, "ratio");
    m.Add("core.write_bytes", static_cast<double>(core0.write_bytes), "B");
    m.Add("core.splits", static_cast<double>(core0.splits), "count");
    m.Add("storage.decode_bytes", static_cast<double>(r0.io.decode_bytes), "B");
    m.Add("storage.segments_recompressed", static_cast<double>(r0.io.segments_recompressed), "count");
    m.Add("storage.kernel_scans", static_cast<double>(r0.io.kernel_scans), "count");
    m.Add("storage.physical_bytes", static_cast<double>(r0.physical_bytes), "B");
    m.Add("storage.decode_cache_bytes", static_cast<double>(r0.decode_cache_bytes), "B");
    m.Add("exec.background_runs", static_cast<double>(r0.bg_runs), "count");
    m.Add("exec.background_skips", static_cast<double>(r0.bg_skips), "count");
    m.Add("exec.epoch_retires", static_cast<double>(r0.epoch_retires), "count");
    m.Add("exec.epoch_reclaims", static_cast<double>(r0.epoch_reclaims), "count");
    m.Add("exec.latch_exclusive", static_cast<double>(r0.latch_exclusive), "count");
    m.Add("persist.mirror_bytes", static_cast<double>(inproc0.mirror_bytes), "B");
    m.Add("persist.delta_records", static_cast<double>(inproc0.delta_records), "count");
    m.Add("persist.live_fraction", inproc0.live_fraction, "ratio");
    m.Add("persist.checkpoint_bytes", static_cast<double>(inproc0.checkpoint_bytes), "B");
    m.Add("persist.disk_bytes_per_user_byte", r0.disk_per_user_byte, "ratio");
    // Per checkpoint and per recovery of the in-process replay.
    m.Add("persist.capture_ms", Median(spans.DurationsMs("persist.capture")), "ms");
    m.Add("persist.commit_ms", Median(spans.DurationsMs("persist.commit")), "ms");
    m.Add("persist.open_ms", Median(spans.DurationsMs("persist.open")), "ms");
    m.Add("persist.restore_ms", Median(spans.DurationsMs("persist.restore")), "ms");
    m.Add("sim.simulated_s", tr.TotalSeconds(), "sim_s");
    m.Add("os.minor_faults", Median(faults), "count");
    m.Add("os.sys_cpu_s", Median(sys), "s");
    m.Add("trace.stmt_per_s", stmt_per_s, "1/s");
  }

  // Human-readable summary, including the figures only the durable workload
  // has, on standard error.
  std::fprintf(stderr, "%s seed %" PRIu64 ": %zu round(s) of %zu statement(s) over %zu rows%s\n",
               env.w->name, env.seed, tcp.size(), env.shape.statements, rows.size(),
               env.trace ? " (traced)" : "");
  m.Print(stderr);
  std::fprintf(stderr, "  %-32s %14.6g ms (of %zu)\n", "select_p99_ms",
               Quantile(select_ms, 0.99), select_ms.size());
  if (!insert_ms.empty()) {
    std::fprintf(stderr, "  %-32s %14.6g ms\n", "insert_p50_ms", Median(insert_ms));
  }
  if (env.w->durable) {
    std::fprintf(stderr, "  %-32s %14.6g s\n", "recover_s", Median(recover));
    std::fprintf(stderr, "  %-32s %14.6g ratio\n", "disk_bytes_per_user_byte", Median(disk));
  }
  if (env.trace) {
    fs::create_directories(env.out_dir);
    const std::string path = env.out_dir + "/spans_" + env.w->name + "_" +
                             std::to_string(env.seed) + ".csv";
    if (!spans.WriteCsv(path)) tally.Fail("cannot write " + path);
    std::fprintf(stderr, "  spans: %s (%zu)\n", path.c_str(), spans.spans().size());
  }
  for (const std::string& p : tally.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              tally.correct ? "true" : "false", tally.attempted, tally.failed,
              m.Json().c_str());
  return tally.correct ? 0 : 1;
}
