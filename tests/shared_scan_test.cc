// Shared scans: the dispatcher's cooperative batch-mode execution across
// sessions. Three layers of evidence:
//
//   1. Batch-window formation units against a parked Dispatcher -- same-
//      column statements group into one batch, mixed columns split, a
//      non-batchable statement (INSERT) acts as a barrier that flushes the
//      batch in front of it.
//   2. A deterministic Dispatcher + Session batch whose cooperative cache
//      provably saves filter passes (scans_saved > 0) while the replies stay
//      byte-identical to the sequential per-statement oracle.
//   3. End-to-end TCP streams with shared scans ON, across all 7 strategies:
//      a pipelining client's varied stream (SELECTs + INSERT barriers) and
//      8 concurrent hot-column clients must byte-match sequential per-query
//      baselines -- replies AND #stats trailers. Batching is a scheduling
//      optimization, never a semantic one.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/adaptive_replication.h"
#include "core/adaptive_segmentation.h"
#include "core/apm.h"
#include "core/cracking.h"
#include "core/deferred_segmentation.h"
#include "core/non_segmented.h"
#include "core/positional_blocks.h"
#include "core/shared_scan.h"
#include "core/static_partition.h"
#include "engine/catalog.h"
#include "exec/task_scheduler.h"
#include "server/client.h"
#include "server/dispatcher.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "workload/range_generator.h"

namespace socs {
namespace {

using client::Connection;
using server::AnalyzeForSharedScan;
using server::Dispatcher;
using server::ParseReply;
using server::Session;
using server::SqlServer;

constexpr size_t kNumStrategies = 7;
constexpr size_t kRows = 6000;
const ValueRange kDomain(0.0, 360.0);

std::unique_ptr<AccessStrategy<OidValue>> MakeOidStrategy(
    size_t kind, std::vector<OidValue> pairs, SegmentSpace* space) {
  auto model = std::make_unique<Apm>(8 * kKiB, 32 * kKiB);
  switch (kind) {
    case 0:
      return std::make_unique<NonSegmented<OidValue>>(std::move(pairs), kDomain,
                                                      space);
    case 1:
      return std::make_unique<StaticPartition<OidValue>>(std::move(pairs),
                                                         kDomain, 8, space);
    case 2:
      return std::make_unique<PositionalBlocks<OidValue>>(
          std::move(pairs), kDomain, 16 * kKiB, space, /*use_zone_maps=*/true);
    case 3:
      return std::make_unique<CrackingColumn<OidValue>>(std::move(pairs),
                                                        kDomain, space);
    case 4:
      return std::make_unique<AdaptiveSegmentation<OidValue>>(
          std::move(pairs), kDomain, std::move(model), space);
    case 5:
      return std::make_unique<DeferredSegmentation<OidValue>>(
          std::move(pairs), kDomain, std::move(model), space);
    default:
      return std::make_unique<AdaptiveReplication<OidValue>>(
          std::move(pairs), kDomain, std::move(model), space);
  }
}

/// Deferred segmentation's reply bytes depend on when the background lane
/// flushed relative to each statement; its streams get set-equality.
bool TimingSensitive(size_t kind) { return kind == 5; }

std::string TableOf(size_t kind) {
  std::string name = "S";
  name += std::to_string(kind);
  return name;
}

/// Registers table Sk(v segmented by strategy `kind`, id plain lng).
void AddStrategyTable(size_t kind, Catalog* cat, SegmentSpace* space) {
  Rng rng(400 + kind);
  std::vector<OidValue> pairs;
  std::vector<int64_t> ids;
  for (size_t j = 0; j < kRows; ++j) {
    pairs.push_back({j, rng.NextUniform(kDomain.lo, kDomain.hi)});
    ids.push_back(static_cast<int64_t>(3'000'000 * kind + j));
  }
  const std::string table = TableOf(kind);
  auto col = std::make_unique<SegmentedColumn>(
      Catalog::SegHandle(table, "v"), ValType::kDbl,
      MakeOidStrategy(kind, std::move(pairs), space), space);
  ASSERT_TRUE(cat->AddSegmentedColumn(table, "v", std::move(col)).ok());
  ASSERT_TRUE(cat->AddColumn(table, "id", TypedVector::Of(ids)).ok());
}

std::string SelectIds(const std::string& table, double lo, double hi) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "select id from %s where v between %.17g and %.17g",
                table.c_str(), lo, hi);
  return buf;
}

// ---------------------------------------------------------------------------
// Batch-window formation (deterministic: one parked executor)
// ---------------------------------------------------------------------------

/// Parks the dispatcher's single executor inside a non-batchable plug job,
/// so queues submitted while parked build up deterministically and are
/// windowed in one shot on release.
class ParkedDispatcher {
 public:
  explicit ParkedDispatcher(Dispatcher* d, Dispatcher::SessionQueue* q)
      : d_(d) {
    d_->Submit(q, [this] {
      std::unique_lock<std::mutex> lk(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return parked_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  Dispatcher* d_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

Dispatcher::BatchTag Tag(const std::string& column, double lo, double hi) {
  Dispatcher::BatchTag tag;
  tag.batchable = true;
  tag.column = column;
  tag.lo = lo;
  tag.hi = hi;
  return tag;
}

/// What each observed job records: which cooperative pass it ran under
/// (nullptr = per-statement path) and its consumer slot.
struct Seen {
  std::string label;
  const void* pass = nullptr;
  size_t consumer = 0;
};

TEST(BatchWindow, SameColumnStatementsAcrossSessionsFormOneBatch) {
  Dispatcher d(Dispatcher::Options{/*executors=*/1,
                                   /*max_pending_per_session=*/8,
                                   /*shared_scans=*/true, /*max_batch=*/32});
  auto* parkq = d.Register("park");
  auto* a = d.Register("a");
  auto* b = d.Register("b");
  auto* c = d.Register("c");

  std::mutex mu;
  std::vector<Seen> seen;
  auto observe = [&](const std::string& label) {
    return [&, label](const Dispatcher::SharedScanRef* shared) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(Seen{label, shared != nullptr ? shared->pass : nullptr,
                          shared != nullptr ? shared->consumer : 0});
    };
  };

  // Park the lone executor on a throwaway session so the four statements
  // below queue up while it is busy, then get windowed in one shot.
  ParkedDispatcher park(&d, parkq);
  // Two same-column statements from a, one each from b and c.
  d.Submit(a, observe("a0"), Tag("X", 0, 10));
  d.Submit(a, observe("a1"), Tag("X", 5, 15));
  d.Submit(b, observe("b0"), Tag("X", 2, 12));
  d.Submit(c, observe("c0"), Tag("X", 0, 10));
  park.Release();
  d.Drain();

  ASSERT_EQ(seen.size(), 4u);
  // One batch: every job saw the SAME cooperative pass, with consumer slots
  // handed out in admission order -- a's run first (its own queue's prefix),
  // then b's and c's front statements in ring order.
  EXPECT_EQ(d.scan_batches(), 1u);
  EXPECT_EQ(d.batched_statements(), 4u);
  const std::vector<std::string> labels{seen[0].label, seen[1].label,
                                        seen[2].label, seen[3].label};
  EXPECT_EQ(labels, (std::vector<std::string>{"a0", "a1", "b0", "c0"}));
  for (const Seen& s : seen) {
    ASSERT_NE(s.pass, nullptr) << s.label;
    EXPECT_EQ(s.pass, seen[0].pass) << s.label;
  }
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i].consumer, i);
  d.Stop();
}

TEST(BatchWindow, MixedColumnsSplitIntoSeparateBatches) {
  Dispatcher d(Dispatcher::Options{/*executors=*/1,
                                   /*max_pending_per_session=*/8,
                                   /*shared_scans=*/true, /*max_batch=*/32});
  auto* parkq = d.Register("park");
  auto* a = d.Register("a");
  auto* b = d.Register("b");

  std::mutex mu;
  std::vector<Seen> seen;
  auto observe = [&](const std::string& label) {
    return [&, label](const Dispatcher::SharedScanRef* shared) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(Seen{label, shared != nullptr ? shared->pass : nullptr,
                          shared != nullptr ? shared->consumer : 0});
    };
  };

  ParkedDispatcher park(&d, parkq);
  d.Submit(a, observe("aX0"), Tag("X", 0, 10));
  d.Submit(a, observe("aX1"), Tag("X", 0, 10));
  d.Submit(b, observe("bY0"), Tag("Y", 0, 10));
  d.Submit(b, observe("bY1"), Tag("Y", 0, 10));
  park.Release();
  d.Drain();

  ASSERT_EQ(seen.size(), 4u);
  // Two batches of two: X never groups with Y. (The two passes may reuse
  // one stack address on the lone executor, so the split is visible in the
  // batch count and in the consumer slots restarting at 0 -- one four-way
  // batch would have handed out slots 0..3.)
  EXPECT_EQ(d.scan_batches(), 2u);
  EXPECT_EQ(d.batched_statements(), 4u);
  ASSERT_NE(seen[0].pass, nullptr);
  EXPECT_EQ(seen[0].label.substr(1, 1), seen[1].label.substr(1, 1));
  EXPECT_EQ(seen[0].pass, seen[1].pass);
  EXPECT_EQ(seen[2].pass, seen[3].pass);
  EXPECT_EQ(seen[0].consumer, 0u);
  EXPECT_EQ(seen[1].consumer, 1u);
  EXPECT_EQ(seen[2].consumer, 0u);
  EXPECT_EQ(seen[3].consumer, 1u);
  d.Stop();
}

TEST(BatchWindow, NonBatchableStatementIsABarrierThatFlushesTheBatch) {
  Dispatcher d(Dispatcher::Options{/*executors=*/1,
                                   /*max_pending_per_session=*/8,
                                   /*shared_scans=*/true, /*max_batch=*/32});
  auto* a = d.Register("a");

  std::mutex mu;
  std::vector<Seen> seen;
  auto observe = [&](const std::string& label) {
    return [&, label](const Dispatcher::SharedScanRef* shared) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(Seen{label, shared != nullptr ? shared->pass : nullptr});
    };
  };

  ParkedDispatcher park(&d, a);
  // X, X, INSERT (non-batchable), X: the insert cuts the window.
  d.Submit(a, observe("s0"), Tag("X", 0, 10));
  d.Submit(a, observe("s1"), Tag("X", 0, 10));
  d.Submit(a, observe("ins"), Dispatcher::BatchTag{});
  d.Submit(a, observe("s2"), Tag("X", 0, 10));
  park.Release();
  d.Drain();

  ASSERT_EQ(seen.size(), 4u);
  // Session order preserved; exactly ONE batch (s0+s1). The insert and the
  // trailing select run on the per-statement path (batch of one).
  const std::vector<std::string> labels{seen[0].label, seen[1].label,
                                        seen[2].label, seen[3].label};
  EXPECT_EQ(labels, (std::vector<std::string>{"s0", "s1", "ins", "s2"}));
  EXPECT_EQ(d.scan_batches(), 1u);
  EXPECT_EQ(d.batched_statements(), 2u);
  ASSERT_NE(seen[0].pass, nullptr);
  EXPECT_EQ(seen[0].pass, seen[1].pass);
  EXPECT_EQ(seen[2].pass, nullptr);  // the barrier itself never batches
  EXPECT_EQ(seen[3].pass, nullptr);  // batch of one = per-statement path
  d.Stop();
}

TEST(BatchWindow, SharedScansOffNeverFormsABatch) {
  Dispatcher d(Dispatcher::Options{/*executors=*/1,
                                   /*max_pending_per_session=*/8,
                                   /*shared_scans=*/false, /*max_batch=*/32});
  auto* a = d.Register("a");
  auto* b = d.Register("b");

  std::mutex mu;
  int with_pass = 0, total = 0;
  auto observe = [&](const Dispatcher::SharedScanRef* shared) {
    std::lock_guard<std::mutex> lk(mu);
    ++total;
    if (shared != nullptr) ++with_pass;
  };

  ParkedDispatcher park(&d, a);
  d.Submit(a, observe, Tag("X", 0, 10));
  d.Submit(a, observe, Tag("X", 0, 10));
  d.Submit(b, observe, Tag("X", 0, 10));
  park.Release();
  d.Drain();

  EXPECT_EQ(total, 3);
  EXPECT_EQ(with_pass, 0);
  EXPECT_EQ(d.scan_batches(), 0u);
  EXPECT_EQ(d.shared_scans_saved(), 0u);
  d.Stop();
}

// ---------------------------------------------------------------------------
// A real batch provably saves scans and stays byte-identical
// ---------------------------------------------------------------------------

TEST(SharedScanExecution, BatchSavesFilterPassesAndMatchesSequentialReplies) {
  // Static partitioning: 8 segments, no reorganization -- every segment a
  // predecessor publishes stays valid, so the second identical statement
  // must hit on every covering segment.
  constexpr size_t kKind = 1;
  const std::string table = TableOf(kKind);
  const std::string stmt = SelectIds(table, 80.0, 120.0);

  // Sequential oracle: the same two statements through one fresh store.
  std::vector<std::string> baseline;
  {
    Catalog cat;
    SegmentSpace space;
    AddStrategyTable(kKind, &cat, &space);
    Session s(&cat, /*sched=*/nullptr);
    baseline.push_back(s.ExecuteToWire(stmt));
    baseline.push_back(s.ExecuteToWire(stmt));
  }

  Catalog cat;
  SegmentSpace space;
  AddStrategyTable(kKind, &cat, &space);
  Session s1(&cat, nullptr), s2(&cat, nullptr);

  Dispatcher d(Dispatcher::Options{/*executors=*/1,
                                   /*max_pending_per_session=*/8,
                                   /*shared_scans=*/true, /*max_batch=*/32});
  auto* qa = d.Register("a");
  auto* qb = d.Register("b");

  std::mutex mu;
  std::vector<std::string> replies;
  auto job = [&](Session* s) {
    return [&, s](const Dispatcher::SharedScanRef* shared) {
      if (shared != nullptr) s->set_shared_scan(shared->pass, shared->consumer);
      const std::string reply = s->ExecuteToWire(stmt);
      if (shared != nullptr) s->clear_shared_scan();
      std::lock_guard<std::mutex> lk(mu);
      replies.push_back(reply);
    };
  };

  const Dispatcher::BatchTag tag = AnalyzeForSharedScan(stmt, cat);
  ASSERT_TRUE(tag.batchable);
  EXPECT_EQ(tag.column, Catalog::SegHandle(table, "v"));

  ParkedDispatcher park(&d, qa);
  d.Submit(qa, job(&s1), tag);
  d.Submit(qb, job(&s2), tag);
  park.Release();
  d.Drain();

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(d.scan_batches(), 1u);
  EXPECT_EQ(d.batched_statements(), 2u);
  // The second member replayed its charges from the cache: at least one
  // physical filter pass was provably skipped.
  EXPECT_GT(d.shared_scans_saved(), 0u);
  // ... and nobody can tell from the outside: replies (rows AND #stats)
  // byte-match the sequential per-query oracle.
  EXPECT_EQ(replies[0], baseline[0]);
  EXPECT_EQ(replies[1], baseline[1]);
  d.Stop();
}

// ---------------------------------------------------------------------------
// End-to-end TCP parity with shared scans ON, across all 7 strategies
// ---------------------------------------------------------------------------

/// A varied statement stream over table Sk: hot-column SELECT runs (the
/// batchable shape, repeated so within-session windows form), count(*)
/// variants, and interleaved INSERT barriers.
std::vector<std::string> MakeVariedScript(size_t kind, size_t steps = 30) {
  const std::string table = TableOf(kind);
  UniformRangeGenerator gen(kDomain, 0.05, 60 + kind);
  Rng ins(80 + kind);
  std::vector<std::string> script;
  char buf[256];
  for (size_t s = 0; s < steps; ++s) {
    if (s % 5 == 4) {
      const double v = ins.NextUniform(kDomain.lo, kDomain.hi);
      const long id = 8'000'000 + static_cast<long>(kind) * 10'000 +
                      static_cast<long>(s);
      std::snprintf(buf, sizeof(buf),
                    "insert into %s (v, id) values (%.17g, %ld)",
                    table.c_str(), v, id);
      script.emplace_back(buf);
      continue;
    }
    const ValueRange q = gen.Next().range;
    const double hi = std::nextafter(q.hi, q.lo);  // inclusive form
    if (s % 2 == 0) {
      script.push_back(SelectIds(table, q.lo, hi));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "select count(*) from %s where v between %.17g and %.17g",
                    table.c_str(), q.lo, hi);
      script.emplace_back(buf);
    }
  }
  return script;
}

void ExpectStreamParity(size_t kind, const std::vector<std::string>& baseline,
                        const std::vector<std::string>& got) {
  ASSERT_EQ(baseline.size(), got.size());
  for (size_t s = 0; s < baseline.size(); ++s) {
    if (!TimingSensitive(kind)) {
      ASSERT_EQ(baseline[s], got[s]) << "kind " << kind << " statement " << s;
      continue;
    }
    // Deferred segmentation: row set + result count, not scan-cost bytes.
    std::istringstream bis(baseline[s]), gis(got[s]);
    auto next_line = [](std::istringstream* is) {
      return [is](std::string* line) {
        return static_cast<bool>(std::getline(*is, *line));
      };
    };
    auto b = ParseReply(next_line(&bis));
    auto g = ParseReply(next_line(&gis));
    ASSERT_TRUE(b.ok() && g.ok()) << "kind " << kind << " statement " << s;
    ASSERT_EQ(b->ok, g->ok) << "kind " << kind << " statement " << s;
    std::vector<std::string> brows = b->rows, grows = g->rows;
    std::sort(brows.begin(), brows.end());
    std::sort(grows.begin(), grows.end());
    ASSERT_EQ(brows, grows) << "kind " << kind << " statement " << s;
    ASSERT_EQ(b->stats.result_count, g->stats.result_count)
        << "kind " << kind << " statement " << s;
  }
}

TEST(SharedScanServer, PipelinedVariedStreamsByteMatchBaselinesAllStrategies) {
  // Sequential per-query baselines, one isolated store per strategy.
  std::vector<std::vector<std::string>> baselines(kNumStrategies);
  for (size_t k = 0; k < kNumStrategies; ++k) {
    Catalog cat;
    SegmentSpace space;
    AddStrategyTable(k, &cat, &space);
    Session session(&cat, /*sched=*/nullptr);
    for (const std::string& stmt : MakeVariedScript(k)) {
      baselines[k].push_back(session.ExecuteToWire(stmt));
    }
  }

  // One shared store, shared scans ON, one pipelining client per strategy.
  // Pipelining keeps each session's queue deep, so the dispatcher windows
  // same-column runs *within* each session; the per-session statement order
  // (and thus each stream's reply bytes) is nevertheless invariant.
  Catalog cat;
  SegmentSpace space;
  TaskScheduler sched(4);
  for (size_t k = 0; k < kNumStrategies; ++k) AddStrategyTable(k, &cat, &space);

  SqlServer::Options opts;
  opts.executors = 3;
  opts.max_pending_per_session = 6;
  opts.shared_scans = true;
  SqlServer srv(&cat, &sched, opts);
  ASSERT_TRUE(srv.Start().ok());

  std::vector<std::vector<std::string>> got(kNumStrategies);
  std::vector<std::thread> clients;
  for (size_t k = 0; k < kNumStrategies; ++k) {
    clients.emplace_back([&, k] {
      auto conn = Connection::Connect("127.0.0.1", srv.port());
      ASSERT_TRUE(conn.ok()) << conn.status().ToString();
      const std::vector<std::string> script = MakeVariedScript(k);
      size_t in_flight = 0;
      for (const std::string& stmt : script) {
        ASSERT_TRUE(conn->Send(stmt).ok());
        if (++in_flight == 4) {  // bounded pipeline depth
          auto reply = conn->ReadReply();
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          got[k].push_back(reply->Serialize());
          --in_flight;
        }
      }
      while (got[k].size() < script.size()) {
        auto reply = conn->ReadReply();
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        got[k].push_back(reply->Serialize());
      }
    });
  }
  for (auto& t : clients) t.join();
  srv.Stop();

  for (size_t k = 0; k < kNumStrategies; ++k) {
    SCOPED_TRACE("strategy kind " + std::to_string(k));
    ExpectStreamParity(k, baselines[k], got[k]);
  }
  // The ledger balances with shared scans on, like it does without them.
  const auto ledger = srv.Ledger();
  EXPECT_EQ(ledger.schedules, ledger.runs + ledger.skips);
  EXPECT_EQ(ledger.columns_with_pending_work, 0u);
}

TEST(SharedScanServer, EightHotColumnClientsMatchSequentialBaselineAllStrategies) {
  // All 8 clients hammer the SAME statement on one strategy's table, m times
  // each: the global execution sequence is 8m copies of one statement in
  // *some* order -- which is every order, so the multiset of replies must
  // equal a sequential 8m-statement baseline's, batched or not. Runs once
  // per strategy kind over a fresh shared store.
  constexpr size_t kHotClients = 8;
  constexpr size_t kPerClient = 6;
  for (size_t kind = 0; kind < kNumStrategies; ++kind) {
    SCOPED_TRACE("strategy kind " + std::to_string(kind));
    const std::string stmt = SelectIds(TableOf(kind), 100.0, 160.0);

    std::vector<std::string> baseline;
    {
      Catalog cat;
      SegmentSpace space;
      AddStrategyTable(kind, &cat, &space);
      Session session(&cat, /*sched=*/nullptr);
      for (size_t i = 0; i < kHotClients * kPerClient; ++i) {
        baseline.push_back(session.ExecuteToWire(stmt));
      }
    }

    Catalog cat;
    SegmentSpace space;
    TaskScheduler sched(4);
    AddStrategyTable(kind, &cat, &space);
    SqlServer::Options opts;
    opts.executors = 3;
    opts.shared_scans = true;
    SqlServer srv(&cat, &sched, opts);
    ASSERT_TRUE(srv.Start().ok());

    std::mutex mu;
    std::vector<std::string> got;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kHotClients; ++c) {
      clients.emplace_back([&] {
        auto conn = Connection::Connect("127.0.0.1", srv.port());
        ASSERT_TRUE(conn.ok()) << conn.status().ToString();
        for (size_t i = 0; i < kPerClient; ++i) {
          ASSERT_TRUE(conn->Send(stmt).ok());  // pipeline: deep queues, so
        }                                      // cross-session windows form
        for (size_t i = 0; i < kPerClient; ++i) {
          auto reply = conn->ReadReply();
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          std::lock_guard<std::mutex> lk(mu);
          got.push_back(reply->Serialize());
        }
      });
    }
    for (auto& t : clients) t.join();
    srv.Stop();

    ASSERT_EQ(got.size(), baseline.size());
    if (TimingSensitive(kind)) {
      // Row sets only; scan costs legitimately shift with flush timing.
      for (size_t i = 0; i < got.size(); ++i) {
        std::istringstream bis(baseline[i]), gis(got[i]);
        auto next_line = [](std::istringstream* is) {
          return [is](std::string* line) {
            return static_cast<bool>(std::getline(*is, *line));
          };
        };
        auto b = ParseReply(next_line(&bis));
        auto g = ParseReply(next_line(&gis));
        ASSERT_TRUE(b.ok() && g.ok());
        std::vector<std::string> brows = b->rows, grows = g->rows;
        std::sort(brows.begin(), brows.end());
        std::sort(grows.begin(), grows.end());
        ASSERT_EQ(brows, grows) << "reply " << i;
      }
    } else {
      // Byte-exact as multisets: same replies, same #stats trailers, in some
      // interleaving of the sequential order.
      std::vector<std::string> b = baseline, g = got;
      std::sort(b.begin(), b.end());
      std::sort(g.begin(), g.end());
      EXPECT_EQ(b, g);
    }
  }
}

// ---------------------------------------------------------------------------
// The cooperative cache itself (core unit)
// ---------------------------------------------------------------------------

TEST(SharedScanPassUnit, LookupDemandsTheRegisteredPredicateExactly) {
  SharedScanPass<OidValue> pass;
  const ValueRange q(10.0, 20.0);
  const size_t me = pass.RegisterConsumer(q);
  const SharedScanPass<OidValue>::SegKey key{1, 0.0, 360.0, 100, 0};

  std::vector<OidValue> payload{{0, 5.0}, {1, 12.0}, {2, 19.0}, {3, 25.0}};
  auto own = std::make_shared<std::vector<OidValue>>(
      std::vector<OidValue>{{1, 12.0}, {2, 19.0}});
  pass.Publish(key, q, payload, own);

  // The registered predicate hits and aliases the producer's vector.
  auto hit = pass.Lookup(key, me, q);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), own.get());
  EXPECT_EQ(pass.scans_saved(), 1u);

  // A mismatched predicate (engine/analysis divergence) degrades to a miss.
  EXPECT_EQ(pass.Lookup(key, me, ValueRange(10.0, 21.0)), nullptr);
  // A different epoch (post-reorganization) misses too.
  const SharedScanPass<OidValue>::SegKey stale{1, 0.0, 360.0, 100, 1};
  EXPECT_EQ(pass.Lookup(stale, me, q), nullptr);
  EXPECT_EQ(pass.scans_saved(), 1u);
}

TEST(SharedScanPassUnit, PublishCoEvaluatesEveryOtherConsumersPredicate) {
  SharedScanPass<OidValue> pass;
  const ValueRange qa(0.0, 100.0), qb(50.0, 150.0), qc(0.0, 100.0);
  const size_t a = pass.RegisterConsumer(qa);
  const size_t b = pass.RegisterConsumer(qb);
  const size_t c = pass.RegisterConsumer(qc);
  const SharedScanPass<OidValue>::SegKey key{7, 0.0, 200.0, 4, 3};

  std::vector<OidValue> payload{{0, 25.0}, {1, 75.0}, {2, 125.0}, {3, 175.0}};
  auto own = std::make_shared<std::vector<OidValue>>(
      std::vector<OidValue>{{0, 25.0}, {1, 75.0}});
  pass.Publish(key, qa, payload, own);

  // b's disjoint predicate was co-evaluated in the same pass.
  auto hb = pass.Lookup(key, b, qb);
  ASSERT_NE(hb, nullptr);
  ASSERT_EQ(hb->size(), 2u);
  EXPECT_EQ((*hb)[0].oid, 1u);
  EXPECT_EQ((*hb)[1].oid, 2u);
  // c registered the producer's exact predicate: aliases `own`, no copy.
  auto hc = pass.Lookup(key, c, qc);
  ASSERT_EQ(hc.get(), own.get());
  // a itself also hits (its own slot holds `own`).
  EXPECT_EQ(pass.Lookup(key, a, qa).get(), own.get());
  EXPECT_EQ(pass.passes_run(), 1u);
  EXPECT_EQ(pass.scans_saved(), 3u);
}

}  // namespace
}  // namespace socs
