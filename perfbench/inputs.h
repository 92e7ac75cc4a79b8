// Seeded inputs of the wall-clock benchmark and the oracle that checks the
// server's replies. The `ra` values and the query windows come from the
// program's SkyServer substitute (workload/skyserver.h); objids and INSERT
// batches are made here. The oracle calls nothing in the program: every
// expected answer comes from the benchmark's own sorted copy of the rows, so
// a fault in the program cannot hide in its own check.
#ifndef SOCS_PERFBENCH_INPUTS_H_
#define SOCS_PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "workload/skyserver.h"

namespace perfbench {

/// objids stay below 2^53: INSERT VALUES travel as doubles.
inline constexpr int64_t kObjidBase = 1'237'000'000'000LL;

struct Row {
  double ra = 0.0;
  int64_t objid = 0;
};

struct Statement {
  enum class Kind { kCount, kProject, kInsert } kind = Kind::kCount;
  double lo = 0.0, hi = 0.0;  // inclusive BETWEEN bounds (selects)
  std::vector<Row> rows;      // inserts
  std::string text;
};

/// What a workload is made of. Sizes are per round; see README.md.
struct Shape {
  size_t rows = 0;           // rows loaded at set-up
  size_t statements = 0;     // statements per round
  size_t insert_every = 0;   // every k-th statement is an INSERT (0: none)
  size_t insert_rows = 0;    // rows per INSERT

  size_t inserts() const { return insert_every == 0 ? 0 : statements / insert_every; }
};

/// The generator's settings: the paper's footprint, 15 stripes and query
/// windows 0.05 to 0.5 degrees wide (the SkyServerConfig defaults).
inline socs::SkyServerConfig SkyConfig(size_t objects, uint64_t seed) {
  socs::SkyServerConfig cfg;
  cfg.num_objects = objects;
  cfg.seed = seed;
  return cfg;
}

/// The table's rows: `base` is loaded at set-up (oid i carries base[i]),
/// `added` is what every round's INSERTs add, in order. Both are one
/// MakeRaColumn draw, so INSERTs land in the same stripe-plus-background mix
/// as the base rows. objids are unique and grow with the row index. Like the
/// paper's SkyServer sample, the table is one fixed dataset (the generator's
/// default seed); the seed of a run picks its statements.
struct Rows {
  std::vector<Row> base;
  std::vector<Row> added;
};

inline Rows MakeRows(const Shape& shape) {
  const size_t n = shape.rows + shape.inserts() * shape.insert_rows;
  const uint64_t seed = socs::SkyServerConfig{}.seed;
  const std::vector<float> ra = socs::MakeRaColumn(SkyConfig(n, seed));
  socs::Rng rng(seed ^ 0x0b1d);
  Rows out;
  out.base.reserve(shape.rows);
  for (size_t i = 0; i < n; ++i) {
    const Row row{ra[i], kObjidBase + static_cast<int64_t>(i) * 8 +
                             static_cast<int64_t>(rng.NextBelow(8))};
    (i < shape.rows ? out.base : out.added).push_back(row);
  }
  return out;
}

inline Statement MakeSelect(Statement::Kind kind, const socs::RangeQuery& q) {
  Statement s;
  s.kind = kind;
  s.lo = q.range.lo;
  s.hi = q.range.hi;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "select %s from P where ra between %.17g and %.17g",
                kind == Statement::Kind::kProject ? "objid" : "count(*)", s.lo, s.hi);
  s.text = buf;
  return s;
}

/// `n` windows of the paper's `random` SkyServer placement (uniform over the
/// footprint), drawn for `seed`.
inline socs::Workload Windows(uint64_t seed, size_t n) {
  return socs::MakeRandomWorkload(SkyConfig(0, seed), n);
}

/// The statement stream of round `round`: every `insert_every`-th statement
/// INSERTs the next `insert_rows` of `added`; the others are count(*)
/// selections over windows drawn for (seed, round). Each round gets its own
/// windows, hence its own learned layout: a run's figures pool several
/// layouts instead of resting on one.
inline std::vector<Statement> MakeStream(const Shape& shape, const std::vector<Row>& added,
                                         uint64_t seed, uint64_t round) {
  const socs::Workload windows =
      Windows(seed * 0x9e3779b97f4a7c15ULL + round * 0xd1b54a32d192ed03ULL + 7,
              shape.statements - shape.inserts());
  std::vector<Statement> out;
  out.reserve(shape.statements);
  size_t next_window = 0, next_row = 0;
  for (size_t i = 0; i < shape.statements; ++i) {
    if (shape.insert_every == 0 || i % shape.insert_every != shape.insert_every - 1) {
      out.push_back(MakeSelect(Statement::Kind::kCount, windows[next_window++]));
      continue;
    }
    Statement s;
    s.kind = Statement::Kind::kInsert;
    s.text = "insert into P values ";
    for (size_t r = 0; r < shape.insert_rows; ++r) {
      const Row& row = added[next_row++];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s(%.17g, %lld)", r == 0 ? "" : ", ", row.ra,
                    static_cast<long long>(row.objid));
      s.text += buf;
      s.rows.push_back(row);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Expected reply of one statement: rows (count, projected rows, or rows
/// inserted) plus, for projections, the wrapping sum and the xor of the
/// projected objids.
struct Expected {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;
  bool operator==(const Expected&) const = default;
};

/// Answers range questions over the base rows plus every INSERT acknowledged
/// so far, from a sorted copy with prefix sums.
class Oracle {
 public:
  explicit Oracle(const std::vector<Row>& base) {
    sorted_.reserve(base.size());
    for (const Row& r : base) sorted_.push_back({r.ra, static_cast<uint64_t>(r.objid)});
    std::sort(sorted_.begin(), sorted_.end());
    sum_.assign(sorted_.size() + 1, 0);
    xor_.assign(sorted_.size() + 1, 0);
    for (size_t i = 0; i < sorted_.size(); ++i) {
      sum_[i + 1] = sum_[i] + sorted_[i].second;
      xor_[i + 1] = xor_[i] ^ sorted_[i].second;
    }
  }

  void Acknowledge(const std::vector<Row>& rows) {
    for (const Row& r : rows) inserted_.push_back({r.ra, static_cast<uint64_t>(r.objid)});
  }
  void Reset() { inserted_.clear(); }
  uint64_t TotalRows() const { return sorted_.size() + inserted_.size(); }

  /// The expected reply of `s`, a count or projection.
  Expected Select(const Statement& s) const {
    const auto a = std::lower_bound(sorted_.begin(), sorted_.end(),
                                    std::pair<double, uint64_t>{s.lo, 0});
    const auto b = std::upper_bound(sorted_.begin(), sorted_.end(),
                                    std::pair<double, uint64_t>{s.hi, UINT64_MAX});
    const size_t i = static_cast<size_t>(a - sorted_.begin());
    const size_t j = static_cast<size_t>(b - sorted_.begin());
    Expected e;
    if (j > i) {
      e.rows = j - i;
      e.sum = sum_[j] - sum_[i];
      e.xr = xor_[j] ^ xor_[i];
    }
    for (const auto& [ra, objid] : inserted_) {
      if (ra >= s.lo && ra <= s.hi) {
        ++e.rows;
        e.sum += objid;
        e.xr ^= objid;
      }
    }
    if (s.kind == Statement::Kind::kCount) e.sum = e.xr = 0;
    return e;
  }

 private:
  std::vector<std::pair<double, uint64_t>> sorted_;
  std::vector<uint64_t> sum_, xor_;
  std::vector<std::pair<double, uint64_t>> inserted_;
};

/// Expected replies of the whole stream, in order (inserts acknowledged as
/// they come). Leaves the oracle holding every inserted row.
inline std::vector<Expected> ExpectStream(const std::vector<Statement>& stream,
                                          Oracle* oracle) {
  oracle->Reset();
  std::vector<Expected> out;
  out.reserve(stream.size());
  for (const Statement& s : stream) {
    if (s.kind == Statement::Kind::kInsert) {
      oracle->Acknowledge(s.rows);
      out.push_back({s.rows.size(), 0, 0});
    } else {
      out.push_back(oracle->Select(s));
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_INPUTS_H_
