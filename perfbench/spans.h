// In-memory span recorder of the traced run. A span has a name, start and
// end (steady clock, ns), the index of its parent span and the statement it
// belongs to; spans are written out once, when the run ends. Self time is a
// span's duration minus the time its direct children cover.
#ifndef SOCS_PERFBENCH_SPANS_H_
#define SOCS_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;  // -1: root
    int64_t stmt;    // global statement id, -1: not a statement's span
  };

  /// Opens a span as a child of the innermost open one.
  size_t Begin(const char* name, int64_t stmt) {
    const int32_t parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
    spans_.push_back({name, NowNs(), 0, parent, stmt});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t id) {
    spans_[id].end = NowNs();
    open_.pop_back();
  }

  /// A span over a scope; records nothing when `s` is null (untraced).
  class Scope {
   public:
    Scope(Spans* s, const char* name, int64_t stmt)
        : s_(s), id_(s != nullptr ? s->Begin(name, stmt) : 0) {}
    ~Scope() {
      if (s_ != nullptr) s_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    size_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in ns.
  std::vector<int64_t> SelfNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  /// Per statement, the summed self time (ms) of spans called `name`.
  std::map<int64_t, double> SelfMsByStatement(const std::string& name) const {
    const std::vector<int64_t> self = SelfNs();
    std::map<int64_t, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) out[spans_[i].stmt] += self[i] / 1e6;
    }
    return out;
  }

  /// Durations (ms) of every span called `name`, in order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end - s.start) / 1e6);
    }
    return out;
  }

  /// Durations (ms) of every span called `name`, by statement.
  std::map<int64_t, double> DurationMsByStatement(const std::string& name) const {
    std::map<int64_t, double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out[s.stmt] += (s.end - s.start) / 1e6;
    }
    return out;
  }

  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,stmt\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%lld\n", i, s.name,
                   static_cast<long long>(s.start), static_cast<long long>(s.end),
                   s.parent, static_cast<long long>(s.stmt));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_SPANS_H_
