// In-memory span recorder owned by the benchmark. Spans wrap the calls
// the layer replay makes into the library's public functions; nothing
// inside the library is instrumented. Spans nest on one thread (the
// replay is serial), are kept in memory, and are written out when the
// run ends.

#ifndef SKYMR_E2E_SPANS_H_
#define SKYMR_E2E_SPANS_H_

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // Seconds since the recorder was created.
    double end = 0.0;
    int parent = -1;     // Index into spans(), -1 for a root.
    int query = -1;      // Distinct-query id the span belongs to.
  };

  /// RAII span: opens on construction under the innermost open span and
  /// closes on destruction. A null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->Open(name) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->Close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds the span has been open (0 for a no-op scope).
    double Elapsed() const {
      return recorder_ != nullptr
                 ? recorder_->Now() - recorder_->spans_[index_].start
                 : 0.0;
    }

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  void set_query(int query) { query_ = query; }
  const std::vector<Span>& spans() const { return spans_; }

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover (children nest inside their parent).
  std::map<std::string, double> SelfSeconds(int query = -1) const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end - span.start;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (query < 0 || spans_[i].query == query) {
        out[spans_[i].name] += self[i];
      }
    }
    return out;
  }

  /// Writes every span as one JSON document.
  void WriteJson(std::ostream& os) const {
    os.precision(9);
    os << "{\"schema\":\"skymr-e2e-spans-v1\",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
         << s.name << "\",\"start\":" << s.start << ",\"end\":" << s.end
         << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}";
    }
    os << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  int Open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.query = query_;
    span.start = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void Close(int index) {
    spans_[static_cast<size_t>(index)].end = Now();
    stack_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int query_ = -1;
};

}  // namespace e2e

#endif  // SKYMR_E2E_SPANS_H_
