// Shared JSON emitter for the benches.
//
// arrival_stream, multiplex_throughput and perfbench's moqo_bench each
// emit machine-readable results (`--json=out.json`); this header gives
// them one schema:
//
//   {
//     "schema": "moqo-bench-v1",
//     "bench": "<name>",
//     "machine": { "arch": ..., "os": ..., "cpus": ..., "compiler": ...,
//                  "build": ... },
//     "config": { ...bench parameters... },
//     "metrics": { ...flat numeric results... },
//     "gates": { "<gate>": true/false, ... },
//     "pass": true/false
//   }
//
// The writer is a minimal append-only JSON serializer (objects, string /
// numeric / boolean fields) — enough for flat report documents, no general
// JSON support intended. Doubles are emitted with max_digits10 so values
// round-trip exactly.
#ifndef MOQO_BENCH_BENCH_REPORT_H_
#define MOQO_BENCH_BENCH_REPORT_H_

#include <sys/utsname.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace moqo {
namespace bench {

/// Minimal nested-object JSON writer. Fields appear in call order.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void BeginObject() { Open('{'); }
  void BeginObject(const std::string& key) { OpenKeyed(key, '{'); }
  void EndObject() { Close('}'); }

  void BeginArray(const std::string& key) { OpenKeyed(key, '['); }
  void EndArray() { Close(']'); }

  void Field(const std::string& key, const std::string& value) {
    Key(key);
    String(value);
  }
  void Field(const std::string& key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const std::string& key, double value) {
    Key(key);
    Number(value);
  }
  void Field(const std::string& key, int64_t value) {
    Key(key);
    out_ << value;
  }
  void Field(const std::string& key, int value) {
    Field(key, static_cast<int64_t>(value));
  }
  void Field(const std::string& key, size_t value) {
    Field(key, static_cast<int64_t>(value));
  }
  void Field(const std::string& key, bool value) {
    Key(key);
    out_ << (value ? "true" : "false");
  }

  /// Array element (inside BeginArray/EndArray).
  void Element(double value) {
    Comma();
    Number(value);
  }

 private:
  void Open(char c) {
    Comma();
    out_ << c;
    need_comma_.push_back(false);
  }
  void OpenKeyed(const std::string& key, char c) {
    Key(key);
    out_ << c;
    need_comma_.push_back(false);
  }
  void Close(char c) {
    out_ << c;
    need_comma_.pop_back();
    if (!need_comma_.empty()) need_comma_.back() = true;
  }
  void Comma() {
    if (!need_comma_.empty() && need_comma_.back()) out_ << ',';
    if (!need_comma_.empty()) need_comma_.back() = true;
  }
  void Key(const std::string& key) {
    Comma();
    String(key);
    out_ << ':';
  }
  void String(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }
  void Number(double value) {
    if (std::isfinite(value)) {
      std::ostringstream tmp;
      tmp.precision(std::numeric_limits<double>::max_digits10);
      tmp << value;
      out_ << tmp.str();
    } else {
      // JSON has no infinity/NaN literals; null keeps the document valid.
      out_ << "null";
    }
  }

  std::ostream& out_;
  std::vector<bool> need_comma_;
};

/// Compiler tag for the machine fingerprint.
inline std::string CompilerTag() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

/// Build type tag for the machine fingerprint.
inline std::string BuildTag() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Emits the shared preamble: schema, bench name, machine fingerprint.
/// The caller then writes "config", "metrics", "gates", "pass" and calls
/// EndObject().
inline void BeginReport(JsonWriter* w, const std::string& bench) {
  w->BeginObject();
  w->Field("schema", "moqo-bench-v1");
  w->Field("bench", bench);
  struct utsname uts {};
  uname(&uts);
  w->BeginObject("machine");
  w->Field("arch", uts.machine);
  w->Field("os", uts.sysname);
  w->Field("cpus",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  w->Field("compiler", CompilerTag());
  w->Field("build", BuildTag());
  w->EndObject();
}

}  // namespace bench
}  // namespace moqo

#endif  // MOQO_BENCH_BENCH_REPORT_H_
