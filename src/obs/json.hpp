// The one JSON encoder behind every obs exporter (trace, stats stream,
// critical path, Chrome timeline, comm telemetry, bench documents).
//
// A streaming writer over a caller-owned std::string: it places the commas
// and holds the only string escaper, so every exporter agrees on escaping
// and number formats (%.9g by default, %.6g for ratios). It does no
// validation — callers emit keys only inside objects.
//
//   std::string out;
//   JsonWriter w(out);
//   w.begin_object().key("calls").u64(3).key("seconds").num(0.25);
//   w.end_object();  // {"calls":3,"seconds":0.25}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hgr::obs {

/// Append a JSON-escaped copy of `s` to `out` (no surrounding quotes).
void json_escape(std::string& out, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// `"k":` — the next call writes the member's value.
  JsonWriter& key(std::string_view k);

  JsonWriter& str(std::string_view v);
  JsonWriter& u64(std::uint64_t v);
  JsonWriter& i64(std::int64_t v);
  /// printf "%.<digits>g".
  JsonWriter& num(double v, int digits = 9);
  /// A pre-serialized JSON value, copied verbatim.
  JsonWriter& raw(std::string_view json);

 private:
  JsonWriter& open(char c);
  JsonWriter& close(char c);
  void separate();

  std::string& out_;
  bool need_comma_ = false;
};

}  // namespace hgr::obs
