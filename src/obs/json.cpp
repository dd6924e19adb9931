#include "obs/json.hpp"

#include <cstdio>

namespace hgr::obs {

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::open(char c) {
  separate();
  out_ += c;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char c) {
  out_ += c;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  str(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view v) {
  separate();
  out_ += '"';
  json_escape(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::u64(std::uint64_t v) { return raw(std::to_string(v)); }

JsonWriter& JsonWriter::i64(std::int64_t v) { return raw(std::to_string(v)); }

JsonWriter& JsonWriter::num(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return raw(buf);
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

}  // namespace hgr::obs
