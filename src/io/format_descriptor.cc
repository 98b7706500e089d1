#include "io/format_descriptor.h"

#include <cmath>
#include <fstream>
#include <limits>

#include "common/json.h"
#include "common/util.h"

namespace sysds {

StatusOr<FormatDescriptor> ParseFormatDescriptor(const std::string& json) {
  SYSDS_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (root.kind() != JsonValue::Kind::kObject) {
    return InvalidArgument("format descriptor must be a JSON object");
  }
  FormatDescriptor desc;
  const JsonValue* kind = root.Find("kind");
  if (kind == nullptr) {
    return InvalidArgument("format descriptor requires 'kind'");
  }
  desc.kind = kind->AsString();
  if (const JsonValue* d = root.Find("delimiter")) {
    if (!d->AsString().empty()) desc.delimiter = d->AsString()[0];
  }
  if (const JsonValue* h = root.Find("header")) desc.header = h->AsBool();
  if (const JsonValue* cols = root.Find("columns")) {
    for (const JsonValue& c : cols->AsArray()) {
      FormatDescriptor::ColumnDesc cd;
      if (const JsonValue* n = c.Find("name")) cd.name = n->AsString();
      if (const JsonValue* t = c.Find("type")) {
        cd.type = ParseValueType(t->AsString());
        if (cd.type == ValueType::kUnknown) {
          return InvalidArgument("format descriptor: unknown column type '" +
                                 t->AsString() + "'");
        }
      }
      if (const JsonValue* w = c.Find("width")) {
        cd.width = static_cast<int64_t>(w->AsNumber());
      }
      desc.columns.push_back(cd);
    }
  }
  if (const JsonValue* t = root.Find("num_threads")) {
    double v = t->kind() == JsonValue::Kind::kNumber ? t->AsNumber() : -1.0;
    if (!(v >= 0.0 && v <= std::numeric_limits<int>::max() &&
          v == std::floor(v))) {
      return InvalidArgument(
          "format descriptor: 'num_threads' must be an integer in "
          "[0, INT_MAX]");
    }
    desc.num_threads = static_cast<int>(v);
  }
  // Matrix kinds carry their full layout in the file; only the generated
  // frame readers need a column specification up front.
  bool generated_kind = desc.kind == "delimited" ||
                        desc.kind == "fixed-width" ||
                        desc.kind == "key-value";
  if (generated_kind && desc.columns.empty()) {
    return InvalidArgument("format descriptor requires 'columns'");
  }
  return desc;
}

FormatDescriptor FormatDescriptor::Csv(char delimiter, bool header,
                                       int num_threads) {
  FormatDescriptor d;
  d.kind = "csv";
  d.delimiter = delimiter;
  d.header = header;
  d.num_threads = num_threads;
  return d;
}

FormatDescriptor FormatDescriptor::Binary() {
  FormatDescriptor d;
  d.kind = "binary";
  return d;
}

FormatDescriptor FormatDescriptor::Ijv() {
  FormatDescriptor d;
  d.kind = "ijv";
  return d;
}

StatusOr<FormatDescriptor> FormatDescriptor::FromFormatName(
    const std::string& name) {
  std::string n = ToLower(name);
  if (n == "csv" || n == "text") return Csv();
  if (n == "binary" || n == "bin") return Binary();
  if (n == "ijv" || n == "mm" || n == "matrixmarket") return Ijv();
  return InvalidArgument("unknown file format '" + name + "'");
}

namespace {

StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

FrameBlock MakeFrame(const FormatDescriptor& desc, int64_t rows) {
  std::vector<ValueType> schema;
  std::vector<std::string> names;
  for (const auto& c : desc.columns) {
    schema.push_back(c.type);
    names.push_back(c.name);
  }
  return FrameBlock(rows, schema, names);
}

}  // namespace

StatusOr<GeneratedReader> GenerateReader(const FormatDescriptor& desc) {
  if (desc.kind == "delimited") {
    // Specialize on delimiter/header/columns now; the closure only scans.
    char delim = desc.delimiter;
    bool header = desc.header;
    size_t ncols = desc.columns.size();
    FormatDescriptor d = desc;
    return GeneratedReader([d, delim, header, ncols](const std::string& path)
                               -> StatusOr<FrameBlock> {
      SYSDS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
      size_t start = header && !lines.empty() ? 1 : 0;
      FrameBlock f = MakeFrame(d, static_cast<int64_t>(lines.size() - start));
      for (size_t r = start; r < lines.size(); ++r) {
        std::vector<std::string> cells = SplitString(lines[r], delim);
        if (cells.size() != ncols) {
          return IoError("generated reader: ragged row " +
                         std::to_string(r + 1));
        }
        for (size_t c = 0; c < ncols; ++c) {
          f.SetString(static_cast<int64_t>(r - start),
                      static_cast<int64_t>(c), TrimString(cells[c]));
        }
      }
      return f;
    });
  }
  if (desc.kind == "fixed-width") {
    for (const auto& c : desc.columns) {
      if (c.width <= 0) {
        return CompileError("fixed-width format requires positive widths");
      }
    }
    FormatDescriptor d = desc;
    return GeneratedReader([d](const std::string& path)
                               -> StatusOr<FrameBlock> {
      SYSDS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
      size_t start = d.header && !lines.empty() ? 1 : 0;
      FrameBlock f = MakeFrame(d, static_cast<int64_t>(lines.size() - start));
      for (size_t r = start; r < lines.size(); ++r) {
        size_t off = 0;
        for (size_t c = 0; c < d.columns.size(); ++c) {
          size_t w = static_cast<size_t>(d.columns[c].width);
          if (off + w > lines[r].size()) {
            return IoError("generated reader: short fixed-width row " +
                           std::to_string(r + 1));
          }
          f.SetString(static_cast<int64_t>(r - start),
                      static_cast<int64_t>(c),
                      TrimString(lines[r].substr(off, w)));
          off += w;
        }
      }
      return f;
    });
  }
  if (desc.kind == "key-value") {
    FormatDescriptor d = desc;
    return GeneratedReader([d](const std::string& path)
                               -> StatusOr<FrameBlock> {
      SYSDS_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
      FrameBlock f = MakeFrame(d, static_cast<int64_t>(lines.size()));
      for (size_t r = 0; r < lines.size(); ++r) {
        // Parse "k=v" pairs separated by the delimiter, in any order.
        std::vector<std::string> pairs = SplitString(lines[r], d.delimiter);
        for (const std::string& pair : pairs) {
          size_t eq = pair.find('=');
          if (eq == std::string::npos) continue;
          std::string key = TrimString(pair.substr(0, eq));
          std::string val = TrimString(pair.substr(eq + 1));
          for (size_t c = 0; c < d.columns.size(); ++c) {
            if (d.columns[c].name == key) {
              f.SetString(static_cast<int64_t>(r), static_cast<int64_t>(c),
                          val);
              break;
            }
          }
        }
      }
      return f;
    });
  }
  return CompileError("unknown format kind '" + desc.kind + "'");
}

StatusOr<GeneratedWriter> GenerateWriter(const FormatDescriptor& desc) {
  if (desc.kind != "delimited") {
    return CompileError("generated writers support only delimited formats");
  }
  FormatDescriptor d = desc;
  return GeneratedWriter([d](const FrameBlock& frame,
                             const std::string& path) -> Status {
    if (frame.Cols() != static_cast<int64_t>(d.columns.size())) {
      return InvalidArgument("generated writer: column count mismatch");
    }
    std::ofstream out(path);
    if (!out) return IoError("cannot open '" + path + "' for writing");
    if (d.header) {
      for (size_t c = 0; c < d.columns.size(); ++c) {
        if (c > 0) out << d.delimiter;
        out << d.columns[c].name;
      }
      out << "\n";
    }
    for (int64_t r = 0; r < frame.Rows(); ++r) {
      for (int64_t c = 0; c < frame.Cols(); ++c) {
        if (c > 0) out << d.delimiter;
        out << frame.GetString(r, c);
      }
      out << "\n";
    }
    return Status::Ok();
  });
}

}  // namespace sysds
