#include "data/dataset_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "util/string_util.h"

namespace actor {
namespace {

std::string SanitizeText(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

Status SaveCorpusTsv(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.precision(17);  // enough digits for every double to round-trip
  for (const auto& r : corpus.records()) {
    std::vector<std::string> mention_strs;
    mention_strs.reserve(r.mentioned_user_ids.size());
    for (int64_t m : r.mentioned_user_ids) {
      mention_strs.push_back(std::to_string(m));
    }
    out << r.id << '\t' << r.user_id << '\t' << r.timestamp << '\t'
        << r.location.x << '\t' << r.location.y << '\t'
        << Join(mention_strs, ",") << '\t' << SanitizeText(r.text) << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Corpus> LoadCorpusTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  Corpus corpus;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 7) {
      return Status::InvalidArgument(StrPrintf(
          "%s:%zu: expected 7 tab-separated fields, got %zu", path.c_str(),
          line_no, fields.size()));
    }
    RawRecord rec;
    if (!ParseInt64(fields[0], &rec.id) ||
        !ParseInt64(fields[1], &rec.user_id) ||
        !ParseDouble(fields[2], &rec.timestamp) ||
        !ParseDouble(fields[3], &rec.location.x) ||
        !ParseDouble(fields[4], &rec.location.y)) {
      return Status::InvalidArgument(
          StrPrintf("%s:%zu: malformed or non-finite numeric field",
                    path.c_str(), line_no));
    }
    if (!fields[5].empty()) {
      for (const auto& m : Split(fields[5], ',')) {
        int64_t mention = 0;
        if (!ParseInt64(m, &mention)) {
          return Status::InvalidArgument(
              StrPrintf("%s:%zu: malformed mention id '%s'", path.c_str(),
                        line_no, m.c_str()));
        }
        rec.mentioned_user_ids.push_back(mention);
      }
    }
    rec.text = fields[6];
    corpus.Add(std::move(rec));
  }
  return corpus;
}

}  // namespace actor
