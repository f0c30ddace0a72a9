#include "src/trace/format.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/sim/check.h"
#include "src/sim/units.h"

namespace mstk {
namespace trace {
namespace {

// Sanity bound on a single access: 1 Mi blocks = 512 MiB. A length beyond
// this is a corrupt record, not a workload.
constexpr int32_t kMaxRecordBlocks = 1 << 20;

bool ValidRecord(const TraceRecord& r, int64_t last_timestamp_us) {
  return r.timestamp_us >= 0 && r.timestamp_us >= last_timestamp_us && r.lba >= 0 &&
         r.blocks > 0 && r.blocks <= kMaxRecordBlocks && r.client >= 0 &&
         (r.op == IoType::kRead || r.op == IoType::kWrite);
}

void AppendRecordLine(std::string* out, const TraceRecord& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " %" PRId64 " %d %c %d\n", r.timestamp_us, r.lba,
                r.blocks, r.op == IoType::kRead ? 'R' : 'W', r.client);
  out->append(buf);
}

// Parses a base-10 int64 token starting at `*pos`; advances past it. Returns
// false on empty/overflowing/non-numeric tokens.
bool ParseInt(const std::string& line, size_t* pos, int64_t* value) {
  const char* begin = line.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || errno == ERANGE) {
    return false;
  }
  *value = static_cast<int64_t>(v);
  *pos += static_cast<size_t>(end - begin);
  return true;
}

// Parses a finite double token starting at `*pos`; advances past it.
bool ParseDouble(const std::string& line, size_t* pos, double* value) {
  const char* begin = line.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *value = v;
  *pos += static_cast<size_t>(end - begin);
  return true;
}

bool SkipSpaces(const std::string& line, size_t* pos) {
  const size_t start = *pos;
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
  return *pos > start;
}

bool Fail(std::string* error, const std::string& message, int64_t line_no, ParsedTrace* out) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + message;
  }
  out->records.clear();
  return false;
}

// The address checks every format shares; nullptr when in range.
const char* AddressError(int64_t lba, int64_t blocks) {
  if (lba < 0) {
    return "out-of-range lba (must be >= 0)";
  }
  if (blocks <= 0 || blocks > kMaxRecordBlocks) {
    return "out-of-range blocks (must be in [1, 2^20])";
  }
  return nullptr;
}

// A legacy arrival time of `value` units, each `us_per_unit` microseconds,
// as integer microseconds rounded half-up (TimeWarp's rounding). False when
// negative or too large for int64 microseconds.
bool ToMicros(double value, double us_per_unit, int64_t* us) {
  const double rounded = std::floor(value * us_per_unit + 0.5);
  if (value < 0.0 || !(rounded < 9.0e18)) {
    return false;
  }
  *us = static_cast<int64_t>(rounded);
  return true;
}

// The import loop both legacy forms share: `parse_line(line, &record, &keep)`
// returns nullptr and fills `record` for a valid line (clearing `keep` to
// filter it out), or returns the error message.
template <typename ParseLine>
bool ImportLines(const std::string& bytes, ParsedTrace* out, std::string* error,
                 ParseLine parse_line) {
  out->records.clear();
  out->version = 0;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;
  int64_t last_timestamp_us = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    TraceRecord record;
    bool keep = true;
    if (const char* message = parse_line(line, &record, &keep)) {
      return Fail(error, message, line_no, out);
    }
    if (record.timestamp_us < last_timestamp_us) {
      return Fail(error, "arrival time runs backwards (trace must be arrival-sorted)", line_no,
                  out);
    }
    last_timestamp_us = record.timestamp_us;
    if (keep) {
      out->records.push_back(record);
    }
  }
  return true;
}

}  // namespace

TraceWriter::TraceWriter() {
  out_ = std::string(kTraceMagic) + " " + std::to_string(kTraceVersion) + "\n" +
         "# timestamp_us lba blocks op client\n";
}

bool TraceWriter::Append(const TraceRecord& record) {
  if (!ValidRecord(record, last_timestamp_us_)) {
    return false;
  }
  AppendRecordLine(&out_, record);
  last_timestamp_us_ = record.timestamp_us;
  ++records_written_;
  return true;
}

bool TraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  return static_cast<bool>(out);
}

std::string SerializeTrace(const std::vector<TraceRecord>& records) {
  TraceWriter writer;
  for (const TraceRecord& record : records) {
    MSTK_CHECK(writer.Append(record), "SerializeTrace given an invalid record stream");
  }
  return writer.bytes();
}

bool ParseTrace(const std::string& bytes, ParsedTrace* out, std::string* error) {
  out->records.clear();
  out->version = 0;
  std::istringstream in(bytes);
  std::string line;
  int64_t line_no = 0;

  // Header: "MSTKTRACE <version>" on the very first line.
  if (!std::getline(in, line)) {
    return Fail(error, "empty document (missing MSTKTRACE header)", 1, out);
  }
  ++line_no;
  {
    const size_t magic_len = std::strlen(kTraceMagic);
    if (line.compare(0, magic_len, kTraceMagic) != 0 || line.size() <= magic_len ||
        line[magic_len] != ' ') {
      return Fail(error, "bad magic: expected '" + std::string(kTraceMagic) + " <version>'",
                  line_no, out);
    }
    size_t pos = magic_len + 1;
    int64_t version = 0;
    if (!ParseInt(line, &pos, &version) || pos != line.size()) {
      return Fail(error, "malformed version field", line_no, out);
    }
    if (version != kTraceVersion) {
      return Fail(error,
                  "unsupported version " + std::to_string(version) + " (expected " +
                      std::to_string(kTraceVersion) + ")",
                  line_no, out);
    }
    out->version = static_cast<int>(version);
  }

  int64_t last_timestamp_us = -1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    TraceRecord record;
    size_t pos = 0;
    int64_t blocks64 = 0;
    int64_t client64 = 0;
    SkipSpaces(line, &pos);
    if (!ParseInt(line, &pos, &record.timestamp_us)) {
      return Fail(error, "malformed timestamp_us field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &record.lba)) {
      return Fail(error, "malformed lba field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &blocks64)) {
      return Fail(error, "malformed blocks field", line_no, out);
    }
    if (!SkipSpaces(line, &pos) || pos >= line.size() ||
        (line[pos] != 'R' && line[pos] != 'W')) {
      return Fail(error, "malformed op field (expected R or W)", line_no, out);
    }
    record.op = line[pos] == 'R' ? IoType::kRead : IoType::kWrite;
    ++pos;
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &client64)) {
      return Fail(error, "malformed client field", line_no, out);
    }
    SkipSpaces(line, &pos);
    if (pos != line.size()) {
      return Fail(error, "trailing garbage after client field", line_no, out);
    }

    if (record.timestamp_us < 0) {
      return Fail(error, "negative timestamp_us", line_no, out);
    }
    if (record.timestamp_us < last_timestamp_us) {
      return Fail(error, "timestamp_us runs backwards (trace must be arrival-sorted)", line_no,
                  out);
    }
    if (const char* message = AddressError(record.lba, blocks64)) {
      return Fail(error, message, line_no, out);
    }
    if (client64 < 0 || client64 > INT32_MAX) {
      return Fail(error, "out-of-range client id", line_no, out);
    }
    record.blocks = static_cast<int32_t>(blocks64);
    record.client = static_cast<int32_t>(client64);
    last_timestamp_us = record.timestamp_us;
    out->records.push_back(record);
  }
  return true;
}

bool ReadTraceFile(const std::string& path, ParsedTrace* out, std::string* error) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes, error)) {
    return false;
  }
  if (!ParseTrace(bytes, out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* bytes, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = std::move(buffer).str();
  return true;
}

bool ImportV0Trace(const std::string& bytes, ParsedTrace* out, std::string* error) {
  return ImportLines(bytes, out, error, [](const std::string& line, TraceRecord* r, bool*) {
    size_t pos = 0;
    double arrival_ms = 0.0;
    int64_t blocks = 0;
    SkipSpaces(line, &pos);
    if (!ParseDouble(line, &pos, &arrival_ms)) {
      return "malformed arrival_ms field";
    }
    if (!SkipSpaces(line, &pos) || pos >= line.size() ||
        (line[pos] != 'R' && line[pos] != 'W')) {
      return "malformed op field (expected R or W)";
    }
    r->op = line[pos] == 'R' ? IoType::kRead : IoType::kWrite;
    ++pos;
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &r->lba)) {
      return "malformed lbn field";
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &blocks)) {
      return "malformed block_count field";
    }
    SkipSpaces(line, &pos);
    if (pos != line.size()) {
      return "trailing garbage after block_count field";
    }
    if (!ToMicros(arrival_ms, kUsPerMs, &r->timestamp_us)) {
      return "out-of-range arrival_ms";
    }
    r->blocks = static_cast<int32_t>(blocks);
    return AddressError(r->lba, blocks);
  });
}

bool ImportDiskSimTrace(const std::string& bytes, int devno, ParsedTrace* out,
                        std::string* error) {
  return ImportLines(bytes, out, error, [devno](const std::string& line, TraceRecord* r,
                                                bool* keep) {
    size_t pos = 0;
    double arrival_s = 0.0;
    int64_t dev = 0;
    int64_t blocks = 0;
    int64_t flags = 0;
    SkipSpaces(line, &pos);
    if (!ParseDouble(line, &pos, &arrival_s)) {
      return "malformed arrival_seconds field";
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &dev)) {
      return "malformed devno field";
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &r->lba)) {
      return "malformed blkno field";
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &blocks)) {
      return "malformed size_blocks field";
    }
    if (!SkipSpaces(line, &pos) || !ParseInt(line, &pos, &flags)) {
      return "malformed flags field";
    }
    SkipSpaces(line, &pos);
    if (pos != line.size()) {
      return "trailing garbage after flags field";
    }
    if (!ToMicros(arrival_s, kUsPerMs * kMsPerSecond, &r->timestamp_us)) {
      return "out-of-range arrival_seconds";
    }
    r->blocks = static_cast<int32_t>(blocks);
    r->op = (flags & 1) != 0 ? IoType::kRead : IoType::kWrite;
    *keep = devno < 0 || dev == devno;
    return AddressError(r->lba, blocks);
  });
}

std::vector<Request> ToRequests(const ParsedTrace& trace) {
  std::vector<Request> requests;
  requests.reserve(trace.records.size());
  for (const TraceRecord& record : trace.records) {
    Request req;
    req.id = static_cast<int64_t>(requests.size());
    req.type = record.op;
    req.lbn = record.lba;
    req.block_count = record.blocks;
    req.arrival_ms = UsToMs(record.timestamp_us);
    requests.push_back(req);
  }
  return requests;
}

std::vector<TraceRecord> FromRequests(const std::vector<Request>& requests, int32_t client) {
  std::vector<TraceRecord> records;
  records.reserve(requests.size());
  int64_t last_us = 0;
  for (const Request& req : requests) {
    TraceRecord record;
    record.timestamp_us = MsToUs(req.arrival_ms);
    // Guard against double rounding jitter undoing sort order by a tick.
    if (record.timestamp_us < last_us) {
      record.timestamp_us = last_us;
    }
    last_us = record.timestamp_us;
    record.lba = req.lbn;
    record.blocks = req.block_count;
    record.op = req.type;
    record.client = client;
    records.push_back(record);
  }
  return records;
}

}  // namespace trace
}  // namespace mstk
