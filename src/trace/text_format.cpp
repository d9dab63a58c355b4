#include "trace/text_format.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::trace {

namespace {

/// The testbed's wall clocks ran in US Mountain Daylight Time (UTC-6): the
/// paper's Figure 1 shows 10:59:47 local for epoch second 1159808385.
constexpr SimTime kUtcOffset = -6LL * 3600 * kSecond;

/// Render local_start (ns, including wall-clock epoch) as HH:MM:SS.uuuuuu.
std::string format_timestamp(SimTime local_ns) {
  const long long total_us = (local_ns + kUtcOffset) / 1000;
  const long long us = total_us % 1000000;
  const long long total_s = total_us / 1000000;
  const long long s = total_s % 60;
  const long long m = (total_s / 60) % 60;
  const long long h = (total_s / 3600) % 24;
  return strprintf("%02lld:%02lld:%02lld.%06lld", h, m, s, us);
}

/// The day base is the midnight (in timezone-shifted clock ns) of the first
/// event so time-of-day stamps can be mapped back to absolute local time.
SimTime day_base_of(SimTime local_ns) {
  const SimTime day = 86400LL * kSecond;
  return ((local_ns + kUtcOffset) / day) * day;
}

bool needs_quoting(EventClass cls, const std::string& name, std::size_t i) {
  // Which argument positions are strings (paths, labels) per call name.
  if (cls == EventClass::kClockProbe) {
    return i == 0;
  }
  if (name == "SYS_open" || name == "open" || name == "SYS_stat" ||
      name == "SYS_unlink" || name == "SYS_mkdir" || name == "SYS_statfs64" ||
      name == "SYS_readdir" || name == "fopen" || name == "creat") {
    return i == 0;
  }
  if (name == "MPI_File_open") {
    return i == 1;
  }
  if (starts_with(name, "vfs_")) {
    return i == 0;  // vfs events lead with the path when known
  }
  return false;
}

}  // namespace

std::string TextTraceWriter::line(const TraceEvent& ev) {
  if (ev.cls == EventClass::kAnnotation) {
    return "# " + ev.name;
  }
  std::string out = format_timestamp(ev.local_start);
  out += ' ';
  if (ev.cls == EventClass::kClockProbe) {
    out += "CLOCK_PROBE(";
  } else {
    out += ev.name;
    out += '(';
  }
  for (std::size_t i = 0; i < ev.args.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    if (needs_quoting(ev.cls, ev.name, i)) {
      out += '"';
      out += ev.args[i];
      out += '"';
    } else {
      out += ev.args[i];
    }
  }
  // Barrier labels live in .path; serialize them so replayers working from
  // raw text traces keep the synchronization structure.
  if (ev.name == "MPI_Barrier" && !ev.path.empty()) {
    if (!ev.args.empty()) {
      out += ", ";
    }
    out += '"';
    out += ev.path;
    out += '"';
  }
  out += strprintf(") = %lld <%.6f>", ev.ret, to_seconds(ev.duration));
  return out;
}

std::string TextTraceWriter::render(const StreamMeta& meta,
                                    const std::vector<TraceEvent>& events) {
  std::string out;
  out += "# iotaxo raw trace v1\n";
  out += strprintf("# host %s rank %d pid %u\n", meta.host.c_str(), meta.rank,
                   meta.pid);
  SimTime day_base = 0;
  for (const TraceEvent& ev : events) {
    if (ev.cls != EventClass::kAnnotation) {
      day_base = day_base_of(ev.local_start);
      break;
    }
  }
  out += strprintf("# daybase %lld\n", static_cast<long long>(day_base));
  for (const TraceEvent& ev : events) {
    out += line(ev);
    out += '\n';
  }
  return out;
}

namespace {

/// Split an argument list on top-level commas, respecting quotes.
std::vector<std::string> split_args(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  for (const char c : s) {
    if (c == '"') {
      in_quotes = !in_quotes;
      continue;  // strip the quotes; positions are known per call name
    }
    if (c == ',' && !in_quotes) {
      out.push_back(std::string(trim(cur)));
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  const auto last = trim(cur);
  if (!last.empty() || !out.empty()) {
    if (!(out.empty() && last.empty())) {
      out.push_back(std::string(last));
    }
  }
  return out;
}

long long to_ll(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

/// A header number in [lo, hi], or FormatError naming `line`.
long long header_number(std::string_view s, long long lo, long long hi,
                        std::string_view line) {
  const std::optional<long long> v = parse_decimal(s);
  if (!v.has_value() || *v < lo || *v > hi) {
    throw FormatError("bad trace header: " + std::string(line));
  }
  return *v;
}

/// Time of day from an H:M:S.us stamp exactly as format_timestamp writes
/// it: each field within its clock range and all of one sign (stamps
/// before the UTC offset render negative). Throws FormatError otherwise.
SimTime parse_time_of_day(std::string_view ts) {
  constexpr long long kMax[4] = {23, 59, 59, 999999};
  constexpr char kSep[3] = {':', ':', '.'};
  long long f[4] = {};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t end = i < 3 ? ts.find(kSep[i], pos) : ts.size();
    const std::optional<long long> v =
        end == std::string_view::npos ? std::nullopt
                                      : parse_decimal(ts.substr(pos, end - pos));
    if (!v.has_value() || *v < -kMax[i] || *v > kMax[i]) {
      throw FormatError("bad timestamp: " + std::string(ts));
    }
    f[i] = *v;
    pos = end + 1;
  }
  const bool non_negative = f[0] >= 0 && f[1] >= 0 && f[2] >= 0 && f[3] >= 0;
  const bool non_positive = f[0] <= 0 && f[1] <= 0 && f[2] <= 0 && f[3] <= 0;
  if (!non_negative && !non_positive) {
    throw FormatError("bad timestamp: " + std::string(ts));
  }
  return (f[0] * 3600 + f[1] * 60 + f[2]) * kSecond + f[3] * kMicrosecond;
}

/// from_seconds rounds into int64 ns; only finite durations well inside
/// that range (about 292 years) convert without overflow.
constexpr double kMaxDurationSeconds = 9.2e9;

/// Reconstruct semantic fields from call name + args (replayer rules).
void attach_semantics(TraceEvent& ev) {
  const auto& a = ev.args;
  const std::string& n = ev.name;
  auto arg = [&](std::size_t i) -> const std::string& { return a[i]; };
  if ((n == "SYS_open" || n == "open") && !a.empty()) {
    ev.path = arg(0);
    ev.fd = static_cast<int>(ev.ret);
  } else if (n == "MPI_File_open" && a.size() >= 2) {
    ev.path = arg(1);
    ev.fd = static_cast<int>(ev.ret);
  } else if ((n == "SYS_close" || n == "MPI_File_close") && !a.empty()) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
  } else if ((n == "SYS_write" || n == "SYS_read") && a.size() >= 2) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
    ev.bytes = to_ll(arg(1));
    if (a.size() >= 3) {
      ev.offset = to_ll(arg(2));
    }
  } else if ((n == "MPI_File_write_at" || n == "MPI_File_read_at" ||
              n == "write" || n == "read") &&
             a.size() >= 3) {
    // Library-level I/O calls render as (fd, offset, bytes).
    ev.fd = static_cast<int>(to_ll(arg(0)));
    ev.offset = to_ll(arg(1));
    ev.bytes = to_ll(arg(2));
  } else if (n == "close" && !a.empty()) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
  } else if (n == "MPI_Barrier" && a.size() >= 2) {
    ev.path = arg(1);  // the barrier label
    ev.args.resize(1);
  } else if (n == "SYS_lseek" && a.size() >= 2) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
    ev.offset = to_ll(arg(1));
  } else if ((n == "SYS_stat" || n == "SYS_unlink" || n == "SYS_mkdir" ||
              n == "SYS_statfs64" || n == "SYS_readdir") &&
             !a.empty()) {
    ev.path = arg(0);
  } else if (n == "SYS_fsync" && !a.empty()) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
  } else if (n == "SYS_mmap" && !a.empty()) {
    ev.fd = static_cast<int>(to_ll(arg(0)));
  } else if (starts_with(n, "vfs_") && !a.empty()) {
    ev.path = arg(0);
    if (a.size() >= 3) {
      ev.offset = to_ll(arg(1));
      ev.bytes = to_ll(arg(2));
    }
  }
}

}  // namespace

TraceEvent TextTraceParser::parse_line(const std::string& raw,
                                       const TextTraceWriter::StreamMeta& meta,
                                       SimTime day_base) {
  TraceEvent ev;
  ev.host = meta.host;
  ev.rank = meta.rank;
  ev.pid = meta.pid;

  const std::string_view line = trim(raw);
  if (starts_with(line, "#")) {
    ev.cls = EventClass::kAnnotation;
    ev.name = std::string(trim(line.substr(1)));
    return ev;
  }

  // timestamp
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    throw FormatError("trace line missing timestamp: " + raw);
  }
  const SimTime of_day = parse_time_of_day(line.substr(0, sp));
  if (__builtin_sub_overflow(day_base, kUtcOffset, &ev.local_start) ||
      __builtin_add_overflow(ev.local_start, of_day, &ev.local_start)) {
    throw FormatError("timestamp overflows the day base: " + raw);
  }

  // name(args) = ret <dur>
  const std::string_view rest = trim(line.substr(sp + 1));
  const std::size_t lp = rest.find('(');
  const std::size_t rp = rest.rfind(')');
  if (lp == std::string_view::npos || rp == std::string_view::npos || rp < lp) {
    throw FormatError("trace line missing call syntax: " + raw);
  }
  ev.name = std::string(rest.substr(0, lp));
  ev.args = split_args(rest.substr(lp + 1, rp - lp - 1));

  const std::string_view tail = trim(rest.substr(rp + 1));
  long long ret = 0;
  double dur = 0.0;
  if (std::sscanf(std::string(tail).c_str(), "= %lld <%lf>", &ret, &dur) != 2) {
    throw FormatError("trace line missing result: " + raw);
  }
  if (!(std::fabs(dur) < kMaxDurationSeconds)) {  // also rejects NaN
    throw FormatError("trace line duration out of range: " + raw);
  }
  ev.ret = ret;
  ev.duration = from_seconds(dur);

  if (ev.name == "CLOCK_PROBE") {
    ev.cls = EventClass::kClockProbe;
    ev.name = "clock_probe";
  } else if (starts_with(ev.name, "SYS_")) {
    ev.cls = EventClass::kSyscall;
  } else if (starts_with(ev.name, "vfs_")) {
    ev.cls = EventClass::kFsOperation;
  } else {
    ev.cls = EventClass::kLibraryCall;
  }
  attach_semantics(ev);
  return ev;
}

TextTraceParser::Parsed TextTraceParser::parse(const std::string& text) {
  Parsed out;
  SimTime day_base = 0;
  bool seen_version = false;
  for (const std::string& raw : split(text, '\n')) {
    const std::string_view line = trim(raw);
    if (line.empty()) {
      continue;
    }
    if (starts_with(line, "# iotaxo raw trace")) {
      seen_version = true;
      continue;
    }
    if (starts_with(line, "# host ")) {
      const auto parts = split_ws(line);
      // "# host <host> rank <rank> pid <pid>"
      if (parts.size() >= 7) {
        out.meta.host = parts[2];
        out.meta.rank = static_cast<int>(
            header_number(parts[4], std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max(), line));
        out.meta.pid = static_cast<std::uint32_t>(header_number(
            parts[6], 0, std::numeric_limits<std::uint32_t>::max(), line));
      }
      continue;
    }
    if (starts_with(line, "# daybase ")) {
      const auto parts = split_ws(line);
      if (parts.size() >= 3) {
        day_base = header_number(parts[2], std::numeric_limits<SimTime>::min(),
                                 std::numeric_limits<SimTime>::max(), line);
      }
      continue;
    }
    out.events.push_back(parse_line(raw, out.meta, day_base));
  }
  if (!seen_version && out.events.empty()) {
    throw FormatError("not an iotaxo raw trace");
  }
  return out;
}

}  // namespace iotaxo::trace
