#include "trace/swf.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "util/failpoint.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace lumos::trace {

namespace {

JobStatus status_from_swf(long long code) noexcept {
  switch (code) {
    case 1: return JobStatus::Passed;
    case 5: return JobStatus::Killed;   // cancelled
    default: return JobStatus::Failed;  // 0 failed, 3/4 partial
  }
}

/// Streams a double in shortest round-trip form, so read_swf parses back
/// the exact value (the stream default keeps only 6 significant digits).
struct Exact {
  double value;
};

std::ostream& operator<<(std::ostream& out, Exact e) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), e.value);
  return out.write(buf, res.ptr - buf);
}

constexpr std::size_t kSwfFields = 18;

/// The six separators std::isspace accepts in the "C" locale.
constexpr bool is_swf_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

long long status_to_swf(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::Passed: return 1;
    case JobStatus::Failed: return 0;
    case JobStatus::Killed: return 5;
  }
  return 0;
}

}  // namespace

SwfRow parse_swf_row(std::string_view trimmed, ResourceKind kind,
                     const ParseOptions& opts, std::size_t lineno) {
  // Tokenize in place: the first 18 fields as views into the line, no
  // allocation. Fields past the 18th are never looked at.
  std::string_view fields[kSwfFields];
  std::size_t count = 0;
  const char* p = trimmed.data();
  const char* const end = p + trimmed.size();
  while (count < kSwfFields) {
    while (p != end && is_swf_space(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    while (p != end && !is_swf_space(*p)) ++p;
    fields[count++] =
        std::string_view(start, static_cast<std::size_t>(p - start));
  }
  if (count < kSwfFields) {
    throw ParseError(
        util::format("SWF %s: expected 18 fields, got %zu",
                     parse_context(opts, lineno).c_str(), count));
  }
  auto need_num = [&](std::size_t i) -> double {
    const char* const first = fields[i].data();
    const char* const last = first + fields[i].size();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last) {
      throw ParseError(util::format("SWF %s field %zu: not a number",
                                    parse_context(opts, lineno).c_str(),
                                    i + 1));
    }
    // std::from_chars accepts "nan"/"inf"; a non-finite field would poison
    // every downstream sketch and moment, so reject it as malformed.
    if (!std::isfinite(v)) {
      throw ParseError(util::format("SWF %s field %zu: non-finite value",
                                    parse_context(opts, lineno).c_str(),
                                    i + 1));
    }
    return v;
  };
  // Clamped float->int conversions: a value outside the target range is a
  // malformed row in practice, but casting it directly is UB — and the
  // fuzz corpus (trace_test) feeds exactly such rows.
  const auto to_u32 = [](double v) -> std::uint32_t {
    if (!(v > 0.0)) return 0;
    if (v >= 4294967295.0) return UINT32_MAX;
    return static_cast<std::uint32_t>(v);
  };
  const auto to_u64 = [](double v) -> std::uint64_t {
    if (!(v > 0.0)) return 0;
    if (v >= 18446744073709549568.0) return UINT64_MAX;  // 2^64 pred
    return static_cast<std::uint64_t>(v);
  };
  SwfRow row;
  Job& j = row.job;
  j.id = to_u64(need_num(0));
  j.submit_time = need_num(1);
  const double wait = need_num(2);
  j.wait_time = wait < 0.0 ? 0.0 : wait;
  j.run_time = need_num(3);
  if (j.run_time < 0.0) {
    row.unknown_runtime = true;  // SWF "unknown runtime"
    return row;
  }
  const double alloc = need_num(4);
  const double req_procs = need_num(7);
  const double procs = alloc > 0.0 ? alloc : req_procs;
  j.cores = procs > 0.0 ? std::max<std::uint32_t>(to_u32(procs), 1) : 1;
  j.nodes = j.cores;  // SWF has no node notion; proc-granular
  j.requested_time = need_num(8);
  if (j.requested_time <= 0.0) j.requested_time = kNoValue;
  const double status = need_num(10);
  j.status = status_from_swf(
      status >= 0.0 && status <= 5.0 ? static_cast<long long>(status) : -1);
  j.user = to_u32(need_num(11));
  j.kind = kind;
  return row;
}

Trace read_swf(std::istream& in, SystemSpec spec, const ParseOptions& opts,
               ParseAudit* audit) {
  Trace trace(std::move(spec));
  std::string line;
  std::size_t lineno = 0;
  std::size_t dropped = 0;
  std::size_t bad_rows = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == ';') continue;
    // Only ParseError is budgeted below: an InjectedFault armed on this
    // site is a library fault, not a malformed row, and must propagate.
    LUMOS_FAILPOINT("trace.swf.row");
    try {
      SwfRow row =
          parse_swf_row(trimmed, trace.spec().primary_kind, opts, lineno);
      if (row.unknown_runtime) {
        ++dropped;
        continue;
      }
      trace.add(std::move(row.job));
    } catch (const ParseError&) {
      if (bad_rows >= opts.bad_row_budget) throw;
      ++bad_rows;
      if (audit != nullptr) audit->skipped_lines.push_back(lineno);
    }
  }
  if (dropped > 0) {
    LUMOS_INFO << "read_swf: dropped " << dropped
               << " jobs with unknown runtime";
  }
  if (audit != nullptr) audit->dropped_unknown_runtime += dropped;
  trace.sort_by_submit();
  return trace;
}

Trace read_swf_file(const std::string& path, SystemSpec spec,
                    const ParseOptions& opts, ParseAudit* audit) {
  LUMOS_FAILPOINT("trace.swf.open");
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open SWF file: " + path);
  ParseOptions file_opts = opts;
  if (file_opts.origin.empty()) file_opts.origin = path;
  return read_swf(in, std::move(spec), file_opts, audit);
}

void write_swf(std::ostream& out, const Trace& trace) {
  const auto& spec = trace.spec();
  out << "; System: " << spec.name << "\n";
  out << "; MaxProcs: " << spec.primary_capacity() << "\n";
  out << "; UnixStartTime: " << spec.epoch_unix << "\n";
  out << "; TimeZoneOffsetHours: " << spec.utc_offset_hours << "\n";
  for (const Job& j : trace.jobs()) {
    out << j.id + 1 << ' '                        // 1 job number (1-based)
        << Exact{j.submit_time} << ' '            // 2 submit
        << Exact{j.wait_time} << ' '              // 3 wait
        << Exact{j.run_time} << ' '               // 4 run
        << j.cores << ' '                         // 5 allocated procs
        << -1 << ' ' << -1 << ' '                 // 6 cpu time, 7 memory
        << j.cores << ' '                         // 8 requested procs
        << Exact{j.has_requested_time() ? j.requested_time : -1.0}
        << ' '                                    // 9 requested time
        << -1 << ' '                              // 10 requested memory
        << status_to_swf(j.status) << ' '         // 11 status
        << j.user << ' '                          // 12 user
        << -1 << ' ' << -1 << ' ' << -1 << ' '    // 13 group 14 exe 15 queue
        << (j.virtual_cluster >= 0 ? j.virtual_cluster : -1) << ' '  // 16
        << -1 << ' ' << -1 << '\n';               // 17 prec job, 18 think
  }
}

void write_swf_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open SWF file for writing: " + path);
  write_swf(out, trace);
}

}  // namespace lumos::trace
