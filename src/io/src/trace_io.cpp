#include "rfp/io/trace_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

constexpr const char* kMagic = "rfprism-trace";
constexpr const char* kVersion = "v1";

[[noreturn]] void parse_fail(const std::string& what) {
  throw Error("read_round: " + what);
}

}  // namespace

void write_round(std::ostream& os, const RoundTrace& round) {
  require(round.n_antennas > 0, "write_round: zero antennas");
  os << kMagic << ' ' << kVersion << '\n';
  os << "round " << round.n_antennas << ' '
     << std::setprecision(std::numeric_limits<double>::max_digits10)
     << round.duration_s << ' ' << round.dwells.size() << '\n';
  for (const Dwell& dwell : round.dwells) {
    require(dwell.phases.size() == dwell.rssi_dbm.size(),
            "write_round: phase/rssi length mismatch");
    os << "dwell " << dwell.antenna << ' ' << dwell.channel << ' '
       << dwell.frequency_hz << ' ' << dwell.start_time_s << ' '
       << dwell.phases.size() << '\n';
    for (std::size_t i = 0; i < dwell.phases.size(); ++i) {
      os << dwell.phases[i] << ' ' << dwell.rssi_dbm[i] << '\n';
    }
  }
  if (!os) throw Error("write_round: stream failure");
}

RoundTrace read_round(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version)) parse_fail("missing header");
  if (magic != kMagic) parse_fail("bad magic '" + magic + "'");
  if (version != kVersion) parse_fail("unsupported version '" + version + "'");

  std::string tag;
  if (!(is >> tag) || tag != "round") parse_fail("expected 'round'");
  RoundTrace round;
  std::size_t n_dwells = 0;
  if (!(is >> round.n_antennas >> round.duration_s >> n_dwells)) {
    parse_fail("bad round header");
  }
  if (round.n_antennas == 0) parse_fail("zero antennas");

  // Counts come from the file: containers grow as values parse, so a
  // lying header fails on truncation instead of allocating what it claims.
  for (std::size_t d = 0; d < n_dwells; ++d) {
    if (!(is >> tag) || tag != "dwell") parse_fail("expected 'dwell'");
    Dwell dwell;
    std::size_t n_reads = 0;
    if (!(is >> dwell.antenna >> dwell.channel >> dwell.frequency_hz >>
          dwell.start_time_s >> n_reads)) {
      parse_fail("bad dwell header");
    }
    if (dwell.antenna >= round.n_antennas) {
      parse_fail("dwell antenna out of range");
    }
    for (std::size_t i = 0; i < n_reads; ++i) {
      double phase = 0.0, rssi = 0.0;
      if (!(is >> phase >> rssi)) parse_fail("truncated reads");
      dwell.phases.push_back(phase);
      dwell.rssi_dbm.push_back(rssi);
    }
    round.dwells.push_back(std::move(dwell));
  }
  return round;
}

void save_round(const std::string& path, const RoundTrace& round) {
  std::ofstream os(path);
  if (!os) throw Error("save_round: cannot open '" + path + "'");
  write_round(os, round);
}

RoundTrace load_round(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("load_round: cannot open '" + path + "'");
  return read_round(is);
}

namespace {

constexpr const char* kReadLogMagic = "rfprism-readlog";
constexpr const char* kReadLogVersion = "v1";

[[noreturn]] void readlog_fail(const std::string& what) {
  throw Error("read_read_log: " + what);
}

bool has_whitespace(const std::string& s) {
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
        c == '\f') {
      return true;
    }
  }
  return false;
}

}  // namespace

void write_read_log(std::ostream& os, std::span<const StreamRead> reads) {
  os << kReadLogMagic << ' ' << kReadLogVersion << '\n';
  os << "reads " << reads.size() << '\n'
     << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const StreamRead& read : reads) {
    require(!read.tag_id.empty() && !has_whitespace(read.tag_id),
            "write_read_log: tag id must be non-empty and whitespace-free");
    os << read.tag_id << ' ' << read.antenna << ' ' << read.channel << ' '
       << read.frequency_hz << ' ' << read.time_s << ' ' << read.phase << ' '
       << read.rssi_dbm << '\n';
  }
  if (!os) throw Error("write_read_log: stream failure");
}

std::vector<StreamRead> read_read_log(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version)) readlog_fail("missing header");
  if (magic != kReadLogMagic) readlog_fail("bad magic '" + magic + "'");
  if (version != kReadLogVersion) {
    readlog_fail("unsupported version '" + version + "'");
  }

  std::string tag;
  std::size_t n_reads = 0;
  if (!(is >> tag) || tag != "reads" || !(is >> n_reads)) {
    readlog_fail("bad reads header");
  }
  // Grow as reads parse: a lying count fails on truncation instead of
  // allocating what it claims.
  std::vector<StreamRead> reads;
  for (std::size_t i = 0; i < n_reads; ++i) {
    StreamRead read;
    if (!(is >> read.tag_id >> read.antenna >> read.channel >>
          read.frequency_hz >> read.time_s >> read.phase >> read.rssi_dbm)) {
      readlog_fail("truncated reads");
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

void save_read_log(const std::string& path, std::span<const StreamRead> reads) {
  std::ofstream os(path);
  if (!os) throw Error("save_read_log: cannot open '" + path + "'");
  write_read_log(os, reads);
}

std::vector<StreamRead> load_read_log(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("load_read_log: cannot open '" + path + "'");
  return read_read_log(is);
}

}  // namespace rfp
