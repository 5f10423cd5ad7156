// histkd_bench_load — drives a real `histkd --socket` daemon with the
// request lines run.py generated, checks every answer, and writes a
// summary of latencies, throughput and failures.
//
//   histkd_bench_load --histkd PATH --seconds S --out summary.json
//
// Runs in the run directory (see common.h for the input files). One
// process, two connections, one thread per connection. It starts the
// daemon itself (`--workers 2 --data-root data`, all other limits at their
// defaults) so set-up time is measured from exec to the end of warm-up,
// and it reads the daemon's VmHWM just before shutting it down.
//
// Answer checks (every failure counts in "failed"; all but typed 503s,
// which a daemon shedding load under a host stall may send, also count
// in "wrong"):
//   * the status is "ok" and the cache column matches the expectation;
//   * an estimate hit reports zero draws;
//   * a response equals, byte for byte once its id, serve_ms and wall_ms
//     are masked, the first response to the same template in the same
//     cache state — so every hit, every seeded re-run and every test is
//     reproducible;
//   * the "learn" block of every response for a synopsis key is the same
//     (a re-run learn returns the same tiling as the first one), and every
//     quantile / selectivity entry of an estimate equals the entry a miss
//     answered for the same key;
//   * the first response per (template, cache state) parses as JSON and is
//     kept in transcript.ndjson for tools/check_report_json.py --response.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/json.h"
#include "common.h"

namespace perfbench {
namespace {

constexpr const char* kSocket = "d.sock";
constexpr size_t kTranscriptCap = 400;
constexpr int64_t kDrainTimeoutNs = int64_t{60} * 1000 * 1000 * 1000;
constexpr size_t kSlices = 10;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "histkd_bench_load: %s\n", msg.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ responses

enum Cls { kHit, kLearn, kUpload, kTest, kPtest, kCloseness, kOther, kNumCls };
const char* kClsNames[kNumCls] = {"hit",  "learn",     "upload", "test",
                                  "ptest", "closeness", "other"};

enum Cache { kCacheHit, kCacheMiss, kCacheBypass, kCacheNone };

/// Value of a `"name": ` field: the characters up to the next ',' or '}'
/// (strings keep their quotes). Empty when absent.
std::string FieldText(const std::string& resp, const char* name, size_t from = 0) {
  const std::string pat = std::string("\"") + name + "\": ";
  const size_t at = resp.find(pat, from);
  if (at == std::string::npos) return std::string();
  const size_t start = at + pat.size();
  size_t end = start;
  if (end < resp.size() && resp[end] == '"') {
    end = resp.find('"', end + 1);
    if (end == std::string::npos) return std::string();
    ++end;
  } else {
    while (end < resp.size() && resp[end] != ',' && resp[end] != '}') ++end;
  }
  return resp.substr(start, end - start);
}

/// The balanced {...} object that follows `"name": `, or "".
std::string ObjectText(const std::string& resp, const char* name) {
  const std::string pat = std::string("\"") + name + "\": {";
  const size_t at = resp.find(pat);
  if (at == std::string::npos) return std::string();
  const size_t start = at + pat.size() - 1;
  int depth = 0;
  bool in_string = false;
  for (size_t i = start; i < resp.size(); ++i) {
    const char c = resp[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return resp.substr(start, i - start + 1);
    }
  }
  return std::string();
}

/// The response with the values of "id", "serve_ms" and "wall_ms" cut
/// out: what must repeat exactly for the same request in the same state.
std::string Normalize(const std::string& resp) {
  std::string out;
  out.reserve(resp.size());
  size_t pos = 0;
  for (const char* name : {"\"id\": ", "\"serve_ms\": ", "\"wall_ms\": "}) {
    const size_t at = resp.find(name, pos);
    if (at == std::string::npos) continue;
    const size_t start = at + std::strlen(name);
    out.append(resp, pos, start - pos);
    size_t end = start;
    if (end < resp.size() && resp[end] == '"') {
      end = resp.find('"', end + 1) + 1;
    } else {
      while (end < resp.size() && resp[end] != ',' && resp[end] != '}') ++end;
    }
    pos = end;
  }
  out.append(resp, pos, std::string::npos);
  return out;
}

/// Quantile and selectivity entries of an estimate block, keyed by the
/// query part ({"q": 0.5 / {"lo": 0, "hi": 63) with the answer as value.
std::vector<std::pair<std::string, std::string>> EstimateEntries(
    const std::string& block) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t at = block.find("{\""); at != std::string::npos;
       at = block.find("{\"", at + 1)) {
    const size_t end = block.find('}', at);
    if (end == std::string::npos) break;
    const std::string entry = block.substr(at, end - at + 1);
    size_t split = entry.find(", \"value\"");
    if (split == std::string::npos) split = entry.find(", \"estimate\"");
    if (split == std::string::npos) continue;  // the block's own opening
    out.emplace_back(entry.substr(0, split), entry.substr(split));
  }
  return out;
}

class Checker {
 public:
  explicit Checker(const std::vector<Template>& templates)
      : templates_(templates) {}

  struct Verdict {
    bool ok = false;
    Cache cache = kCacheNone;
    double serve_ms = -1.0;
    Cls cls = kOther;
  };

  Verdict Check(const std::string& resp, int tmpl, Expect expect) {
    const Template& t = templates_[static_cast<size_t>(tmpl)];
    Verdict v;
    const std::string status = FieldText(resp, "status");
    const std::string cache = FieldText(resp, "cache");
    v.serve_ms = std::atof(FieldText(resp, "serve_ms").c_str());
    v.cache = cache == "\"hit\""      ? kCacheHit
              : cache == "\"miss\""   ? kCacheMiss
              : cache == "\"bypass\"" ? kCacheBypass
                                      : kCacheNone;
    v.cls = Classify(t, v.cache);
    const std::string head = "template " + std::to_string(tmpl) + " (" + t.kind + "): ";
    if (status != "\"ok\"") {
      // A typed 503 is the daemon shedding load it cannot serve in time (a
      // host stall can cause it): a failed request, not a wrong answer.
      // Every other error status is one.
      return Fail(v, head + "status " + status + " " + FieldText(resp, "error"),
                  /*wrong=*/status != "\"unavailable\"");
    }
    const bool cache_ok = expect == Expect::kAny    ? v.cache != kCacheNone
                          : expect == Expect::kHit  ? v.cache == kCacheHit
                          : expect == Expect::kMiss ? v.cache == kCacheMiss
                                                    : v.cache == kCacheBypass;
    if (!cache_ok) {
      return Fail(v, head + "cache " + cache + ", expected " + ExpectName(expect));
    }
    if (t.kind == "estimate" && v.cache == kCacheHit &&
        resp.find("\"samples_drawn\": 0,") == std::string::npos) {
      return Fail(v, head + "estimate hit drew samples");
    }
    std::string norm = Normalize(resp);
    const uint64_t slot = (static_cast<uint64_t>(tmpl) << 2) | v.cache;
    std::lock_guard<std::mutex> lock(mu_);
    auto seen = first_.find(slot);
    if (seen != first_.end()) {
      if (seen->second != norm) {
        return Fail(v, head + "response differs from the first one");
      }
      v.ok = true;
      return v;
    }
    if (std::string err = DeepCheckLocked(t, resp, v.cache); !err.empty()) {
      return Fail(v, head + err);
    }
    first_.emplace(slot, std::move(norm));
    if (transcript_.size() < kTranscriptCap) transcript_.push_back(resp);
    v.ok = true;
    return v;
  }

  /// A request the daemon never answered: failed, and a wrong answer.
  void CountMissing(int64_t n) {
    if (n <= 0) return;
    std::lock_guard<std::mutex> lock(fail_mu_);
    failures_ += n;
    wrong_ += n;
    Note(std::to_string(n) + " request(s) got no response");
  }

  int64_t failures() const {
    std::lock_guard<std::mutex> lock(fail_mu_);
    return failures_;
  }
  int64_t wrong() const {
    std::lock_guard<std::mutex> lock(fail_mu_);
    return wrong_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(fail_mu_);
    return messages_;
  }
  std::vector<std::string> transcript() const {
    std::lock_guard<std::mutex> lock(mu_);
    return transcript_;
  }

 private:
  static Cls Classify(const Template& t, Cache cache) {
    if (t.kind == "test") return kTest;
    if (t.kind == "property-test") return kPtest;
    if (t.kind == "closeness") return kCloseness;
    if (t.kind == "learn" || t.kind == "estimate") {
      if (cache == kCacheMiss) return kLearn;
      if (cache == kCacheHit) return t.load_ref ? kUpload : kHit;
    }
    return kOther;
  }

  Verdict Fail(Verdict v, const std::string& why, bool wrong = true) {
    std::lock_guard<std::mutex> lock(fail_mu_);
    ++failures_;
    wrong_ += wrong ? 1 : 0;
    Note(why);
    v.ok = false;
    return v;
  }

  void Note(const std::string& why) {
    if (messages_.size() < 8) messages_.push_back(why);
  }

  std::string DeepCheckLocked(const Template& t, const std::string& resp, Cache cache) {
    if (!histk::api::ParseJson(resp).ok()) return "response is not valid JSON";
    if (t.key < 0) return std::string();
    const std::string learn = ObjectText(resp, "learn");
    if (learn.empty()) return "no learn block";
    auto [it, fresh] = learn_.emplace(t.key, learn);
    if (!fresh && it->second != learn) {
      return "learn block differs from an earlier response for the same key";
    }
    if (t.kind != "estimate") return std::string();
    const std::string block = ObjectText(resp, "estimate");
    if (block.empty()) return "no estimate block";
    std::map<std::string, std::string>& ref = answers_[t.key];
    for (const auto& [query, answer] : EstimateEntries(block)) {
      auto known = ref.find(query);
      if (known != ref.end()) {
        if (known->second != answer) {
          return "estimate answer " + query + answer + " differs from " + known->second;
        }
      } else if (cache == kCacheMiss) {
        ref.emplace(query, answer);
      }
    }
    return std::string();
  }

  const std::vector<Template>& templates_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::string> first_;
  std::map<int, std::string> learn_;
  std::map<int, std::map<std::string, std::string>> answers_;
  std::vector<std::string> transcript_;
  // Fail() is reached both with mu_ held (deep checks) and without it, so
  // the failure counters have their own lock.
  mutable std::mutex fail_mu_;
  int64_t failures_ = 0;
  int64_t wrong_ = 0;  ///< failures that are wrong or missing answers
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------- daemon

pid_t StartDaemon(const std::string& histkd) {
  unlink(kSocket);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // The daemon must not outlive the load generator, however it exits.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDERR_FILENO);
      dup2(log, STDOUT_FILENO);
    }
    execl(histkd.c_str(), histkd.c_str(), "--socket", kSocket, "--workers", "2",
          "--data-root", "data", static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

int Connect(pid_t daemon) {
  const int64_t deadline = NowNs() + int64_t{30} * 1000 * 1000 * 1000;
  while (NowNs() < deadline) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    int status = 0;
    if (waitpid(daemon, &status, WNOHANG) == daemon) {
      Die("histkd exited during start-up");
    }
    usleep(1000);
  }
  Die("histkd did not accept connections within 30 s");
}

/// Waits for the daemon to exit; kills it after 20 s.
void Reap(pid_t daemon) {
  for (int i = 0; i < 2000; ++i) {
    int status = 0;
    if (waitpid(daemon, &status, WNOHANG) == daemon) return;
    usleep(10000);
  }
  kill(daemon, SIGKILL);
  waitpid(daemon, nullptr, 0);
}

/// The daemon's user + system CPU time so far, in seconds.
double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The host's CPU time stolen by the hypervisor and its total CPU time so
/// far, in ticks (the aggregate "cpu" line of /proc/stat).
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user .. steal
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

int64_t VmHwmKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

// ---------------------------------------------------------- connection

/// One connection. Non-blocking: a send that finds the socket full reads
/// (and hands on) responses while it waits, so the generator and the
/// daemon can never both block writing to each other.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request line; responses that arrive meanwhile go to on_line.
  template <typename F>
  void Send(const std::string& line, F&& on_line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = write(fd_, line.data() + off, line.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        if (!Poll(100000000, on_line, POLLIN | POLLOUT)) {
          Die("histkd closed the connection");
        }
      } else {
        Die("write to histkd failed");
      }
    }
  }

  /// Waits up to `timeout_ns` for `events`, then hands every complete
  /// response line read to `on_line`. Returns false when the peer closed
  /// the connection.
  template <typename F>
  bool Poll(int64_t timeout_ns, F&& on_line, short events = POLLIN) {
    pollfd pfd{fd_, events, 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    if (ppoll(&pfd, 1, &ts, nullptr) <= 0 || (pfd.revents & (POLLIN | POLLHUP)) == 0) {
      return true;
    }
    char chunk[65536];
    const ssize_t got = read(fd_, chunk, sizeof(chunk));
    if (got < 0) return errno == EINTR || errno == EAGAIN;
    if (got == 0) return false;
    buf_.append(chunk, static_cast<size_t>(got));
    size_t start = 0;
    for (size_t nl = buf_.find('\n'); nl != std::string::npos;
         nl = buf_.find('\n', start)) {
      on_line(buf_.substr(start, nl - start));
      start = nl + 1;
    }
    buf_.erase(0, start);
    return true;
  }

  /// Sends one control request and returns the next response line.
  std::string RoundTrip(const std::string& line) {
    std::string out;
    auto keep = [&out](const std::string& l) { out = l; };
    Send(line, keep);
    const int64_t deadline = NowNs() + kDrainTimeoutNs;
    while (out.empty() && NowNs() < deadline) {
      if (!Poll(100000000, keep)) break;
    }
    if (out.empty()) Die("no response to " + line);
    return out;
  }

 private:
  int fd_;
  std::string buf_;
};

// ------------------------------------------------------------- records

enum Group { kSetup, kClosed, kOpen, kPost, kNumGroups };
const char* kGroupNames[kNumGroups] = {"setup", "closed", "open", "post"};

struct Rec {
  int64_t seq = 0;
  int tmpl = 0;
  Group group = kSetup;
  Expect expect = Expect::kAny;
  int64_t due = 0;
  int64_t sent = 0;
  int64_t recv = 0;  ///< 0 = no response
  double serve_ms = -1.0;
  Cls cls = kOther;
  Cache cache = kCacheNone;
  bool ok = false;
};

int64_t ParseId(const std::string& resp) {
  static const std::string kPrefix = "{\"histkd_response\": 1, \"id\": \"";
  if (resp.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  return std::atoll(resp.c_str() + kPrefix.size());
}

struct Shared {
  const std::vector<Template>* templates = nullptr;
  Checker* checker = nullptr;
  std::atomic<int64_t> next_seq{0};
};

/// One connection's share of a phase: an in-flight table keyed by seq and
/// the finished records.
struct Lane {
  Conn* conn = nullptr;
  std::unordered_map<int64_t, Rec> inflight;
  std::vector<Rec> done;
  int handled = 0;  ///< responses handled since the last Receive()

  void Issue(Shared& sh, Rec rec) {
    rec.sent = NowNs();
    if (rec.due == 0) rec.due = rec.sent;
    inflight.emplace(rec.seq, rec);
    std::string line = "{\"id\": \"" + std::to_string(rec.seq) + "\", ";
    const std::string& json = (*sh.templates)[static_cast<size_t>(rec.tmpl)].json;
    line.append(json, 1, std::string::npos);
    line += '\n';
    conn->Send(line, [&](const std::string& resp) { Handle(sh, resp); });
  }

  void Handle(Shared& sh, const std::string& resp) {
    const int64_t now = NowNs();
    auto it = inflight.find(ParseId(resp));
    if (it == inflight.end()) {
      sh.checker->CountMissing(1);  // unattributable line: count it failed
      return;
    }
    Rec rec = it->second;
    inflight.erase(it);
    rec.recv = now;
    const Checker::Verdict v = sh.checker->Check(resp, rec.tmpl, rec.expect);
    rec.ok = v.ok;
    rec.serve_ms = v.serve_ms;
    rec.cls = v.cls;
    rec.cache = v.cache;
    done.push_back(rec);
    ++handled;
  }

  /// Reads whatever arrives within `timeout_ns`; returns the responses
  /// handled since the last call (sends hand on responses too).
  int Receive(Shared& sh, int64_t timeout_ns) {
    if (!conn->Poll(timeout_ns, [&](const std::string& resp) { Handle(sh, resp); })) {
      Die("histkd closed the connection");
    }
    const int out = handled;
    handled = 0;
    return out;
  }

  /// Waits for the in-flight responses; after kDrainTimeoutNs without one,
  /// the rest count as failed.
  void Drain(Shared& sh) {
    int64_t deadline = NowNs() + kDrainTimeoutNs;
    while (!inflight.empty() && NowNs() < deadline) {
      if (Receive(sh, 50000000) > 0) deadline = NowNs() + kDrainTimeoutNs;
    }
    sh.checker->CountMissing(static_cast<int64_t>(inflight.size()));
    for (auto& [seq, rec] : inflight) done.push_back(rec);
    inflight.clear();
  }
};

/// A list of sends, one in flight per used connection, the first `nlanes`
/// connections pulling from one cursor; returns when all are answered.
void RunSends(Shared& sh, std::vector<Lane>& lanes, size_t nlanes,
              const std::vector<Send>& sends, Group group) {
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  for (size_t l = 0; l < nlanes && l < lanes.size(); ++l) {
    threads.emplace_back([&sh, &lane = lanes[l], &sends, &cursor, group] {
      auto next = [&]() {
        const size_t i = cursor.fetch_add(1);
        if (i >= sends.size()) return false;
        Rec rec;
        rec.seq = sh.next_seq.fetch_add(1);
        rec.tmpl = sends[i].tmpl;
        rec.expect = sends[i].expect;
        rec.group = group;
        lane.Issue(sh, rec);
        return true;
      };
      next();
      int64_t deadline = NowNs() + kDrainTimeoutNs;
      while (!lane.inflight.empty() && NowNs() < deadline) {
        if (lane.Receive(sh, 100000000) > 0) {
          next();
          deadline = NowNs() + kDrainTimeoutNs;
        }
      }
      lane.Drain(sh);
    });
  }
  for (std::thread& t : threads) t.join();
}

struct PhaseResult {
  int64_t start = 0;
  int64_t end = 0;
  std::vector<double> steal;  ///< share of host CPU time stolen, per slice
};

/// Run on the main thread while the lanes drive a phase: samples the
/// host's steal share in each tenth of [res.start, res.end].
void SampleSteal(PhaseResult& res) {
  const int64_t slice = (res.end - res.start) / static_cast<int64_t>(kSlices);
  auto wait_until = [](int64_t t) {
    const int64_t ns = t - NowNs();
    if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  };
  wait_until(res.start);
  std::pair<double, double> prev = StealTicks();
  for (size_t i = 1; i <= kSlices; ++i) {
    wait_until(res.start + static_cast<int64_t>(i) * slice);
    const std::pair<double, double> now = StealTicks();
    const double total = now.second - prev.second;
    res.steal.push_back(total > 0 ? (now.first - prev.first) / total : 0.0);
    prev = now;
  }
}

PhaseResult RunClosed(Shared& sh, std::vector<Lane>& lanes, const Phase& phase,
                      const std::vector<Template>& templates, double seconds) {
  PhaseResult res;
  res.start = NowNs();
  res.end = res.start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> cursor{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < lanes.size() && c < static_cast<size_t>(phase.conns); ++c) {
    threads.emplace_back([&, &lane = lanes[c]] {
      auto next = [&]() {
        const int64_t i = cursor.fetch_add(1);
        const int tmpl = phase.schedule[static_cast<size_t>(i) % phase.schedule.size()];
        Rec rec;
        rec.seq = sh.next_seq.fetch_add(1);
        rec.tmpl = tmpl;
        rec.expect = templates[static_cast<size_t>(tmpl)].expect;
        rec.group = kClosed;
        lane.Issue(sh, rec);
      };
      for (int w = 0; w < phase.window; ++w) next();
      while (NowNs() < res.end) {
        const int got = lane.Receive(sh, 20000000);
        for (int j = 0; j < got && NowNs() < res.end; ++j) next();
      }
      lane.Drain(sh);
    });
  }
  SampleSteal(res);
  for (std::thread& t : threads) t.join();
  return res;
}

PhaseResult RunOpen(Shared& sh, std::vector<Lane>& lanes, const Phase& phase,
                    const std::vector<Template>& templates, double seconds) {
  PhaseResult res;
  const int64_t period = static_cast<int64_t>(1e9 / phase.rate);
  const int64_t total = static_cast<int64_t>(seconds * phase.rate);
  res.start = NowNs() + 2000000;  // both lanes start on the same clock
  res.end = res.start + total * period;
  std::vector<std::thread> threads;
  const int64_t nlanes = static_cast<int64_t>(lanes.size());
  const int64_t base = sh.next_seq.load();
  sh.next_seq.fetch_add(total);
  for (int64_t c = 0; c < nlanes; ++c) {
    threads.emplace_back([&, c] {
      Lane& lane = lanes[static_cast<size_t>(c)];
      for (int64_t i = c; i < total;) {
        const int64_t due = res.start + i * period;
        const int64_t now = NowNs();
        if (now >= due) {
          const int tmpl =
              phase.schedule[static_cast<size_t>(i) % phase.schedule.size()];
          Rec rec;
          rec.seq = base + i;
          rec.tmpl = tmpl;
          rec.expect = templates[static_cast<size_t>(tmpl)].expect;
          rec.group = kOpen;
          rec.due = due;
          lane.Issue(sh, rec);
          i += nlanes;
          continue;
        }
        lane.Receive(sh, due - now);
      }
      lane.Drain(sh);
    });
  }
  SampleSteal(res);
  for (std::thread& t : threads) t.join();
  return res;
}

// ------------------------------------------------------------- summary

void AppendLatency(std::string& out, const std::string& name, std::vector<Rec>& recs) {
  std::vector<double> lat, serve, wait;
  for (const Rec& r : recs) {
    if (!r.ok || r.recv == 0) continue;
    const double us = static_cast<double>(r.recv - r.due) / 1e3;
    lat.push_back(us);
    serve.push_back(r.serve_ms);
    wait.push_back(us - r.serve_ms * 1e3);
  }
  if (lat.empty()) return;
  if (out.back() != '{') out += ", ";
  out += "\"" + name + "\": {";
  AppendField(out, "n", static_cast<double>(lat.size()));
  AppendField(out, "p50_us", Quantile(lat, 0.5));
  AppendField(out, "p90_us", Quantile(lat, 0.9));
  AppendField(out, "p99_us", Quantile(lat, 0.99));
  AppendField(out, "serve_p50_ms", Quantile(serve, 0.5));
  AppendField(out, "wait_p50_us", Quantile(wait, 0.5));
  out += "}";
}

std::string JsonStringLiteral(const std::string& s) {
  std::string out;
  histk::api::AppendJsonString(out, s);
  return out;
}

int Main(int argc, char** argv) {
  std::string histkd, out_path = "summary.json";
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--histkd") {
      histkd = argv[i + 1];
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (flag == "--out") {
      out_path = argv[i + 1];
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (histkd.empty() || !(seconds > 0)) {
    Die("usage: histkd_bench_load --histkd PATH --seconds S [--out FILE]");
  }
  signal(SIGPIPE, SIG_IGN);
  // Open-loop sends wake on ppoll timeouts; the default 50 us timer slack
  // would add that much lateness to every one of them.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const std::vector<Dataset> datasets = LoadDatasets("datasets.tsv");
  const std::vector<Template> templates = LoadTemplates("templates.tsv", datasets);
  const Plan plan = LoadPlan("plan.txt", templates.size());

  Checker checker(templates);
  Shared sh;
  sh.templates = &templates;
  sh.checker = &checker;

  std::vector<double> setup_s;
  pid_t daemon = -1;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Lane> lanes;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    const int64_t t0 = NowNs();
    daemon = StartDaemon(histkd);
    conns.clear();
    lanes.assign(2, Lane{});
    for (Lane& lane : lanes) {
      conns.push_back(std::make_unique<Conn>(Connect(daemon)));
      lane.conn = conns.back().get();
    }
    conns[0]->RoundTrip("{\"id\": \"ready\", \"kind\": \"stats\"}\n");
    for (const std::vector<Send>& stage : plan.stages) {
      RunSends(sh, lanes, lanes.size(), stage, kSetup);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (rep + 1 < plan.setup_reps) {
      conns[0]->RoundTrip("{\"id\": \"bye\", \"kind\": \"shutdown\"}\n");
      conns.clear();
      Reap(daemon);
      // Only the last daemon's warm-up records are reported.
      for (Lane& lane : lanes) lane.done.clear();
    }
  }

  std::string phases_json = "{";
  for (const Phase& phase : plan.phases) {
    const double secs = seconds * phase.share;
    const double cpu0 = CpuSeconds(daemon);
    const PhaseResult r = phase.open ? RunOpen(sh, lanes, phase, templates, secs)
                                     : RunClosed(sh, lanes, phase, templates, secs);
    const double cpu_s = CpuSeconds(daemon) - cpu0;
    const Group g = phase.open ? kOpen : kClosed;
    int64_t in_window = 0, sent = 0, ok = 0;
    int64_t last_recv = r.start, last_in_window = r.start;
    std::vector<double> late;
    for (Lane& lane : lanes) {
      for (const Rec& rec : lane.done) {
        if (rec.group != g) continue;
        ++sent;
        if (rec.ok && rec.recv <= r.end) {
          ++in_window;
          last_in_window = std::max(last_in_window, rec.recv);
        }
        if (rec.ok) {
          ++ok;
          last_recv = std::max(last_recv, rec.recv);
        }
        if (phase.open) late.push_back(static_cast<double>(rec.sent - rec.due) / 1e3);
      }
    }
    if (phases_json.back() != '{') phases_json += ", ";
    phases_json += std::string("\"") + kGroupNames[g] + "\": {";
    AppendField(phases_json, "seconds", static_cast<double>(r.end - r.start) / 1e9);
    AppendField(phases_json, "sent", static_cast<double>(sent));
    AppendField(phases_json, "completed_in_window", static_cast<double>(in_window));
    AppendField(phases_json, "completed", static_cast<double>(ok));
    // Closed loop: completions inside the window, up to the last of them.
    // Open loop: the offered rate caps completions inside the window, so
    // count them all up to the last response; the rate drops when the
    // daemon falls behind.
    const double per_s =
        phase.open
            ? static_cast<double>(ok) * 1e9 / static_cast<double>(last_recv - r.start)
            : static_cast<double>(in_window) * 1e9 /
                  static_cast<double>(last_in_window - r.start);
    AppendField(phases_json, "per_s", per_s);
    AppendField(phases_json, "daemon_cpu_s", cpu_s);

    // Hypervisor steal in the median tenth of the window: printed beside
    // the metrics so a run the host disturbed is visible.
    std::vector<double> steal = r.steal;
    AppendField(phases_json, "steal_share", Quantile(steal, 0.5));
    if (phase.open) {
      AppendField(phases_json, "rate", phase.rate);
      AppendField(phases_json, "late_p50_us", Quantile(late, 0.5));
      AppendField(phases_json, "late_p99_us", Quantile(late, 0.99));
    } else {
      AppendField(phases_json, "window",
                  static_cast<double>(phase.window * phase.conns));
    }
    phases_json += "}";
  }
  phases_json += "}";

  // Post phase: probes and re-checks, outside every timed window.
  std::vector<Send> post = plan.post;
  if (plan.recheck_last > 0) {
    std::vector<Rec> misses;
    for (Lane& lane : lanes) {
      for (const Rec& rec : lane.done) {
        if ((rec.group == kClosed || rec.group == kOpen) && rec.ok &&
            rec.cache == kCacheMiss &&
            templates[static_cast<size_t>(rec.tmpl)].kind == "estimate") {
          misses.push_back(rec);
        }
      }
    }
    std::sort(misses.begin(), misses.end(),
              [](const Rec& a, const Rec& b) { return a.recv > b.recv; });
    const size_t recheck =
        std::min(misses.size(), static_cast<size_t>(plan.recheck_last));
    for (size_t i = 0; i < recheck; ++i) {
      post.push_back(Send{misses[i].tmpl, Expect::kHit});
    }
  }
  // In order, one at a time: a post send may depend on the one before it.
  if (!post.empty()) RunSends(sh, lanes, 1, post, kPost);

  std::string stats = conns[0]->RoundTrip("{\"id\": \"stats\", \"kind\": \"stats\"}\n");
  const int64_t hwm_kb = VmHwmKb(daemon);
  conns[0]->RoundTrip("{\"id\": \"bye\", \"kind\": \"shutdown\"}\n");
  conns.clear();
  Reap(daemon);

  std::vector<Rec> all;
  for (Lane& lane : lanes) all.insert(all.end(), lane.done.begin(), lane.done.end());
  int64_t attempted = 0;
  for (const Rec& rec : all) attempted += rec.group == kSetup ? 0 : 1;

  std::string out = "{";
  out += "\"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", setup_s[i]);
    out += buf;
  }
  out += "]";
  AppendField(out, "rss_peak_kb", static_cast<double>(hwm_kb));
  AppendField(out, "attempted", static_cast<double>(attempted));
  AppendField(out, "responses", static_cast<double>(all.size()));
  AppendField(out, "failed", static_cast<double>(checker.failures()));
  AppendField(out, "wrong", static_cast<double>(checker.wrong()));
  out += ", \"phases\": " + phases_json;
  out += ", \"latency\": {";
  for (int g = -1; g < kNumGroups; ++g) {
    for (int c = 0; c <= kNumCls; ++c) {  // kNumCls: every class
      std::vector<Rec> recs;
      for (const Rec& rec : all) {
        if ((c == kNumCls || rec.cls == c) && (g < 0 || rec.group == g)) {
          recs.push_back(rec);
        }
      }
      AppendLatency(out,
                    std::string(g < 0 ? "all" : kGroupNames[g]) + "." +
                        (c == kNumCls ? "any" : kClsNames[c]),
                    recs);
    }
  }
  out += "}, \"failures\": [";
  const std::vector<std::string> msgs = checker.messages();
  for (size_t i = 0; i < msgs.size(); ++i) {
    out += (i ? ", " : "") + JsonStringLiteral(msgs[i]);
  }
  out += "], \"stats_response\": " + JsonStringLiteral(stats) + "}\n";
  std::ofstream(out_path) << out;

  std::ofstream transcript("transcript.ndjson");
  for (const std::string& line : checker.transcript()) transcript << line << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
