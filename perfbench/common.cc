#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dist/io.h"
#include "serve/fingerprint.h"
#include "stream/concurrent_histogram.h"

namespace perfbench {

namespace {

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::string> SplitTabs(const std::string& line, size_t fields) {
  std::vector<std::string> out;
  size_t start = 0;
  while (out.size() + 1 < fields) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) break;
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  out.push_back(line.substr(start));
  return out;
}

/// The fingerprint DatasetStore::Resolve assigns: items hash at the
/// request's explicit domain; sketches hash their canonical wire bytes.
std::string DatasetFingerprint(const Dataset& ds) {
  std::ifstream in(ds.file);
  if (!in) Die("cannot open " + ds.file);
  if (ds.sketch) {
    histk::Result<histk::HistogramSnapshot> snap = histk::ParseSnapshot(in);
    if (!snap.ok()) Die(ds.file + ": " + snap.status().message());
    std::ostringstream wire;
    histk::WriteSnapshot(wire, *snap);
    return histk::serve::FingerprintHex(
        histk::serve::FingerprintSketchBytes(wire.str()));
  }
  std::vector<int64_t> items;
  histk::Status s = histk::ScanDataset(in, [&items](int64_t item, int64_t) {
    items.push_back(item);
    return histk::Status::Ok();
  });
  if (!s.ok()) Die(ds.file + ": " + s.message());
  return histk::serve::FingerprintHex(histk::serve::FingerprintItems(ds.n, items));
}

}  // namespace

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Expect ParseExpect(char c) {
  switch (c) {
    case 'h':
      return Expect::kHit;
    case 'm':
      return Expect::kMiss;
    case 'b':
      return Expect::kBypass;
    case 'a':
      return Expect::kAny;
  }
  Die(std::string("bad expectation '") + c + "'");
}

const char* ExpectName(Expect e) {
  switch (e) {
    case Expect::kHit:
      return "hit";
    case Expect::kMiss:
      return "miss";
    case Expect::kBypass:
      return "bypass";
    case Expect::kAny:
      return "any";
  }
  return "any";
}

std::vector<Dataset> LoadDatasets(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::vector<Dataset> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitTabs(line, 4);
    if (f.size() != 4) Die(path + ": malformed line: " + line);
    Dataset ds;
    ds.index = std::atoi(f[0].c_str());
    ds.sketch = f[1] == "sketch";
    ds.file = f[2];
    ds.n = std::atoll(f[3].c_str());
    if (ds.index != static_cast<int>(out.size())) Die(path + ": indices out of order");
    ds.fingerprint = DatasetFingerprint(ds);
    out.push_back(ds);
  }
  return out;
}

std::vector<Template> LoadTemplates(const std::string& path,
                                    const std::vector<Dataset>& datasets) {
  std::istringstream in(ReadFile(path));
  std::vector<Template> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitTabs(line, 5);
    if (f.size() != 5 || f[3].empty() || f[4].empty() || f[4][0] != '{') {
      Die(path + ": malformed line: " + line);
    }
    Template t;
    t.key = std::atoi(f[0].c_str());
    t.kind = f[1];
    t.load_ref = f[2] == "load";
    t.expect = ParseExpect(f[3][0]);
    std::string& json = t.json;
    json.reserve(f[4].size());
    for (size_t i = 0; i < f[4].size(); ++i) {
      if (f[4].compare(i, 3, "@FP") == 0) {
        const size_t end = f[4].find('@', i + 3);
        if (end == std::string::npos) Die(path + ": unterminated placeholder");
        const size_t ds = std::strtoul(f[4].c_str() + i + 3, nullptr, 10);
        if (ds >= datasets.size()) Die(path + ": placeholder names no dataset");
        json += datasets[ds].fingerprint;
        i = end;
      } else {
        json += f[4][i];
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

namespace {

std::vector<Send> ParseSends(std::istringstream& words, size_t templates) {
  std::vector<Send> out;
  std::string word;
  while (words >> word) {
    const size_t colon = word.find(':');
    if (colon == std::string::npos || colon + 2 != word.size()) {
      Die("plan: bad send '" + word + "'");
    }
    Send s;
    s.tmpl = std::atoi(word.substr(0, colon).c_str());
    s.expect = ParseExpect(word[colon + 1]);
    if (s.tmpl < 0 || static_cast<size_t>(s.tmpl) >= templates) {
      Die("plan: template index out of range in '" + word + "'");
    }
    out.push_back(s);
  }
  return out;
}

std::vector<int> LoadSchedule(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::vector<int> out;
  int v = 0;
  while (in >> v) out.push_back(v);
  if (out.empty()) Die(path + ": empty schedule");
  return out;
}

}  // namespace

Plan LoadPlan(const std::string& path, size_t templates) {
  std::istringstream in(ReadFile(path));
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    if (directive == "setup_reps") {
      words >> plan.setup_reps;
    } else if (directive == "stage") {
      plan.stages.push_back(ParseSends(words, templates));
    } else if (directive == "post") {
      plan.post = ParseSends(words, templates);
    } else if (directive == "recheck_last") {
      words >> plan.recheck_last;
    } else if (directive == "closed" || directive == "open") {
      Phase phase;
      phase.open = directive == "open";
      std::string file;
      if (phase.open) {
        words >> phase.share >> phase.rate >> file;
      } else {
        words >> phase.share >> phase.window >> phase.conns >> file;
      }
      phase.schedule = LoadSchedule(file);
      for (int t : phase.schedule) {
        if (t < 0 || static_cast<size_t>(t) >= templates) Die(file + ": bad index");
      }
      plan.phases.push_back(std::move(phase));
    } else {
      Die("plan: unknown directive '" + directive + "'");
    }
  }
  if (plan.setup_reps < 1 || plan.phases.empty()) Die("plan: no setup or phases");
  return plan;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

void AppendField(std::string& out, const std::string& name, double value) {
  if (out.back() != '{') out += ", ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  out += "\"" + name + "\": " + buf;
}

}  // namespace perfbench
