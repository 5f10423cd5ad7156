// Input files shared by the load generator and the traced replay. run.py
// writes them into a run directory; both programs run with that directory
// as their working directory, so every path below is relative to it.
//
//   datasets.tsv   <index> \t items|sketch \t <file> \t <n>
//   templates.tsv  <key> \t <kind> \t fp|load \t <expect> \t <request json>
//   plan.txt       the phases, one directive per line (see Plan)
//   *.sched        whitespace-separated template indices, in send order
//
// A template is a request line without its "id": the load generator
// prefixes `{"id": "<seq>", `. Dataset fingerprints are not known to the
// generator script, so templates carry `@FP<index>@` placeholders that
// LoadTemplates replaces with serve::FingerprintHex of the dataset's
// content, computed exactly as the daemon's DatasetStore does.
#ifndef HISTK_PERFBENCH_COMMON_H_
#define HISTK_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What the response's cache column must read.
enum class Expect { kHit, kMiss, kAny, kBypass };

struct Template {
  int key = -1;          ///< synopsis key id (-1: the kind has no key)
  std::string kind;      ///< request kind name
  bool load_ref = false; ///< dataset ref is path/inline/sketch (not fingerprint)
  Expect expect = Expect::kAny;
  std::string json;      ///< request object without "id", placeholders resolved
};

struct Dataset {
  int index = 0;
  bool sketch = false;
  std::string file;
  int64_t n = 0;
  std::string fingerprint;  ///< 16 hex digits
};

/// One planned send: a template plus an expectation override.
struct Send {
  int tmpl = 0;
  Expect expect = Expect::kAny;
};

/// plan.txt:
///   setup_reps R            start the daemon and run the stages R times
///   stage i:e i:e ...       one warm-up stage (a barrier), i = template,
///                           e = h|m|a|b expectation
///   closed SHARE WINDOW CONNS FILE  closed loop for SHARE of --seconds
///                           on the first CONNS (1 or 2) connections, WINDOW
///                           in flight on each, cycling FILE
///   open SHARE RATE FILE    open loop for SHARE of --seconds at RATE/s
///   post i:e ...            sends after the measured window, in order
///   recheck_last N          re-send the last N measured estimate misses
///                           (must now be hits with the same answers)
struct Phase {
  bool open = false;
  double share = 1.0;
  int window = 1;
  int conns = 2;  ///< closed loop: connections that send
  double rate = 0.0;
  std::vector<int> schedule;
};

struct Plan {
  int setup_reps = 1;
  std::vector<std::vector<Send>> stages;
  std::vector<Phase> phases;
  std::vector<Send> post;
  int recheck_last = 0;
};

/// Each loader prints a message and exits(2) on malformed input: the files
/// come from run.py, so a bad one is a bug in the benchmark itself.
std::vector<Dataset> LoadDatasets(const std::string& path);
std::vector<Template> LoadTemplates(const std::string& path,
                                    const std::vector<Dataset>& datasets);
/// `templates` (the template count) bounds the plan's template indices.
Plan LoadPlan(const std::string& path, size_t templates);

Expect ParseExpect(char c);
const char* ExpectName(Expect e);

/// Reads a whole file (exits(2) when it cannot).
std::string ReadFile(const std::string& path);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (nearest rank) of `values`, which it sorts. 0 if empty.
double Quantile(std::vector<double>& values, double q);

/// Appends `"name": value` (with a leading ", " unless first) to a JSON
/// object under construction.
void AppendField(std::string& out, const std::string& name, double value);

}  // namespace perfbench

#endif  // HISTK_PERFBENCH_COMMON_H_
