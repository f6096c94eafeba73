// Exact behaviour gate. A few pinned short runs in each scenario's default
// configuration (auto-tuned rebuilds, block steps)
// are fingerprinted — step count, rebuild steps, every per-kernel op
// tally, the walk statistics, LET traffic, the perfmodel V100/P100
// seconds and a hash of the final state's bits — and compared line by
// line with tests/golden/behaviour.json. All of it is a pure function of
// (scenario, n, seed, steps, shards), so any difference is a behaviour
// change: a changed MAC, grouping rule or tuner input fails here.
//
// On a mismatch the test writes the actual document next to the build and
// prints the `cp` line that re-blesses it; an intended change commits the
// new file with a CHANGES.md note.
#include "nbody/simulation.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/tuning.hpp"
#include "scenario/registry.hpp"
#include "testkit/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gothic {
namespace {

struct PinnedRun {
  const char* name;
  const char* scenario;
  std::size_t n;
  int shards;
  int steps;
};

constexpr PinnedRun kRuns[] = {
    {"m31-4096", "m31", 4096, 1, 24},
    {"plummer-2048-k2", "plummer", 2048, 2, 24},
    {"lj-box-1024", "lj-box", 1024, 1, 72},
};

/// The perfmodel kernel a runtime kernel bucket is priced as, and how many
/// launches one step's bucket stands for (predict + correct share one).
perfmodel::GothicKernel model_kernel(Kernel k, int& invocations) {
  invocations = 1;
  switch (k) {
    case Kernel::WalkTree: return perfmodel::GothicKernel::WalkTree;
    case Kernel::CalcNode: return perfmodel::GothicKernel::CalcNode;
    case Kernel::MakeTree: return perfmodel::GothicKernel::MakeTree;
    default: invocations = 2; return perfmodel::GothicKernel::Predict;
  }
}

/// FNV-1a over the bytes of the packed integration state.
std::uint64_t state_hash(const nbody::Particles& p) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const real v : testkit::pack_state(p)) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

/// One flat JSON object per run, one value per line, so a line diff names
/// the field that moved.
class Doc {
public:
  void begin(const char* name) {
    os_ << (first_run_ ? "" : "\n  },\n") << "  \"" << name << "\": {";
    first_run_ = false;
    first_key_ = true;
  }
  void raw(const std::string& key, const std::string& value) {
    os_ << (first_key_ ? "\n" : ",\n") << "    \"" << key << "\": " << value;
    first_key_ = false;
  }
  void u64(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void real64(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  [[nodiscard]] std::string str() const {
    return "{\n" + os_.str() + "\n  }\n}\n";
  }

private:
  std::ostringstream os_;
  bool first_run_ = true;
  bool first_key_ = true;
};

void ops_fields(Doc& doc, const std::string& prefix, const simt::OpCounts& c) {
  doc.u64(prefix + "int_ops", c.int_ops);
  doc.u64(prefix + "fp32_fma", c.fp32_fma);
  doc.u64(prefix + "fp32_mul", c.fp32_mul);
  doc.u64(prefix + "fp32_add", c.fp32_add);
  doc.u64(prefix + "fp32_special", c.fp32_special);
  doc.u64(prefix + "bytes_load", c.bytes_load);
  doc.u64(prefix + "bytes_store", c.bytes_store);
  doc.u64(prefix + "syncwarp", c.syncwarp);
  doc.u64(prefix + "tile_sync", c.tile_sync);
  doc.u64(prefix + "block_sync", c.block_sync);
  doc.u64(prefix + "global_barrier", c.global_barrier);
  doc.u64(prefix + "shfl", c.shfl);
  doc.u64(prefix + "ballot", c.ballot);
}

void fingerprint(Doc& doc, const PinnedRun& run) {
  const scenario::Scenario& sc = scenario::find_scenario(run.scenario);
  nbody::ShardOptions opt;
  opt.shards = run.shards;
  nbody::Simulation sim(sc.make(run.n, sc.default_seed),
                        scenario::scenario_sim_config(sc), opt);

  const perfmodel::GpuSpec v100 = perfmodel::tesla_v100();
  const perfmodel::GpuSpec p100 = perfmodel::tesla_p100();
  std::string rebuild_steps;
  gravity::WalkStats walk;
  std::uint64_t let_cells = 0;
  std::uint64_t let_bodies = 0;
  double v100_s = 0.0;
  double p100_s = 0.0;
  for (int s = 1; s <= run.steps; ++s) {
    const nbody::StepReport r = sim.step();
    if (r.rebuilt) {
      if (!rebuild_steps.empty()) rebuild_steps += ", ";
      rebuild_steps += std::to_string(s);
    }
    walk += r.walk_stats;
    let_cells += sim.last_shard_stats().let_cells_total;
    let_bodies += sim.last_shard_stats().let_bodies_total;
    for (std::size_t k = 0; k < r.ops.size(); ++k) {
      if (r.ops[k] == simt::OpCounts{}) continue;
      int inv = 1;
      const auto mk = model_kernel(static_cast<Kernel>(k), inv);
      v100_s += perfmodel::gothic_kernel_seconds(v100, mk, r.ops[k], inv);
      p100_s += perfmodel::gothic_kernel_seconds(
          p100, mk, perfmodel::pascal_view(r.ops[k]), inv);
    }
  }

  doc.begin(run.name);
  doc.raw("scenario", std::string("\"") + run.scenario + "\"");
  doc.u64("n", run.n);
  doc.u64("shards", static_cast<std::uint64_t>(run.shards));
  doc.u64("steps", static_cast<std::uint64_t>(sim.step_count()));
  doc.u64("rebuilds", static_cast<std::uint64_t>(sim.rebuild_count()));
  doc.raw("rebuild_steps", "[" + rebuild_steps + "]");
  for (std::size_t k = 0; k < static_cast<std::size_t>(Kernel::Count); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    ops_fields(doc, "ops." + std::string(kernel_name(kernel)) + ".",
               sim.kernel_ops(kernel));
  }
  doc.u64("walk.groups", walk.groups);
  doc.u64("walk.mac_evals", walk.mac_evals);
  doc.u64("walk.nodes_opened", walk.nodes_opened);
  doc.u64("walk.pseudo_appended", walk.pseudo_appended);
  doc.u64("walk.body_appended", walk.body_appended);
  doc.u64("walk.interactions", walk.interactions);
  doc.u64("walk.flushes", walk.flushes);
  doc.u64("let.cells", let_cells);
  doc.u64("let.bodies", let_bodies);
  doc.real64("model.v100_seconds", v100_s);
  doc.real64("model.p100_seconds", p100_s);
  char hash[24];
  std::snprintf(hash, sizeof hash, "\"0x%016" PRIx64 "\"",
                state_hash(sim.particles()));
  doc.raw("state_hash", hash);
}

std::string behaviour_document() {
  Doc doc;
  for (const PinnedRun& run : kRuns) fingerprint(doc, run);
  return doc.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

/// Every line where `actual` differs from `expected`, as readable notes.
std::vector<std::string> compare_documents(const std::string& expected,
                                           const std::string& actual) {
  const std::vector<std::string> e = lines_of(expected);
  const std::vector<std::string> a = lines_of(actual);
  std::vector<std::string> out;
  const std::size_t n = std::max(e.size(), a.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& el = i < e.size() ? e[i] : std::string("<none>");
    const std::string& al = i < a.size() ? a[i] : std::string("<none>");
    if (el != al) {
      out.push_back("line " + std::to_string(i + 1) + ": expected " + el +
                    " | actual " + al);
    }
  }
  return out;
}

std::string read_golden() {
  std::ifstream in(GOTHIC_GOLDEN_FILE);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BehaviourGolden, PinnedRunsMatchTheCommittedGoldenExactly) {
  const std::string actual = behaviour_document();
  const std::vector<std::string> diffs =
      compare_documents(read_golden(), actual);
  if (diffs.empty()) return;
  std::ofstream(GOTHIC_GOLDEN_ACTUAL) << actual;
  std::string report;
  for (std::size_t i = 0; i < diffs.size() && i < 20; ++i) {
    report += "  " + diffs[i] + "\n";
  }
  ADD_FAILURE() << diffs.size() << " golden line(s) differ:\n"
                << report
                << "If the behaviour change is intended, re-bless with:\n"
                << "  cp " << GOTHIC_GOLDEN_ACTUAL << " " << GOTHIC_GOLDEN_FILE;
}

TEST(BehaviourGolden, OneOpPerturbationIsAMismatch) {
  const std::string golden = read_golden();
  const std::string key = "\"ops.walkTree.fp32_fma\": ";
  const std::size_t at = golden.find(key);
  ASSERT_NE(at, std::string::npos) << "golden lacks " << key;
  const std::size_t begin = at + key.size();
  const std::size_t end = golden.find_first_of(",\n", begin);
  const std::uint64_t v = std::stoull(golden.substr(begin, end - begin));
  std::string perturbed = golden;
  perturbed.replace(begin, end - begin, std::to_string(v + 1));

  const std::vector<std::string> diffs = compare_documents(golden, perturbed);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("ops.walkTree.fp32_fma"), std::string::npos)
      << diffs[0];
  EXPECT_TRUE(compare_documents(golden, golden).empty());
}

} // namespace
} // namespace gothic
