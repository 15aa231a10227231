// Reproduces the §VII-A TCB-size measurement:
//
//   "our Migration Enclave and Library consist of 217 and 940 lines of
//    code respectively (excluding the SGX trusted libraries), which is
//    feasible to audit."
//
// Counts non-blank, non-comment lines of the corresponding modules of
// this reproduction (excluding, as the paper does, the trusted substrate:
// the simulated SGX runtime, crypto, and networking), reading them under
// the source tree CMake passes as SGXMIG_SOURCE_DIR, so the count is the
// same from any working directory.  Also counts every C++ file (.h, .cpp)
// of each src/ layer, of src/ as a whole, of bench/, perfbench/ and
// tests/, so a change's net code lines per layer show in a bench_diff.  Exits non-zero
// when a listed file or directory cannot be read; writes BENCH_tcb.json
// with the two TCB rows and then one row per counted tree.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.h"

#ifndef SGXMIG_SOURCE_DIR
#define SGXMIG_SOURCE_DIR "."
#endif

namespace {

struct LocCount {
  int code = 0;
  int comment = 0;
  int blank = 0;
  int missing = 0;  // listed files that could not be opened
};

LocCount count_file(const std::string& path) {
  LocCount count;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    count.missing = 1;
    return count;
  }
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    // Strip leading whitespace.
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) {
      ++count.blank;
      continue;
    }
    const std::string trimmed = line.substr(start);
    if (in_block_comment) {
      ++count.comment;
      if (trimmed.find("*/") != std::string::npos) in_block_comment = false;
      continue;
    }
    if (trimmed.rfind("//", 0) == 0) {
      ++count.comment;
      continue;
    }
    if (trimmed.rfind("/*", 0) == 0) {
      ++count.comment;
      if (trimmed.find("*/") == std::string::npos) in_block_comment = true;
      continue;
    }
    ++count.code;
  }
  return count;
}

LocCount count_files(const std::vector<std::string>& files) {
  LocCount total;
  for (const auto& file : files) {
    const LocCount c = count_file(std::string(SGXMIG_SOURCE_DIR) + "/" + file);
    total.code += c.code;
    total.comment += c.comment;
    total.blank += c.blank;
    total.missing += c.missing;
  }
  return total;
}

// Every .h and .cpp file under `dir` (relative to the source tree), in
// path order; a directory that cannot be walked is one missing file.
LocCount count_tree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code error;
  const fs::path root = fs::path(SGXMIG_SOURCE_DIR) / dir;
  for (fs::recursive_directory_iterator it(root, error), end;
       !error && it != end; it.increment(error)) {
    const std::string ext = it->path().extension().string();
    if (it->is_regular_file() && (ext == ".h" || ext == ".cpp")) {
      files.push_back(
          fs::relative(it->path(), SGXMIG_SOURCE_DIR).generic_string());
    }
  }
  if (error || files.empty()) {
    std::fprintf(stderr, "error: cannot read %s\n", root.c_str());
    return LocCount{.missing = 1};
  }
  std::sort(files.begin(), files.end());
  return count_files(files);
}

// The src/ layers: each directory directly under src/, in name order.
std::vector<std::string> src_layers() {
  namespace fs = std::filesystem;
  std::vector<std::string> layers;
  std::error_code error;
  for (fs::directory_iterator it(fs::path(SGXMIG_SOURCE_DIR) / "src", error),
       end;
       !error && it != end; it.increment(error)) {
    if (it->is_directory()) {
      layers.push_back("src/" + it->path().filename().string());
    }
  }
  std::sort(layers.begin(), layers.end());
  return layers;
}

}  // namespace

int main() {
  const std::vector<std::string> me_files = {
      "src/migration/migration_enclave.h",
      "src/migration/migration_enclave.cpp",
  };
  const std::vector<std::string> ml_files = {
      "src/migration/migration_library.h",
      "src/migration/migration_library.cpp",
      "src/migration/library_state.h",
      "src/migration/library_state.cpp",
      "src/migration/migration_data.h",
      "src/migration/migration_data.cpp",
      "src/migration/protocol.h",
      "src/migration/protocol.cpp",
      "src/migration/migratable_enclave.h",
  };

  const LocCount me = count_files(me_files);
  const LocCount ml = count_files(ml_files);

  std::printf("\n================================================================\n");
  std::printf("§VII-A — software TCB added by the migration framework\n");
  std::printf("(code lines exclude blanks and comments; the simulated SGX\n");
  std::printf(" substrate is excluded, as the paper excludes Intel's trusted\n");
  std::printf(" libraries)\n");
  std::printf("================================================================\n");
  std::printf("%-38s %8s %9s %7s\n", "component", "code", "comments", "blank");
  std::printf("%-38s %8d %9d %7d\n", "Migration Enclave", me.code, me.comment,
              me.blank);
  std::printf("%-38s %8d %9d %7d\n",
              "Migration Library (+ wire structures)", ml.code, ml.comment,
              ml.blank);
  std::printf("\npaper reports: ME = 217 LoC, ML = 940 LoC\n");
  std::printf("shape check: both components remain in the hundreds-of-lines "
              "range — %s\n",
              (me.code < 1500 && ml.code < 2500) ? "OK (auditable)" : "grown");

  // Code lines per tree: each src/ layer, src/ as a whole, the benches
  // and the tests.
  std::vector<std::string> trees = src_layers();
  trees.insert(trees.end(), {"src", "bench", "perfbench", "tests"});
  std::vector<LocCount> tree_counts;
  int missing = me.missing + ml.missing;
  std::printf("\ncode lines per tree (.h and .cpp files)\n");
  std::printf("%-38s %8s %9s %7s\n", "tree", "code", "comments", "blank");
  for (const std::string& tree : trees) {
    tree_counts.push_back(count_tree(tree));
    const LocCount& c = tree_counts.back();
    missing += c.missing;
    std::printf("%-38s %8d %9d %7d\n", (tree + "/").c_str(), c.code,
                c.comment, c.blank);
  }
  if (missing != 0) {
    std::fprintf(stderr, "error: %d file(s) or tree(s) under %s could not "
                 "be read\n", missing, SGXMIG_SOURCE_DIR);
    return 1;
  }

  sgxmig::bench::JsonBench json("tcb");
  json.begin_row()
      .field("component", std::string("migration_enclave"))
      .field("code_lines", me.code)
      .field("comment_lines", me.comment)
      .field("paper_lines", 217);
  json.begin_row()
      .field("component", std::string("migration_library"))
      .field("code_lines", ml.code)
      .field("comment_lines", ml.comment)
      .field("paper_lines", 940);
  for (size_t i = 0; i < trees.size(); ++i) {
    json.begin_row()
        .field("component", trees[i])
        .field("code_lines", tree_counts[i].code)
        .field("comment_lines", tree_counts[i].comment);
  }
  return json.write_file("BENCH_tcb.json") ? 0 : 1;
}
