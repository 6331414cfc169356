// Shared test scaffolding: a Database on a fresh temp log directory, plus the
// CC-scheme parameterization used by the engine-level suites.
#ifndef ERMIA_TESTS_TEST_UTIL_H_
#define ERMIA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "engine/database.h"

namespace ermia {
namespace testing {

inline std::string MakeTempDir() {
  char tmpl[] = "/tmp/ermia-test-XXXXXX";
  char* d = ::mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d;
}

inline void RemoveDir(const std::string& dir) {
  if (dir.rfind("/tmp/ermia-test-", 0) != 0) return;  // safety
  std::string cmd = "rm -rf '" + dir + "'";
  int rc = std::system(cmd.c_str());
  (void)rc;
}

// Owns a Database whose log lives in a throwaway directory.
class TempDb {
 public:
  explicit TempDb(EngineConfig config = {}) : dir_(MakeTempDir()) {
    config.log_dir = dir_;
    db_ = std::make_unique<Database>(config);
  }
  ~TempDb() {
    db_.reset();
    RemoveDir(dir_);
  }

  Database* operator->() { return db_.get(); }
  Database* get() { return db_.get(); }
  const std::string& dir() const { return dir_; }

  // Tears down the Database but keeps the directory (restart tests).
  void ShutDown() { db_.reset(); }
  void Restart(EngineConfig config = {}) {
    config.log_dir = dir_;
    db_ = std::make_unique<Database>(config);
  }

 private:
  std::string dir_;
  std::unique_ptr<Database> db_;
};

inline const char* SchemeParamName(
    const ::testing::TestParamInfo<CcScheme>& info) {
  switch (info.param) {
    case CcScheme::kSi:
      return "SI";
    case CcScheme::kSiSsn:
      return "SSN";
    case CcScheme::kOcc:
      return "OCC";
  }
  return "unknown";
}

}  // namespace testing
}  // namespace ermia

#endif  // ERMIA_TESTS_TEST_UTIL_H_
