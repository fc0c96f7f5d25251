// Golden-file comparison shared by the tests that pin output to files under
// tests/golden/ (DRS_GOLDEN_DIR is defined for every test target).
//
// check_golden() byte-compares `actual` with the named file. With
// DRS_UPDATE_GOLDEN set to a non-empty value it rewrites the file instead and
// skips the test, so regeneration is always an explicit, separate step.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

inline constexpr std::string_view kRegenerateHint =
    " — if intentional, regenerate with DRS_UPDATE_GOLDEN=1";

/// On a mismatch the failure reads "<what> drifted from <path><hint>".
inline void check_golden(const std::string& name, const std::string& actual,
                         std::string_view what,
                         std::string_view hint = kRegenerateHint) {
  const std::string path = std::string(DRS_GOLDEN_DIR) + "/" + name;
  if (const char* update = std::getenv("DRS_UPDATE_GOLDEN");
      update != nullptr && *update != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with DRS_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << what << " drifted from " << path << hint;
}
