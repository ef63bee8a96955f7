// Shared helpers for the celect test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>

#include "celect/harness/experiment.h"
#include "celect/sim/runtime.h"
#include "celect/util/rng.h"

namespace celect::test {

// Asserts the fundamental election contract: exactly one leader was
// declared and the run quiesced.
inline void ExpectUniqueLeader(const sim::RunResult& r,
                               const std::string& context) {
  EXPECT_EQ(r.leader_declarations, 1u) << context;
  EXPECT_TRUE(r.leader_id.has_value()) << context;
}

// Runs and asserts in one step; returns the result for further checks.
inline sim::RunResult RunAndCheck(const sim::ProcessFactory& factory,
                                  const harness::RunOptions& options) {
  sim::RunResult r = harness::RunElection(factory, options);
  ExpectUniqueLeader(r, harness::Describe(options));
  return r;
}

// One random edit for mutation fuzzing: overwrite, insert or delete a
// byte, or truncate. Three in four written bytes come from `favoured`
// (a format's own punctuation, digits and keys), the rest are random.
inline void MutateText(Rng& rng, std::string& text,
                       std::string_view favoured) {
  const auto pick = [&]() -> char {
    return rng.NextBelow(4) == 0
               ? static_cast<char>(rng.NextBelow(256))
               : favoured[rng.NextBelow(favoured.size())];
  };
  const std::size_t at = rng.NextBelow(text.size() + 1);
  switch (rng.NextBelow(8)) {
    case 0: case 1: case 2:
      if (at < text.size()) text[at] = pick();
      break;
    case 3: case 4:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), pick());
      break;
    case 5: case 6:
      if (at < text.size()) text.erase(at, 1);
      break;
    default: text.resize(at); break;
  }
}

}  // namespace celect::test
