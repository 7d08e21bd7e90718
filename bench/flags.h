//===-- bench/flags.h - Checked numeric flag parsing ------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one numeric-flag parser every bench uses: a typo in a count or a
/// seed must stop the run with a message naming the flag, never silently
/// benchmark an empty or wrapped-around workload.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_FLAGS_H
#define DAI_BENCH_FLAGS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

namespace dai {

/// Parses \p S as a comma-separated list of unsigned decimal integers, each
/// in [\p Min, \p Max] (exactly one entry when \p Single). Exits 1 with a
/// message naming \p Flag on an empty value, non-numeric input, a sign,
/// trailing junk, an empty list entry or an out-of-range entry. \p Max
/// defaults to the largest \p T, so the result always fits.
template <typename T = unsigned>
std::vector<T> parseCounts(const char *Flag, const char *S, uint64_t Min,
                           uint64_t Max = std::numeric_limits<T>::max(),
                           bool Single = false) {
  std::vector<T> Out;
  const char *P = S;
  for (;;) {
    char *End = nullptr;
    unsigned long long V = 0;
    errno = 0;
    bool Ok = std::isdigit(static_cast<unsigned char>(*P));
    if (Ok) {
      V = std::strtoull(P, &End, 10);
      Ok = errno != ERANGE && V >= Min && V <= Max &&
           (*End == '\0' || (*End == ',' && !Single && End[1] != '\0'));
    }
    if (!Ok) {
      std::fprintf(stderr, "bad %s value '%s': expected %s in %llu..%llu\n",
                   Flag, S, Single ? "an integer" : "integers",
                   static_cast<unsigned long long>(Min),
                   static_cast<unsigned long long>(Max));
      std::exit(1);
    }
    Out.push_back(static_cast<T>(V));
    if (*End == '\0')
      return Out;
    P = End + 1;
  }
}

/// parseCounts for a flag that takes exactly one value.
template <typename T = unsigned>
T parseCount(const char *Flag, const char *S, uint64_t Min,
             uint64_t Max = std::numeric_limits<T>::max()) {
  return parseCounts<T>(Flag, S, Min, Max, /*Single=*/true).front();
}

} // namespace dai

#endif // DAI_BENCH_FLAGS_H
