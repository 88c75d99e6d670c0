#include "privacy/masking.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace fedcross::privacy {
namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // SplitMix64 step

std::uint64_t MixSeed(std::uint64_t x) {
  x += kGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A range is walked in blocks of this many words: the three uint64 blocks
// the walk keeps on the stack (24 KiB) stay inside L1.
constexpr std::size_t kBlockWords = 1024;
// Ranges shorter than this are not worth a pool task.
constexpr std::size_t kMinRangeWords = 256;

// Adds (or, with `subtract`, subtracts) words [begin, begin + count) of the
// counter-mode mask stream seeded by `pair_seed` into out[0, count). Word i
// is SplitMix64's i-th output, MixSeed(pair_seed + i * gamma); the negation
// is branch-free ((m ^ ~0) - ~0 == -m) so the loop vectorises.
void AddMaskStream(std::uint64_t pair_seed, std::size_t begin,
                   std::size_t count, bool subtract, std::uint64_t* out) {
  const std::uint64_t negate = subtract ? ~std::uint64_t{0} : 0;
  const std::uint64_t base = pair_seed + begin * kGamma;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] += (MixSeed(base + i * kGamma) ^ negate) - negate;
  }
}

// Adds member u's signed pairwise masks for words [begin, begin + count):
// +m_uv for peers v > u, -m_vu for peers v < u. peer_seeds[v] is the pair
// seed u shares with v (entry u is unused).
void AddMemberMasks(const std::uint64_t* peer_seeds, int member, int cohort,
                    std::size_t begin, std::size_t count,
                    std::uint64_t* out) {
  for (int v = 0; v < cohort; ++v) {
    if (v == member) continue;
    AddMaskStream(peer_seeds[v], begin, count, /*subtract=*/v < member, out);
  }
}

std::uint64_t EncodeScaled(float value, double scale) {
  if (!std::isfinite(value)) return 0;
  double scaled = static_cast<double>(value) * scale;
  constexpr double kSat = 4611686018427387904.0;  // 2^62
  if (scaled > kSat) scaled = kSat;
  if (scaled < -kSat) scaled = -kSat;
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(
      std::llround(scaled)));
}

void EncodeRange(const float* values, std::size_t count, int bits,
                 std::uint64_t* out) {
  const double scale = std::ldexp(1.0, bits);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = EncodeScaled(values[i], scale);
  }
}

}  // namespace

std::uint64_t PairSeed(std::uint64_t seed, int round, int salt, int member_u,
                       int member_v) {
  FC_CHECK_LT(member_u, member_v);
  std::uint64_t h = MixSeed(seed ^ 0x7061697273656564ULL);  // "pairseed"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  h = MixSeed(h + static_cast<std::uint64_t>(member_u));
  return MixSeed(h + static_cast<std::uint64_t>(member_v));
}

std::uint64_t FixedPointEncode(float value, int bits) {
  return EncodeScaled(value, std::ldexp(1.0, bits));
}

void MaskedUploadRange(std::uint64_t run_seed, int round, int salt,
                       int member, int cohort, const fl::FlatParams& upload,
                       const MaskOptions& options, std::size_t begin,
                       std::size_t count, std::uint64_t* out) {
  FC_CHECK(member >= 0 && member < cohort);
  FC_CHECK_LE(begin + count, upload.size());
  std::vector<std::uint64_t> peer_seeds(cohort, 0);
  for (int v = 0; v < cohort; ++v) {
    if (v == member) continue;
    peer_seeds[v] = PairSeed(run_seed, round, salt, std::min(member, v),
                             std::max(member, v));
  }
  EncodeRange(upload.data() + begin, count, options.fixed_point_bits, out);
  AddMemberMasks(peer_seeds.data(), member, cohort, begin, count, out);
}

MaskedSumReport SimulateMaskedAggregation(
    std::uint64_t run_seed, int round, int salt,
    const std::vector<const fl::FlatParams*>& uploads,
    const MaskOptions& options, util::ThreadPool* pool) {
  MaskedSumReport report;
  report.cohort = static_cast<std::int64_t>(uploads.size());
  const int members = static_cast<int>(uploads.size());
  std::vector<int> survivors;
  std::size_t size = 0;
  for (int m = 0; m < members; ++m) {
    if (uploads[m] == nullptr) continue;
    if (survivors.empty()) {
      size = uploads[m]->size();
    } else {
      FC_CHECK_EQ(uploads[m]->size(), size);
    }
    survivors.push_back(m);
  }
  report.survivors = static_cast<std::int64_t>(survivors.size());
  if (survivors.empty()) {
    report.exact = true;  // an empty sum needs no unmasking
    return report;
  }

  // One serial pass over the survivor pattern: the report's counts, the
  // dangling (survivor, dropped) pairs recovery must rebuild, and the
  // symmetric pair-seed table every member's masks are drawn from.
  std::vector<std::uint64_t> seeds(
      static_cast<std::size_t>(members) * members, 0);
  std::vector<std::pair<int, int>> dangling;
  for (int u = 0; u < members; ++u) {
    for (int v = u + 1; v < members; ++v) {
      const bool u_alive = uploads[u] != nullptr;
      const bool v_alive = uploads[v] != nullptr;
      if (!u_alive && !v_alive) continue;  // no endpoint uploaded a mask
      ++report.pairs;
      const std::uint64_t seed = PairSeed(run_seed, round, salt, u, v);
      seeds[static_cast<std::size_t>(u) * members + v] = seed;
      seeds[static_cast<std::size_t>(v) * members + u] = seed;
      if (u_alive != v_alive) {
        // Only one endpoint reached the server; the surviving peer reveals
        // the pair seed (8 wire bytes) so the server can rebuild the term.
        dangling.emplace_back(u_alive ? u : v, u_alive ? v : u);
        ++report.recovered_pairs;
        report.recovery_seed_bytes += sizeof(std::uint64_t);
      }
    }
  }

  // Unmasks parameter words [begin, end) block by block. Per block, every
  // survivor builds its own masked upload; the server sums those, then
  // subtracts each dangling term rebuilt from its revealed seed. The result
  // must equal the direct fixed-point sum word for word: every
  // survivor-survivor mask is drawn independently by both endpoints and
  // must annihilate, and every dangling one is drawn by its survivor and
  // again by recovery.
  auto unmask_range = [&](std::size_t begin, std::size_t end) {
    std::array<std::uint64_t, kBlockWords> direct;
    std::array<std::uint64_t, kBlockWords> server;
    std::array<std::uint64_t, kBlockWords> upload;
    for (std::size_t block = begin; block < end; block += kBlockWords) {
      const std::size_t count = std::min(kBlockWords, end - block);
      std::fill_n(direct.begin(), count, 0);
      std::fill_n(server.begin(), count, 0);
      for (int u : survivors) {
        EncodeRange(uploads[u]->data() + block, count,
                    options.fixed_point_bits, upload.data());
        for (std::size_t i = 0; i < count; ++i) direct[i] += upload[i];
        AddMemberMasks(&seeds[static_cast<std::size_t>(u) * members], u,
                       members, block, count, upload.data());
        for (std::size_t i = 0; i < count; ++i) server[i] += upload[i];
      }
      // The survivor added +m when it is the lower member, -m otherwise;
      // recovery takes the same term back out.
      for (const auto& [alive, dropped] : dangling) {
        AddMaskStream(seeds[static_cast<std::size_t>(alive) * members +
                            dropped],
                      block, count, /*subtract=*/alive < dropped,
                      server.data());
      }
      if (!std::equal(server.begin(), server.begin() + count,
                      direct.begin())) {
        return false;
      }
    }
    return true;
  };

  const std::size_t runners =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->num_runners());
  const std::size_t ranges =
      std::clamp<std::size_t>(size / kMinRangeWords, 1, runners);
  if (ranges == 1) {
    report.exact = unmask_range(0, size);
    return report;
  }
  std::vector<char> range_exact(ranges, 0);
  pool->ParallelFor(static_cast<int>(ranges), [&](int r) {
    range_exact[r] = unmask_range(size * r / ranges, size * (r + 1) / ranges);
  });
  report.exact = std::all_of(range_exact.begin(), range_exact.end(),
                             [](char ok) { return ok != 0; });
  return report;
}

}  // namespace fedcross::privacy
