// Unit tests for the bit-level primitives behind the MS-BFS engine.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

TEST(WordsForBits, Boundaries) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(512), 8u);
}

TEST(ForEachSetBit, VisitsExactlySetBits) {
  const Word w = (Word{1} << 0) | (Word{1} << 7) | (Word{1} << 63);
  std::vector<std::size_t> seen;
  for_each_set_bit(w, 100, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{100, 107, 163}));
}

TEST(ForEachSetBit, ZeroWordVisitsNothing) {
  int calls = 0;
  for_each_set_bit(0, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Bitmap, SetTestClear) {
  Bitmap bm(130);
  EXPECT_FALSE(bm.test(0));
  bm.set(0);
  bm.set(64);
  bm.set(129);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(129));
  EXPECT_FALSE(bm.test(1));
  EXPECT_EQ(bm.count(), 3u);
  bm.clear_bit(64);
  EXPECT_FALSE(bm.test(64));
  EXPECT_EQ(bm.count(), 2u);
}

TEST(Bitmap, AtomicTestAndSetReportsTransition) {
  Bitmap bm(64);
  EXPECT_TRUE(bm.atomic_test_and_set(5));
  EXPECT_FALSE(bm.atomic_test_and_set(5));
  EXPECT_TRUE(bm.test(5));
}

TEST(Bitmap, AtomicTestAndSetUnderContention) {
  Bitmap bm(1024);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 1024; ++i) {
        if (bm.atomic_test_and_set(i)) winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1024);  // each bit won exactly once
  EXPECT_EQ(bm.count(), 1024u);
}

TEST(Bitmap, OrAndNot) {
  Bitmap a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  Bitmap u = a;
  u.or_with(b);
  EXPECT_EQ(u.count(), 3u);
  u.and_not(b);
  EXPECT_EQ(u.count(), 1u);
  EXPECT_TRUE(u.test(1));
}

TEST(Bitmap, ForEachEnumeratesInOrder) {
  Bitmap bm(200);
  bm.set(3);
  bm.set(64);
  bm.set(199);
  std::vector<std::size_t> seen;
  bm.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 199}));
}

TEST(Bitmap, AnyAndClearAll) {
  Bitmap bm(70);
  EXPECT_FALSE(bm.any());
  bm.set(69);
  EXPECT_TRUE(bm.any());
  bm.clear_all();
  EXPECT_FALSE(bm.any());
}

TEST(QueryBitRows, SetTestAcrossWords) {
  QueryBitRows rows(10, 130);  // 3 words per row
  EXPECT_EQ(rows.words_per_row(), 3u);
  rows.set(4, 0);
  rows.set(4, 64);
  rows.set(4, 129);
  EXPECT_TRUE(rows.test(4, 0));
  EXPECT_TRUE(rows.test(4, 64));
  EXPECT_TRUE(rows.test(4, 129));
  EXPECT_FALSE(rows.test(4, 1));
  EXPECT_FALSE(rows.test(5, 0));
  EXPECT_EQ(rows.count(), 3u);
}

TEST(QueryBitRows, RowAnyAndClearRow) {
  QueryBitRows rows(4, 64);
  EXPECT_FALSE(rows.row_any(2));
  rows.set(2, 63);
  EXPECT_TRUE(rows.row_any(2));
  rows.clear_row(2);
  EXPECT_FALSE(rows.row_any(2));
}

TEST(QueryBitRows, SwapExchangesContents) {
  QueryBitRows a(4, 8), b(4, 8);
  a.set(0, 0);
  b.set(3, 7);
  a.swap(b);
  EXPECT_FALSE(a.test(0, 0));
  EXPECT_TRUE(a.test(3, 7));
  EXPECT_TRUE(b.test(0, 0));
}

TEST(QueryBitRows, WordEdgeQueryCounts) {
  // Query counts straddling the 64-bit word boundary: 63 and 64 queries
  // must pack into one word per row, 65 must spill into two — and the
  // bits on either side of the seam must not alias.
  for (const std::size_t q_count : {std::size_t{63}, std::size_t{64},
                                    std::size_t{65}}) {
    QueryBitRows rows(3, q_count);
    EXPECT_EQ(rows.words_per_row(), q_count <= 64 ? 1u : 2u)
        << q_count << " queries";

    // Set the last valid query bit on every row; nothing else may appear.
    for (std::size_t r = 0; r < 3; ++r) rows.set(r, q_count - 1);
    EXPECT_EQ(rows.count(), 3u) << q_count << " queries";
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_TRUE(rows.test(r, q_count - 1));
      EXPECT_FALSE(rows.test(r, 0));
      EXPECT_TRUE(rows.row_any(r));
    }

    // First and last bit of the same row live in the right words.
    rows.set(1, 0);
    EXPECT_EQ(rows.row(1)[0] & Word{1}, Word{1});
    if (q_count == 65) {
      // Bit 64 is bit 0 of the second word, not bit 63 of the first.
      EXPECT_EQ(rows.row(1)[1], Word{1});
      EXPECT_EQ(rows.row(1)[0] >> 63, Word{0});
    } else {
      EXPECT_EQ(rows.row(1)[0] >> (q_count - 1), Word{1});
    }
    rows.clear_row(1);
    EXPECT_FALSE(rows.row_any(1));
    EXPECT_EQ(rows.count(), 2u);
  }
}

TEST(PopcountWords, EmptyAndZero) {
  EXPECT_EQ(popcount_words(nullptr, 0), 0u);
  const Word zeros[3] = {0, 0, 0};
  EXPECT_EQ(popcount_words(zeros, 3), 0u);
}

TEST(PopcountWords, WordBoundaryPatterns) {
  // Row widths straddling the word boundary, as a 63/64/65-query batch
  // row would lay them out.
  const Word w63 = ~Word{0} >> 1;  // 63 bits
  EXPECT_EQ(popcount_words(&w63, 1), 63u);
  const Word w64 = ~Word{0};
  EXPECT_EQ(popcount_words(&w64, 1), 64u);
  const Word w65[2] = {~Word{0}, Word{1}};  // 65 bits across two words
  EXPECT_EQ(popcount_words(w65, 2), 65u);
}

TEST(PopcountWords, MatchesPerBitLoop) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  Word words[8];
  for (auto& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::uint64_t expected = 0;
  for (const Word w : words) {
    for (std::size_t b = 0; b < kWordBits; ++b) {
      expected += (w >> b) & 1u;
    }
  }
  EXPECT_EQ(popcount_words(words, 8), expected);
  // Prefix sums agree too (the per-row accounting slices the same array).
  std::uint64_t prefix = 0;
  for (std::size_t c = 0; c <= 8; ++c) {
    EXPECT_EQ(popcount_words(words, c), prefix);
    if (c < 8) prefix += popcount_words(&words[c], 1);
  }
}

TEST(AtomicOrWord, SetsMissingBitsAndLeavesSetWordsAlone) {
  Word w = 0b1010;
  atomic_or_word(&w, 0b0010);  // already set: no change
  EXPECT_EQ(w, Word{0b1010});
  atomic_or_word(&w, 0b0110);  // partly set: the missing bit lands
  EXPECT_EQ(w, Word{0b1110});
  atomic_or_word(&w, 0);
  EXPECT_EQ(w, Word{0b1110});
}

TEST(AtomicOrWord, ConcurrentOrsUnionEveryBit) {
  std::vector<Word> words(4, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&words, t] {
      for (unsigned i = 0; i < 2000; ++i) {
        atomic_or_word(&words[i % words.size()],
                       Word{1} << ((i * 7 + t * 13) % kWordBits));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Word> want(words.size(), 0);
  for (unsigned t = 0; t < 4; ++t) {
    for (unsigned i = 0; i < 2000; ++i) {
      want[i % want.size()] |= Word{1} << ((i * 7 + t * 13) % kWordBits);
    }
  }
  EXPECT_EQ(words, want);
}

TEST(Bitmap, AtomicSetSetsBit) {
  Bitmap bm(130);
  bm.atomic_set(129);
  bm.atomic_set(129);
  bm.atomic_set(0);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(129));
  EXPECT_EQ(bm.count(), 2u);
}

TEST(Bitmap, CountAndDrainRangeRespectBounds) {
  Bitmap bm(300);
  const std::vector<std::size_t> set = {0, 1, 63, 64, 65, 127, 128, 200,
                                        255, 256, 299};
  for (std::size_t i : set) bm.set(i);
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0}, {5, 5}, {0, 1}, {1, 64}, {63, 65}, {64, 128},
      {65, 200}, {128, 257}, {256, 300}, {0, 300}};
  for (const auto& [b, e] : ranges) {
    std::vector<std::size_t> want;
    for (std::size_t i : set) {
      if (i >= b && i < e) want.push_back(i);
    }
    EXPECT_EQ(bm.count_range(b, e), want.size()) << b << ".." << e;
    Bitmap copy = bm;
    std::vector<std::size_t> got;
    copy.drain_range(b, e, [&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want) << b << ".." << e;
    // Drained bits are cleared; bits outside the range survive.
    for (std::size_t i : set) {
      EXPECT_EQ(copy.test(i), i < b || i >= e) << i << " in " << b << ".."
                                               << e;
    }
  }
}

// count_query_bits against the one-increment-per-set-bit reference it
// replaces: every batch width W = 1..8 words with query counts that are not
// word multiples, columns that are always / never / half / rarely set (an
// always-set column drives a 16-plane counter to 65,535, its no-wrap
// maximum), empty ranges, ranges inside one flush block, and ranges that
// cross the 65,535-row flush.
TEST(CountQueryBits, MatchesPerBitReference) {
  constexpr std::size_t kRows = 66000;
  Xoshiro256 rng(0xC0C0);
  for (std::size_t W = 1; W <= QueryBitRows::kMaxBatchWords; ++W) {
    for (const std::size_t Q : {W * kWordBits - 63, W * kWordBits - 5}) {
      QueryBitRows plane(kRows, Q);
      Word always[QueryBitRows::kMaxBatchWords] = {};
      Word half[QueryBitRows::kMaxBatchWords] = {};
      Word rare[QueryBitRows::kMaxBatchWords] = {};
      for (std::size_t q = 0; q < Q; ++q) {
        const Word bit = Word{1} << (q % kWordBits);
        switch (q % 4) {
          case 0: always[q / kWordBits] |= bit; break;
          case 1: half[q / kWordBits] |= bit; break;
          case 2: rare[q / kWordBits] |= bit; break;
          default: break;  // never set
        }
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        Word* row = plane.row(r);
        for (std::size_t w = 0; w < W; ++w) {
          const Word sparse = rng.next() & rng.next() & rng.next() &
                              rng.next() & rng.next();
          row[w] = always[w] | (rng.next() & half[w]) | (sparse & rare[w]);
        }
      }
      const std::pair<std::size_t, std::size_t> ranges[] = {
          {0, 0},          {777, 777},    {kRows, kRows}, {0, 1},
          {3, 100},        {0, 65535},    {0, 65536},     {100, 65636},
          {1, kRows},      {0, kRows}};
      for (const auto& [b, e] : ranges) {
        std::vector<std::uint64_t> want(Q, 5);
        for (std::size_t r = b; r < e; ++r) {
          const Word* row = plane.row(r);
          for (std::size_t w = 0; w < W; ++w) {
            for_each_set_bit(row[w], w * kWordBits,
                             [&](std::size_t q) { ++want[q]; });
          }
        }
        std::vector<std::uint64_t> got(Q, 5);  // adds onto existing counts
        count_query_bits(plane, b, e, got);
        ASSERT_EQ(got, want) << "W=" << W << " Q=" << Q << " rows " << b
                             << ".." << e;
      }
    }
  }
}

TEST(QueryBitRowsDeathTest, OversizedBatchAborts) {
  EXPECT_DEATH(QueryBitRows(4, QueryBitRows::kMaxBatchWords * 64 + 1),
               "query batch exceeds");
}

}  // namespace
}  // namespace cgraph
