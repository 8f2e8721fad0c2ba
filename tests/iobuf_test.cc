// Ref-counted segment/chain buffer (netsim/iobuf.h): refcount lifecycle,
// zero-copy vs copying appends, consume/copy_out, and the writable-tail
// rule that keeps shared bytes immutable; the stream checksum's slicing
// invariance and edit detection.
#include "netsim/iobuf.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace hermes::netsim {
namespace {

// GCC 12 reports -Wuse-after-free for the refs() read after
// `other.reset()` below: it sees the `delete` inside release() on the
// inlined path but not that refs_ is 2 there, so that path never runs. The
// EXPECTs on either side pin the count, and the ASan runs of this test are
// clean. Silenced for this test only.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
#endif
TEST(IoSegment, AllocAppendAndRefCounting) {
  const uint64_t live_before = iobuf_stats().segments_live();
  {
    SegRef seg = IoSegment::alloc(64);
    EXPECT_EQ(seg->capacity(), 64u);
    EXPECT_EQ(seg->size(), 0u);
    EXPECT_EQ(seg->refs(), 1u);
    EXPECT_EQ(seg->append("hello", 5), 5u);
    EXPECT_EQ(seg->size(), 5u);

    SegRef other = seg;  // copy retains
    EXPECT_EQ(seg->refs(), 2u);
    other.reset();
    EXPECT_EQ(seg->refs(), 1u);
    EXPECT_EQ(iobuf_stats().segments_live(), live_before + 1);
  }
  EXPECT_EQ(iobuf_stats().segments_live(), live_before);
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif

TEST(IoSegment, AppendStopsAtCapacity) {
  SegRef seg = IoSegment::alloc(4);
  EXPECT_EQ(seg->append("abcdef", 6), 4u);
  EXPECT_EQ(seg->avail(), 0u);
  EXPECT_EQ(std::string(seg->data(), seg->size()), "abcd");
}

TEST(IoChain, AppendCopyAndToString) {
  IoChain c;
  c.append_copy(std::string_view{"hello "});
  c.append_copy(std::string_view{"world"});
  EXPECT_EQ(c.size(), 11u);
  EXPECT_EQ(c.to_string(), "hello world");
  // Contiguous copies into the same writable tail stay one slice.
  EXPECT_EQ(c.num_slices(), 1u);
}

TEST(IoChain, AppendRefSharesBytesWithoutCopy) {
  SegRef seg = IoSegment::alloc(64);
  seg->append("abcdefgh", 8);

  const uint64_t copied_before = iobuf_stats().bytes_copied;
  IoChain a;
  a.append_ref(seg, 0, 4);
  a.append_ref(seg, 4, 4);  // contiguous: coalesces
  EXPECT_EQ(a.num_slices(), 1u);
  EXPECT_EQ(a.to_string().substr(0, 8), "abcdefgh");
  EXPECT_EQ(iobuf_stats().bytes_copied, copied_before);  // no memcpy
  EXPECT_EQ(seg->refs(), 2u);  // seg + the chain's coalesced slice
}

TEST(IoChain, RefAppendKeepsSegmentAliveAfterSourceDrops) {
  IoChain dst;
  {
    SegRef seg = IoSegment::alloc(16);
    seg->append("payload", 7);
    dst.append_ref(seg, 0, 7);
  }  // source handle gone; chain still owns the bytes
  EXPECT_EQ(dst.to_string(), "payload");
}

TEST(IoChain, SharedTailIsNotWritable) {
  // Writing into a segment another chain can see would corrupt shared
  // bytes; append_copy must allocate a fresh segment instead.
  IoChain a;
  a.append_copy(std::string_view{"aaaa"});
  IoChain b;
  b.append_ref(a.slices()[0]);
  a.append_copy(std::string_view{"bbbb"});  // tail shared with b → new seg
  EXPECT_EQ(a.to_string(), "aaaabbbb");
  EXPECT_EQ(b.to_string(), "aaaa");  // b unchanged
  EXPECT_EQ(a.num_slices(), 2u);
}

TEST(IoChain, ConsumeAdvancesAcrossSlices) {
  IoChain c;
  SegRef s1 = IoSegment::alloc(8);
  s1->append("0123", 4);
  SegRef s2 = IoSegment::alloc(8);
  s2->append("4567", 4);
  c.append_ref(s1, 0, 4);
  c.append_ref(s2, 0, 4);
  c.consume(2);
  EXPECT_EQ(c.to_string(), "234567");
  c.consume(3);
  EXPECT_EQ(c.to_string(), "567");
  c.consume(3);
  EXPECT_TRUE(c.empty());
}

TEST(IoChain, CopyOutWindow) {
  IoChain c;
  c.append_copy(std::string_view{"abcdefghij"});
  char buf[4];
  c.copy_out(3, 4, buf);
  EXPECT_EQ(std::string(buf, 4), "defg");
}

std::string random_bytes(std::mt19937_64& rng, size_t n) {
  std::string s(n, '\0');
  for (char& ch : s) ch = static_cast<char>(rng());
  return s;
}

// A chain holding `flat` cut at `cuts` (ascending), each piece in its own
// segment so no two slices coalesce.
IoChain chain_cut_at(const std::string& flat, const std::vector<size_t>& cuts) {
  IoChain c;
  size_t from = 0;
  auto piece = [&](size_t to) {
    if (to > from) {
      const auto n = static_cast<uint32_t>(to - from);
      SegRef seg = IoSegment::alloc(n);
      seg->append(flat.data() + from, n);
      c.append_ref(seg, 0, n);
    }
    from = to;
  };
  for (const size_t cut : cuts) piece(cut);
  piece(flat.size());
  return c;
}

TEST(IoChain, ChecksumIsSegmentationInvariant) {
  std::mt19937_64 rng(7);
  for (const size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 33, 64, 4095, 4096, 4097,
                         9000}) {
    const std::string flat = random_bytes(rng, n);
    const uint64_t want = checksum_bytes(flat);
    // Fixed-stride fragmentation: every piece length up to two words.
    for (size_t k = 1; k <= 17 && k <= n; ++k) {
      std::vector<size_t> cuts;
      for (size_t i = k; i < n; i += k) cuts.push_back(i);
      ASSERT_EQ(chain_cut_at(flat, cuts).checksum(), want) << n << "/" << k;
    }
    // Every one-point split.
    for (size_t i = 0; i <= n; ++i) {
      ASSERT_EQ(chain_cut_at(flat, {i}).checksum(), want) << n << "@" << i;
    }
    // Two-point splits: all of them for short strings; for long ones,
    // cut points at every word alignment near the start, middle and end.
    std::vector<size_t> points;
    for (size_t i = 0; i <= n; ++i) {
      if (n <= 64 || i < 17 || i + 17 > n || (i + 8 > n / 2 && i < n / 2 + 9)) {
        points.push_back(i);
      }
    }
    for (const size_t i : points) {
      for (const size_t j : points) {
        if (j < i) continue;
        ASSERT_EQ(chain_cut_at(flat, {i, j}).checksum(), want)
            << n << "@" << i << "," << j;
      }
    }
  }
}

TEST(IoChain, ChecksumDetectsEverySingleByteEdit) {
  std::mt19937_64 rng(11);
  const std::vector<std::string> corpus = {
      "", "a", "GET / HTTP/1.1\r\nHost: x\r\n\r\n",
      std::string(40, 'a'), random_bytes(rng, 70)};
  for (const std::string& orig : corpus) {
    const uint64_t base = checksum_bytes(orig);
    for (size_t i = 0; i < orig.size(); ++i) {
      for (int v = 0; v < 256; ++v) {  // substitution
        std::string s = orig;
        if (s[i] == static_cast<char>(v)) continue;
        s[i] = static_cast<char>(v);
        ASSERT_NE(checksum_bytes(s), base) << "sub " << i << "=" << v;
      }
      std::string del = orig;  // deletion
      del.erase(i, 1);
      ASSERT_NE(checksum_bytes(del), base) << "del " << i;
      if (i + 1 < orig.size() && orig[i] != orig[i + 1]) {  // transposition
        std::string t = orig;
        std::swap(t[i], t[i + 1]);
        ASSERT_NE(checksum_bytes(t), base) << "swap " << i;
      }
    }
    for (size_t i = 0; i <= orig.size(); ++i) {
      for (const char ins : {'\0', 'a', '\xff'}) {  // insertion
        std::string s = orig;
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(i), ins);
        ASSERT_NE(checksum_bytes(s), base) << "ins " << i;
      }
    }
  }
}

TEST(IoChain, ChainedChecksumIsOrderSensitive) {
  // The data plane chains one checksum per message: h = m.checksum(h).
  std::mt19937_64 rng(13);
  const std::vector<std::string> msgs = {"", "a", "b", "ab", "abcdefgh",
                                         random_bytes(rng, 100),
                                         random_bytes(rng, 4097)};
  for (const std::string& x : msgs) {
    for (const std::string& y : msgs) {
      if (x == y) continue;
      const IoChain a = chain_cut_at(x, {x.size() / 3});
      const IoChain b = chain_cut_at(y, {y.size() / 2});
      EXPECT_NE(b.checksum(a.checksum()), a.checksum(b.checksum()))
          << x.size() << "," << y.size();
    }
  }
}

TEST(IoChain, StatsAccounting) {
  iobuf_stats().reset();
  IoChain c;
  c.append_copy(std::string_view{"12345"});
  SegRef seg = IoSegment::alloc(16);
  seg->append("abc", 3);
  c.append_ref(seg, 0, 3);
  EXPECT_EQ(iobuf_stats().bytes_copied, 5u);
  EXPECT_EQ(iobuf_stats().bytes_referenced, 3u);
  EXPECT_GE(iobuf_stats().segments_allocated, 2u);
}

}  // namespace
}  // namespace hermes::netsim
