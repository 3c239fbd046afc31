// Unit tests for stores and the striped parallel file system.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>

#include "des/engine.hpp"
#include "pfs/extent.hpp"
#include "pfs/pfs.hpp"
#include "pfs/store.hpp"
#include "util/prng.hpp"

namespace colcom::pfs {
namespace {

std::span<std::byte> as_bytes(std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<std::byte*>(v.data()), v.size()};
}
std::span<const std::byte> as_cbytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

TEST(MemStore, ReadBackWhatWasWritten) {
  MemStore s;
  std::vector<std::uint8_t> w{1, 2, 3, 4, 5};
  s.write(10, as_cbytes(w));
  EXPECT_EQ(s.size(), 15u);
  std::vector<std::uint8_t> r(5);
  s.read(10, as_bytes(r));
  EXPECT_EQ(r, w);
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

// Frees a block of `n` bytes of 0xcd, so storage that is not zeroed when it
// is handed out again would show those bytes.
void dirty_heap(std::size_t n) {
  std::vector<std::uint8_t> junk(n, 0xcd);
  EXPECT_EQ(junk.back(), 0xcd);
}

TEST(MemStore, NeverWrittenBytesReadAsZero) {
  for (const std::size_t size : {std::size_t{4096}, std::size_t{1} << 20}) {
    dirty_heap(size);
    MemStore s(size);
    const std::vector<std::uint8_t> w(100, 0xab);
    s.write(1000, as_cbytes(w));
    std::vector<std::byte> r(size);
    s.read(0, r);
    EXPECT_TRUE(all_zero(std::span(r).first(1000))) << size;
    EXPECT_TRUE(all_zero(std::span(r).subspan(1100))) << size;
    EXPECT_EQ(std::to_integer<int>(r[1000]), 0xab);
  }
}

TEST(MemStore, GapsLeftByWritesPastTheEndReadAsZero) {
  // Each write lands well past the current end and forces the store to
  // grow. Before each one the heap is dirtied with a block of the size the
  // store is about to ask for.
  MemStore s;
  std::vector<std::uint64_t> at;
  for (std::uint64_t off = 100; off < (std::uint64_t{64} << 20); off *= 7) {
    dirty_heap(off + 8);
    const auto mark = static_cast<std::uint8_t>(at.size() + 1);
    s.write(off, as_cbytes(std::vector<std::uint8_t>(8, mark)));
    at.push_back(off);
    ASSERT_EQ(s.size(), off + 8);
  }
  std::vector<std::byte> r(s.size());
  s.read(0, r);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < at.size(); ++i) {
    EXPECT_TRUE(all_zero(std::span(r).subspan(prev, at[i] - prev)))
        << "gap before the write at " << at[i];
    for (std::uint64_t b = at[i]; b < at[i] + 8; ++b) {
      EXPECT_EQ(std::to_integer<std::size_t>(r[b]), i + 1);
    }
    prev = at[i] + 8;
  }
}

// Resident set size of this process, read from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(MemStore, CommitsOnlyWrittenPages) {
  constexpr std::int64_t kMB = 1 << 20;
  const std::vector<std::uint8_t> w(8 * kMB, 0x5a);  // committed up front
  const std::int64_t before = resident_bytes();
  MemStore s(512 * kMB);
  const std::int64_t created = resident_bytes();
  s.write(504 * kMB, as_cbytes(w));
  const std::int64_t written = resident_bytes();
  EXPECT_LT(created - before, 16 * kMB);
  EXPECT_GT(written - created, 7 * kMB);
  EXPECT_LT(written - created, 12 * kMB);
  std::vector<std::uint8_t> tail(8 * kMB);
  s.read(504 * kMB, as_bytes(tail));
  EXPECT_EQ(tail, w);
}

TEST(GeneratorStore, SynthesizesTypedElements) {
  auto g = make_element_generator<float>(
      1000, [](std::uint64_t i) { return static_cast<float>(i) * 0.5f; });
  EXPECT_EQ(g->size(), 4000u);
  std::vector<float> out(10);
  g->read(40, std::as_writable_bytes(std::span<float>(out)));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                    static_cast<float>(i + 10) * 0.5f);
  }
}

TEST(GeneratorStore, HandlesMisalignedByteReads) {
  auto g = make_element_generator<std::uint32_t>(
      100, [](std::uint64_t i) { return static_cast<std::uint32_t>(i); });
  // Read bytes 2..10 (crosses element boundaries mid-element).
  std::vector<std::uint8_t> partial(8);
  g->read(2, as_bytes(partial));
  std::vector<std::uint8_t> full(12);
  g->read(0, as_bytes(full));
  EXPECT_EQ(0, std::memcmp(partial.data(), full.data() + 2, 8));
}

TEST(GeneratorStore, WriteIsRejected) {
  auto g = make_element_generator<float>(10, [](std::uint64_t) { return 0.f; });
  std::vector<std::uint8_t> w{1};
  EXPECT_THROW(g->write(0, as_cbytes(w)), ContractViolation);
}

TEST(OverlayStore, WrittenExtentsShadowBase) {
  auto base = make_element_generator<std::uint8_t>(
      100, [](std::uint64_t) { return std::uint8_t{7}; });
  OverlayStore s(std::move(base));
  std::vector<std::uint8_t> w{1, 2, 3};
  s.write(10, as_cbytes(w));
  std::vector<std::uint8_t> r(6);
  s.read(8, as_bytes(r));
  EXPECT_EQ(r, (std::vector<std::uint8_t>{7, 7, 1, 2, 3, 7}));
}

TEST(OverlayStore, OverlappingWritesMerge) {
  OverlayStore s(std::make_unique<MemStore>(32));
  std::vector<std::uint8_t> a{1, 1, 1, 1}, b{2, 2, 2, 2};
  s.write(0, as_cbytes(a));
  s.write(2, as_cbytes(b));  // overlaps tail of first write
  std::vector<std::uint8_t> r(6);
  s.read(0, as_bytes(r));
  EXPECT_EQ(r, (std::vector<std::uint8_t>{1, 1, 2, 2, 2, 2}));
}

TEST(OverlayStore, GrowsPastBase) {
  OverlayStore s(std::make_unique<MemStore>(4));
  std::vector<std::uint8_t> w{9, 9};
  s.write(10, as_cbytes(w));
  EXPECT_EQ(s.size(), 12u);
  std::vector<std::uint8_t> r(12);
  s.read(0, as_bytes(r));
  EXPECT_EQ(r[9], 0);  // gap is zero-filled
  EXPECT_EQ(r[10], 9);
}

TEST(Extent, CoalesceMergesAdjacentAndOverlapping) {
  std::vector<ByteExtent> e{{0, 10}, {10, 5}, {20, 5}, {22, 10}};
  coalesce_sorted(e);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (ByteExtent{0, 15}));
  EXPECT_EQ(e[1], (ByteExtent{20, 12}));
}

TEST(Extent, TotalBytes) {
  EXPECT_EQ(total_bytes({{0, 3}, {10, 4}}), 7u);
  EXPECT_EQ(total_bytes({}), 0u);
}

class PfsTest : public ::testing::Test {
 protected:
  PfsConfig small_cfg() {
    PfsConfig c;
    c.n_osts = 4;
    c.stripe_size = 1024;
    c.ost_bw = 1e6;
    c.ost_seek = 1e-3;
    c.ost_request_overhead = 1e-4;
    c.storage_net_bw = 1e9;
    return c;
  }
};

TEST_F(PfsTest, RoundTripBytes) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(16384));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> w(5000);
    std::iota(w.begin(), w.end(), 0);
    fs.write(id, 123, as_cbytes(w));
    std::vector<std::uint8_t> r(5000);
    fs.read(id, 123, as_bytes(r));
    ok = (r == w);
  });
  e.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fs.stats().read_bytes, 5000u);
  EXPECT_EQ(fs.stats().written_bytes, 5000u);
}

TEST_F(PfsTest, OpenFindsCreatedFile) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  fs.create("a", std::make_unique<MemStore>(1));
  auto id = fs.create("b", std::make_unique<MemStore>(2));
  EXPECT_EQ(fs.open("b").index, id.index);
  EXPECT_THROW(fs.open("missing"), ContractViolation);
}

TEST_F(PfsTest, StripingSpreadsLoadAcrossOsts) {
  des::Engine e;
  Pfs fs(e, small_cfg());  // 4 OSTs, 1 KB stripes
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime striped = 0, single = 0;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> buf(8192);
    des::SimTime t0 = e.now();
    fs.read(id, 0, as_bytes(buf));  // spans 8 stripes on 4 OSTs in parallel
    striped = e.now() - t0;
    // A read within a single stripe is served by one OST.
    std::vector<std::uint8_t> b2(1024);
    t0 = e.now();
    fs.read(id, 0, as_bytes(b2));
    single = e.now() - t0;
  });
  e.run();
  // 8 KB over 4 parallel OSTs should take ~2x the time of 1 KB on one OST
  // (2 KB per OST), far less than a serial 8x.
  EXPECT_LT(striped, 4.0 * single);
}

TEST_F(PfsTest, NonSequentialAccessPaysSeek) {
  des::Engine e;
  auto cfg = small_cfg();
  cfg.n_osts = 1;
  Pfs fs(e, cfg);
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime seq = 0, rnd = 0;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> buf(512);
    // Sequential pass.
    des::SimTime t0 = e.now();
    fs.read(id, 0, as_bytes(buf));
    fs.read(id, 512, as_bytes(buf));
    seq = e.now() - t0;
    // Backward jump forces a seek.
    t0 = e.now();
    fs.read(id, 100'000, as_bytes(buf));
    fs.read(id, 0, as_bytes(buf));
    rnd = e.now() - t0;
  });
  e.run();
  // Sequential pass pays one cold seek; the jumpy pass pays two.
  EXPECT_GT(rnd, seq + 0.5e-3);
}

TEST_F(PfsTest, ExtentListReadPacksInOrder) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(4096));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<std::uint8_t> w(4096);
    std::iota(w.begin(), w.end(), 0);  // wraps mod 256, fine
    fs.write(id, 0, as_cbytes(w));
    std::vector<ByteExtent> ext{{10, 4}, {100, 2}, {1000, 3}};
    std::vector<std::uint8_t> r(9);
    fs.read_extents_async(id, ext, as_bytes(r)).wait();
    ok = r == (std::vector<std::uint8_t>{10, 11, 12, 13, 100, 101,
                                         static_cast<std::uint8_t>(1000 % 256),
                                         static_cast<std::uint8_t>(1001 % 256),
                                         static_cast<std::uint8_t>(1002 % 256)});
  });
  e.run();
  EXPECT_TRUE(ok);
}

TEST_F(PfsTest, ManySmallExtentsCostMoreThanOneBigRead) {
  des::Engine e;
  Pfs fs(e, small_cfg());
  auto id = fs.create("f", std::make_unique<MemStore>(1 << 20));
  des::SimTime many = 0, big = 0;
  e.spawn("t", 0, [&] {
    // 64 scattered 64-byte extents vs one 4 KB read.
    std::vector<ByteExtent> ext;
    for (int i = 0; i < 64; ++i) {
      ext.push_back({static_cast<std::uint64_t>(i) * 16384, 64});
    }
    std::vector<std::uint8_t> r(64 * 64);
    des::SimTime t0 = e.now();
    fs.read_extents_async(id, ext, as_bytes(r)).wait();
    many = e.now() - t0;
    std::vector<std::uint8_t> r2(4096);
    t0 = e.now();
    fs.read(id, 0, as_bytes(r2));
    big = e.now() - t0;
  });
  e.run();
  EXPECT_GT(many, 5.0 * big);  // the motivation for collective I/O
}

TEST_F(PfsTest, GeneratorBackedHugeFileReadsWithoutMemory) {
  des::Engine e;
  auto cfg = small_cfg();
  cfg.stripe_size = 4ull << 20;
  Pfs fs(e, cfg);
  // "800 GB" logical file.
  const std::uint64_t elems = (800ull << 30) / 4;
  auto id = fs.create("climate", make_element_generator<float>(
                                     elems, [](std::uint64_t i) {
                                       return static_cast<float>(i % 977);
                                     }));
  bool ok = false;
  e.spawn("t", 0, [&] {
    std::vector<float> buf(1024);
    const std::uint64_t elem_off = 700ull << 28;  // deep into the file
    fs.read(id, elem_off * 4, std::as_writable_bytes(std::span<float>(buf)));
    ok = true;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i] != static_cast<float>((elem_off + i) % 977)) ok = false;
    }
  });
  e.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace colcom::pfs
