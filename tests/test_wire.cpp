// Seeded mutation fuzz over every byte image colcom reads back through the
// fault/wire.hpp codec: FlatRequest and TwoPhasePlan images, the
// mid-analysis state of a partial run, IterativeComputer checkpoints and
// their generation slots, and ncio dataset headers.
//
// Each image starts valid and is cut at every length, flipped one byte at
// a time from a seeded stream, and has each count, length or int-typed word
// set to 0, 2^31, 2^32+1, 2^63 and 2^64-1. Every input must either decode
// — and then re-encode to the same bytes, which rules out truncating casts
// — or throw fault::Error{data_corrupt} from the decoding layer. Nothing
// else may escape: no ContractViolation, length_error or bad_alloc, and (in
// the sanitizer stage of scripts/ci.sh) no ASan/UBSan report.
//
// Each encoder's output for one fixed input is also pinned to a checksum,
// so the codec cannot drift any byte layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/iterative.hpp"
#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "fault/wire.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "romio/plan.hpp"
#include "romio/request.hpp"
#include "util/prng.hpp"

namespace colcom {
namespace {

// ---------------------------------------------------------------- fixtures

mpi::MachineConfig small_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  cfg.pfs.n_osts = 4;
  cfg.pfs.stripe_size = 8192;
  return cfg;
}

ncio::Dataset make_ds(pfs::Pfs& fs) {
  return ncio::DatasetBuilder(fs, "wire.nc")
      .add_generated_var<float>(
          "v", {64, 16, 16},
          [](std::span<const std::uint64_t> c) {
            double v = 1.0;
            for (auto x : c) v = v * 3.7 + static_cast<double>(x);
            return static_cast<float>(v * 1e-3);
          })
      .add_var("aux", mpi::Prim::i32, {4, 5})
      .finish();
}

core::ObjectIO solo_io(const ncio::Dataset& ds) {
  core::ObjectIO io;
  io.var = ds.var("v");
  io.start = {0, 0, 0};
  io.count = {32, 16, 16};
  io.op = mpi::Op::sum();
  io.hints.cb_buffer_size = 4096;
  return io;
}

romio::TwoPhasePlan make_plan(const core::ObjectIO& io,
                              const ncio::Dataset& ds, mpi::Comm& c) {
  return romio::build_plan(c, ds.slab_request(io.var, io.start, io.count),
                           core::detail::cc_hints(io, 4));
}

romio::FlatRequest fixed_request() {
  return romio::FlatRequest({{16, 8}, {100, 4}, {4096, 1024}});
}

romio::TwoPhasePlan fixed_plan() {
  romio::TwoPhasePlan p;
  p.gmin = 16;
  p.gmax = 4096;
  p.n_iters = 2;
  p.cb = 1024;
  p.aggregators = {0, 4};
  p.fd_begin = {16, 2064};
  p.fd_end = {2064, 4096};
  p.domain_requests = {romio::FlatRequest({{16, 8}, {100, 4}}),
                       romio::FlatRequest()};
  p.all_requests = {romio::FlatRequest({{16, 8}}),
                    romio::FlatRequest({{2064, 32}})};
  return p;
}

/// Bytes of the dataset header: magic, version, nvars, then per variable
/// its name length and name, prim, rank, dims and offset.
std::size_t header_bytes(const ncio::Dataset& ds) {
  std::size_t n = 12;
  for (int i = 0; i < ds.var_count(); ++i) {
    const ncio::VarInfo& v = ds.info(ncio::VarId{i});
    n += 4 + v.name.size() + 1 + 4 + 8 * v.dims.size() + 8;
  }
  return n;
}

/// One valid image of each kind, from fixed inputs.
struct Images {
  std::vector<std::byte> request, plan, header, checkpoint, mid;
};

Images fixed_images() {
  Images im;
  im.request = fixed_request().serialize();
  im.plan = fixed_plan().serialize();
  mpi::Runtime rt(small_machine(), 1);
  const ncio::Dataset ds = make_ds(rt.fs());
  im.header.resize(header_bytes(ds));
  rt.fs().store(ds.file()).read(0, im.header);
  rt.run([&](mpi::Comm& c) {
    // A checkpoint parked mid-step, so every optional field is present.
    core::IterativeComputer it(c, ds, solo_io(ds));
    core::CcOutput out;
    it.step(0, out);
    it.step_prefix(1, 3, out);
    im.checkpoint = it.checkpoint().bytes;
    const core::ObjectIO io = solo_io(ds);
    core::RunOptions ropt;
    ropt.end_iter = 3;
    ropt.mid = &im.mid;
    core::collective_compute_with_plan(c, ds, io, make_plan(io, ds, c), out,
                                       ropt);
  });
  return im;
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------- harness

using Bytes = std::vector<std::byte>;

/// A count, length or int-typed word of an image: `width` bytes at `at`.
struct Word {
  std::size_t at;
  std::size_t width;
};

std::uint64_t word_at(std::span<const std::byte> img, std::size_t at,
                      std::size_t width = 8) {
  std::uint64_t v = 0;
  std::memcpy(&v, img.data() + at, width);
  return v;
}

void set_word(Bytes& img, Word w, std::uint64_t v) {
  std::memcpy(img.data() + w.at, &v, w.width);
}

struct Mutant {
  std::string what;
  Bytes bytes;
};

/// Every truncation of `image`, one seeded flip of each byte plus
/// kRandomFlips more at seeded positions, and every edge value in each of
/// `words`.
std::vector<Mutant> mutants(const Bytes& image, const std::vector<Word>& words,
                            std::uint64_t seed) {
  constexpr int kRandomFlips = 256;
  std::vector<Mutant> out;
  for (std::size_t n = 0; n < image.size(); ++n) {
    out.push_back({"cut to " + std::to_string(n),
                   Bytes(image.begin(), image.begin() +
                                            static_cast<std::ptrdiff_t>(n))});
  }
  Prng rng(seed);
  auto flip = [&](std::size_t at) {
    Mutant m{"flip byte " + std::to_string(at), image};
    m.bytes[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
    out.push_back(std::move(m));
  };
  for (std::size_t at = 0; at < image.size(); ++at) flip(at);
  for (int i = 0; i < kRandomFlips; ++i) flip(rng.next_below(image.size()));
  for (const Word w : words) {
    for (const std::uint64_t v :
         {0ull, 1ull << 31, (1ull << 32) + 1, 1ull << 63, ~0ull}) {
      Mutant m{"word at " + std::to_string(w.at) + " = " + std::to_string(v),
               image};
      set_word(m.bytes, w, v);
      out.push_back(std::move(m));
    }
  }
  return out;
}

/// Decodes one image and returns its re-encoding.
using Decoder = std::function<Bytes(std::span<const std::byte>)>;

/// Runs `decode` over every mutant of `image`. A decode must re-encode to
/// the mutant (with `prefix`, to its first bytes: a dataset header is
/// followed by padding that is not part of it) or throw
/// fault::Error{data_corrupt} from one of `layers`.
void fuzz(const Bytes& image, const std::vector<Word>& words,
          std::initializer_list<fault::Layer> layers, const Decoder& decode,
          bool prefix = false) {
  ASSERT_EQ(decode(image), image) << "the valid image must round-trip";
  int decoded = 0;
  int rejected = 0;
  for (const Mutant& m : mutants(image, words, 0x5eed)) {
    try {
      const Bytes again = decode(m.bytes);
      const bool same =
          prefix ? again.size() <= m.bytes.size() &&
                       std::equal(again.begin(), again.end(), m.bytes.begin())
                 : again == m.bytes;
      EXPECT_TRUE(same) << m.what << ": decoded but re-encodes differently";
      ++decoded;
    } catch (const fault::Error& e) {
      EXPECT_EQ(e.kind(), fault::Kind::data_corrupt) << m.what << ": "
                                                     << e.what();
      EXPECT_NE(std::find(layers.begin(), layers.end(), e.layer()),
                layers.end())
          << m.what << ": " << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << m.what << ": escaped as " << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(decoded, 0);
}

/// The fault::Error `f` throws; any other outcome fails the test.
std::optional<fault::Error> error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const fault::Error& e) {
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped as " << e.what();
    return std::nullopt;
  }
  ADD_FAILURE() << "decoded";
  return std::nullopt;
}

void expect_corrupt(fault::Layer layer, const std::function<void()>& f,
                    const std::string& what) {
  SCOPED_TRACE(what);
  const auto e = error_of(f);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind(), fault::Kind::data_corrupt) << e->what();
  EXPECT_EQ(e->layer(), layer) << e->what();
}

// ------------------------------------------- word maps of the valid images

void request_words(std::span<const std::byte> img, std::size_t base,
                   std::vector<Word>& out) {
  const std::uint64_t n = word_at(img, base);
  out.push_back({base, 8});
  for (std::uint64_t i = 0; i < n; ++i) out.push_back({base + 16 + 16 * i, 8});
}

void plan_words(std::span<const std::byte> img, std::size_t base,
                std::vector<Word>& out) {
  const std::uint64_t naggs = word_at(img, base + 32);
  out.push_back({base + 16, 8});  // n_iters
  out.push_back({base + 32, 8});
  for (std::uint64_t i = 0; i < naggs; ++i) out.push_back({base + 40 + 8 * i, 8});
  std::size_t pos = base + 40 + 24 * naggs;
  for (int list = 0; list < 2; ++list) {
    const std::uint64_t nreqs = word_at(img, pos);
    out.push_back({pos, 8});
    pos += 8;
    for (std::uint64_t i = 0; i < nreqs; ++i) {
      out.push_back({pos, 8});
      request_words(img, pos + 8, out);
      pos += 8 + word_at(img, pos);
    }
  }
}

void mid_words(std::span<const std::byte> img, std::size_t base,
               std::vector<Word>& out) {
  const std::uint64_t nper = word_at(img, base + 16);
  out.push_back({base, 8});
  out.push_back({base + 16, 8});
  for (std::uint64_t i = 0; i < nper; ++i) {
    out.push_back({base + 24 + 24 * i, 8});  // flag
    out.push_back({base + 40 + 24 * i, 8});  // elements
  }
}

std::vector<Word> checkpoint_words(std::span<const std::byte> img) {
  std::vector<Word> out{{0, 8}, {16, 8}, {32, 8}};
  plan_words(img, 40, out);
  const std::size_t p = 40 + word_at(img, 32);
  out.insert(out.end(), {{p, 8}, {p + 16, 8}, {p + 24, 8}});
  mid_words(img, p + 32, out);
  return out;
}

std::vector<Word> header_words(std::span<const std::byte> img) {
  std::vector<Word> out{{8, 4}};
  std::size_t pos = 12;
  for (std::uint64_t v = 0; v < word_at(img, 8, 4); ++v) {
    out.push_back({pos, 4});
    pos += 4 + word_at(img, pos, 4);
    out.insert(out.end(), {{pos, 1}, {pos + 1, 4}});
    pos += 5 + 8 * word_at(img, pos + 1, 4) + 8;
  }
  return out;
}

/// The header layout, re-encoded from a parsed dataset.
Bytes encode_header(const ncio::Dataset& ds) {
  Bytes out;
  fault::WireWriter w(out);
  w.put(std::uint32_t{0x4e434f4cu}).put(std::uint32_t{1});
  w.put(static_cast<std::uint32_t>(ds.var_count()));
  for (int i = 0; i < ds.var_count(); ++i) {
    const ncio::VarInfo& v = ds.info(ncio::VarId{i});
    w.put(static_cast<std::uint32_t>(v.name.size()))
        .bytes(std::as_bytes(std::span(v.name)))
        .put(static_cast<std::uint8_t>(v.prim))
        .put(static_cast<std::uint32_t>(v.dims.size()));
    for (const std::uint64_t d : v.dims) w.put(d);
    w.put(v.file_offset);
  }
  return out;
}

/// Opens `image` as a dataset file of its own.
ncio::Dataset open_image(pfs::Pfs& fs, std::span<const std::byte> image) {
  static int files = 0;
  auto store = std::make_unique<pfs::MemStore>(image.size());
  store->write(0, image);
  const std::string name = "header" + std::to_string(files++);
  fs.create(name, std::move(store));
  return ncio::Dataset::open(fs, name);
}

/// Restores an IterativeComputer from `image`.
std::function<void()> restore_fn(mpi::Comm& c, const ncio::Dataset& ds,
                                 Bytes image) {
  return [&c, &ds, image] {
    core::IterativeComputer it(c, ds, solo_io(ds),
                               core::IterativeComputer::Checkpoint{image});
  };
}

// ------------------------------------------------------------------ tests

TEST(Wire, EncodersAreByteIdenticalToTheirPinnedLayouts) {
  const Images im = fixed_images();
  const std::pair<const Bytes*, std::uint64_t> pinned[] = {
      {&im.request, 0x2ca13fde3c080c94ull},
      {&im.plan, 0xbf934f70645a47e1ull},
      {&im.header, 0xfd639b517787ede5ull},
      {&im.checkpoint, 0xb5cba8c1b03539d4ull},
      {&im.mid, 0xf58db8be481ae388ull},
  };
  const std::size_t sizes[] = {56, 232, 90, 232, 48};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pinned[i].first->size(), sizes[i]) << "image " << i;
    EXPECT_EQ(fnv1a(*pinned[i].first), pinned[i].second) << "image " << i;
  }
  EXPECT_EQ(im.mid.size(), core::mid_state_max_bytes(1));
}

TEST(Wire, RequestMutantsDecodeExactlyOrAreDataCorrupt) {
  const Bytes image = fixed_request().serialize();
  std::vector<Word> words;
  request_words(image, 0, words);
  fuzz(image, words, {fault::Layer::romio}, [](std::span<const std::byte> b) {
    return romio::FlatRequest::deserialize(b).serialize();
  });
}

TEST(Wire, PlanMutantsDecodeExactlyOrAreDataCorrupt) {
  const Bytes image = fixed_plan().serialize();
  std::vector<Word> words;
  plan_words(image, 0, words);
  fuzz(image, words, {fault::Layer::romio}, [](std::span<const std::byte> b) {
    return romio::TwoPhasePlan::deserialize(b).serialize();
  });
}

TEST(Wire, HeaderMutantsOpenExactlyOrAreDataCorrupt) {
  const Bytes image = fixed_images().header;
  mpi::Runtime rt(small_machine(), 1);
  fuzz(
      image, header_words(image), {fault::Layer::ncio},
      [&](std::span<const std::byte> b) {
        return encode_header(open_image(rt.fs(), b));
      },
      /*prefix=*/true);
}

TEST(Wire, MidStateMutantsResumeExactlyOrAreDataCorrupt) {
  const Bytes image = fixed_images().mid;
  std::vector<Word> words;
  mid_words(image, 0, words);
  mpi::Runtime rt(small_machine(), 1);
  const ncio::Dataset ds = make_ds(rt.fs());
  rt.run([&](mpi::Comm& c) {
    const core::ObjectIO io = solo_io(ds);
    const romio::TwoPhasePlan plan = make_plan(io, ds, c);
    // An empty window resumed at iteration 3: the run decodes the mid and
    // parks it again untouched — decode then re-encode.
    fuzz(image, words, {fault::Layer::core}, [&](std::span<const std::byte> b) {
      Bytes mid(b.begin(), b.end());
      core::RunOptions ropt;
      ropt.begin_iter = 3;
      ropt.end_iter = 3;
      ropt.mid = &mid;
      core::CcOutput out;
      core::collective_compute_with_plan(c, ds, io, plan, out, ropt);
      return mid;
    });
  });
}

TEST(Wire, CheckpointMutantsRestoreExactlyOrAreDataCorrupt) {
  const Bytes image = fixed_images().checkpoint;
  mpi::Runtime rt(small_machine(), 1);
  const ncio::Dataset ds = make_ds(rt.fs());
  rt.run([&](mpi::Comm& c) {
    // The embedded plan is romio's image and fails as romio's.
    fuzz(image, checkpoint_words(image),
         {fault::Layer::core, fault::Layer::romio},
         [&](std::span<const std::byte> b) {
           core::IterativeComputer it(
               c, ds, solo_io(ds),
               core::IterativeComputer::Checkpoint{Bytes(b.begin(), b.end())});
           return it.checkpoint().bytes;
         });
  });
}

TEST(Wire, KnownMalformedImagesAreDataCorrupt) {
  auto words = [](std::initializer_list<std::uint64_t> ws) {
    Bytes out;
    fault::WireWriter w(out);
    for (const std::uint64_t v : ws) w.put(v);
    return out;
  };
  auto request = [](const Bytes& b) {
    return [b] { romio::FlatRequest::deserialize(b); };
  };
  expect_corrupt(fault::Layer::romio, request(words({2, 100, 4, 16, 8})),
                 "unsorted extents");
  expect_corrupt(fault::Layer::romio, request(words({1, 16, 0})),
                 "zero-length extent");
  expect_corrupt(fault::Layer::romio, request(words({1, ~0ull - 3, 8})),
                 "extent past 2^64");

  const Bytes plan = fixed_plan().serialize();
  auto plan_with = [&](std::size_t at, std::uint64_t v) {
    Bytes b = plan;
    set_word(b, {at, 8}, v);
    return [b] { romio::TwoPhasePlan::deserialize(b); };
  };
  expect_corrupt(fault::Layer::romio, plan_with(16, (1ull << 32) + 1),
                 "n_iters 2^32+1");
  expect_corrupt(fault::Layer::romio, plan_with(40, 1ull << 31),
                 "aggregator rank 2^31");
  expect_corrupt(fault::Layer::romio, plan_with(72, 0),
                 "file domain ends before it begins");

  mpi::Runtime rt(small_machine(), 1);
  Bytes header = fixed_images().header;
  header[12 + 4 + 1] = std::byte{200};  // first variable "v": prim byte
  expect_corrupt(fault::Layer::ncio, [&] { open_image(rt.fs(), header); },
                 "prim byte 200");
  Bytes huge;
  fault::WireWriter(huge)
      .put(std::uint32_t{0x4e434f4cu})
      .put(std::uint32_t{1})
      .put(std::uint32_t{1} << 20);
  expect_corrupt(fault::Layer::ncio, [&] { open_image(rt.fs(), huge); },
                 "2^20 variables in a 12-byte header");
  expect_corrupt(fault::Layer::ncio,
                 [&] { open_image(rt.fs(), Bytes(4096)); }, "zeroed header");

  const ncio::Dataset ds = make_ds(rt.fs());
  rt.run([&](mpi::Comm& c) {
    expect_corrupt(fault::Layer::core,
                   restore_fn(c, ds, Bytes(8)), "8-byte checkpoint payload");
  });
}

TEST(Wire, CheckpointWithWrappingLengthsIsDataCorrupt) {
  // The plan and mid lengths of a checkpoint set to 2^64-8: the end of
  // either field wraps back inside the image.
  const Bytes ck = fixed_images().checkpoint;
  const std::size_t plan_len_at = 32;
  const std::size_t mid_len_at = 40 + word_at(ck, plan_len_at) + 24;
  mpi::Runtime rt(small_machine(), 1);
  const ncio::Dataset ds = make_ds(rt.fs());
  rt.run([&](mpi::Comm& c) {
    for (const std::size_t at : {plan_len_at, mid_len_at}) {
      Bytes b = ck;
      set_word(b, {at, 8}, ~0ull - 7);
      expect_corrupt(fault::Layer::core, restore_fn(c, ds, b),
                     "wrapping length at " + std::to_string(at));
    }
  });
}

TEST(Wire, CheckpointSlotWithWrappingLengthIsNoGeneration) {
  // A slot whose length word is 2^64-16: off + 8 + len + trailer wraps to
  // 16 and used to pass the bound, then size a 2^64-byte payload.
  mpi::Runtime rt(small_machine(), 1);
  auto store = std::make_unique<pfs::MemStore>(4096);
  Bytes head;
  fault::WireWriter(head).put(~0ull - 15);
  store->write(0, head);
  const pfs::FileId file = rt.fs().create("slot", std::move(store));
  std::optional<fault::Error> err;
  rt.run([&](mpi::Comm& c) {
    err = error_of([&] {
      (void)core::IterativeComputer::load_checkpoint(c, file, 0);
    });
  });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind(), fault::Kind::data_corrupt);
  EXPECT_EQ(err->layer(), fault::Layer::core);
  EXPECT_NE(std::string(err->what()).find("no intact generation"),
            std::string::npos)
      << err->what();
}

}  // namespace
}  // namespace colcom
