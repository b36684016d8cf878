// Micro-benchmarks for the value-log codec: encode, the owning full decode
// (the view decode materialized), the zero-copy view decode the replay hot
// path uses, and the metadata-only decode that the AETS/ATR dispatchers use.
// The full-vs-metadata decode gap is the root of C5's dispatcher penalty;
// the full-vs-view gap is what the zero-copy refactor buys. Reports
// allocs/op via the global new counter.

#include "alloc_counter.h"  // must precede everything: replaces operator new

#include <benchmark/benchmark.h>

#include "aets/common/rng.h"
#include "aets/log/codec.h"

namespace aets {
namespace {

LogRecord SampleRecord(int num_values) {
  Rng rng(7);
  std::vector<ColumnValue> values;
  for (int i = 0; i < num_values; ++i) {
    switch (i % 3) {
      case 0:
        values.push_back({static_cast<ColumnId>(i), Value(rng.UniformInt(0, 1 << 30))});
        break;
      case 1:
        values.push_back({static_cast<ColumnId>(i), Value(rng.UniformDouble())});
        break;
      default:
        values.push_back({static_cast<ColumnId>(i), Value(rng.AlphaString(16, 32))});
    }
  }
  return LogRecord::Dml(LogRecordType::kUpdate, 1, 2, 3, 4, 5,
                        std::move(values), 1, 0);
}

void BM_Encode(benchmark::State& state) {
  LogRecord rec = SampleRecord(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string buf;
    LogCodec::Encode(rec, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Encode)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodeFull(benchmark::State& state) {
  std::string buf;
  LogCodec::Encode(SampleRecord(static_cast<int>(state.range(0))), &buf);
  size_t allocs_before = aets_bench::AllocCount();
  for (auto _ : state) {
    size_t offset = 0;
    auto view = LogCodec::DecodeView(buf, &offset);
    LogRecord rec = view->Materialize();
    benchmark::DoNotOptimize(rec);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(aets_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeFull)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodeView(benchmark::State& state) {
  // The replay hot path: one validation walk, string_view slices, no
  // per-value allocations.
  std::string buf;
  LogCodec::Encode(SampleRecord(static_cast<int>(state.range(0))), &buf);
  size_t allocs_before = aets_bench::AllocCount();
  for (auto _ : state) {
    size_t offset = 0;
    auto rec = LogCodec::DecodeView(buf, &offset);
    benchmark::DoNotOptimize(rec);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(aets_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeView)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodeMetadataOnly(benchmark::State& state) {
  std::string buf;
  LogCodec::Encode(SampleRecord(static_cast<int>(state.range(0))), &buf);
  for (auto _ : state) {
    size_t offset = 0;
    auto rec = LogCodec::DecodeMetadata(buf, &offset);
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeMetadataOnly)->Arg(2)->Arg(8)->Arg(32);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

}  // namespace
}  // namespace aets
