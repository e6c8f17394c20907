// micro_transport — wire-speed report for the transport stack.
//
// Two questions, answered with numbers and hard gates:
//
//   1. Codec: what does the binary wire codec cost? Measured as Get bytes/s
//      and small-RPC round trips/s through a RemoteStorageEngine over
//      LoopbackTransport, so only serialization and dispatch are timed.
//      GATE (exact): the response bytes of one 8 MiB Get, read from the
//      loopback's TransportStats, are at most the value size + 256 — the
//      payload travels verbatim, never hex-doubled or re-encoded.
//
//   2. Streaming: does chunked transfer bound the receiver's memory and
//      dedupe repeated content? Measured over real unix sockets against
//      two epoll servers — one with chunking disabled (monolithic frames),
//      one with the default 256 KiB threshold. GATEs: the streamed
//      client's peak decoder buffer stays under a quarter of the value
//      size, and re-sending the same value scores chunk-cache dedup hits
//      on the server. Also reports the SHA-256 throughput of the block
//      function this CPU dispatched to (sha-ni or scalar), since both ends
//      rehash every streamed chunk.
//
// Flags: --short (CI-sized iteration counts), --json <path> (write
// BENCH_micro_transport.json for tools/bench_compare.py; the history-gated
// metrics are `real_get_goodput_8m` and `small_rpc_rps`).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/sha256.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/socket_transport.h"
#include "storage/transport.h"
#include "storage/wire_codec.h"

namespace {

using namespace mlcask;
using namespace mlcask::storage;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic byte soup: varied enough that the content-defined chunker
/// produces realistic cuts, cheap enough to generate at any size.
std::string PatternedValue(size_t size) {
  std::string value(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    value[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  return value;
}

/// Times `iters` Gets of `key` (whose value is `size` bytes) and returns
/// payload bytes per second. Exits via CheckOk on any failed Get.
double TimeGets(StorageEngine* engine, const std::string& key, size_t size,
                long iters) {
  const double start = NowSeconds();
  for (long i = 0; i < iters; ++i) {
    auto value = engine->Get(key);
    bench::CheckOk(value.status(), ("Get(" + key + ")").c_str());
    if (value->size() != size) {
      std::fprintf(stderr, "FAIL: Get(%s) returned %zu bytes, want %zu\n",
                   key.c_str(), value->size(), size);
      std::exit(1);
    }
  }
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(size) * static_cast<double>(iters) /
         (elapsed > 0 ? elapsed : 1e-9);
}

std::string HumanSize(size_t bytes) {
  if (bytes >= (1u << 20)) return std::to_string(bytes >> 20) + "m";
  if (bytes >= (1u << 10)) return std::to_string(bytes >> 10) + "k";
  return std::to_string(bytes);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("micro_transport",
                "wire codec + chunk streaming throughput");
  bench::JsonReporter reporter("micro_transport");

  const struct {
    size_t size;
    long iters;
    long iters_short;
  } kPayloads[] = {
      {4u << 10, 2000, 400},
      {256u << 10, 96, 24},
      {8u << 20, 8, 3},
  };
  const size_t kLargeSize = 8u << 20;

  // ---- 1. codec throughput over loopback -------------------------------
  bench::Section("codec: binary over loopback");
  StorageEngineService service(std::make_unique<ForkBaseEngine>());
  RemoteStorageEngine remote(std::make_unique<LoopbackTransport>(
      [&service](std::string_view request) { return service.Handle(request); }));

  double goodput_8m = 0;
  for (const auto& p : kPayloads) {
    const long iters = args.short_mode ? p.iters_short : p.iters;
    const std::string key = "payload-" + HumanSize(p.size);
    const std::string value = PatternedValue(p.size);
    bench::CheckOk(remote.Put(key, value).status(), "Put");

    const double bps = TimeGets(&remote, key, p.size, iters);
    std::printf("  %6s x%-5ld  %8.1f MB/s\n", HumanSize(p.size).c_str(), iters,
                bps / 1e6);
    reporter.Metric("codec", "binary_bytes_per_s_" + HumanSize(p.size), bps);
    if (p.size == kLargeSize) goodput_8m = bps;
  }
  reporter.Metric("codec", "real_get_goodput_8m", goodput_8m);

  // Wire overhead of one large Get, counted exactly by the loopback.
  const TransportStats before = remote.transport()->stats();
  (void)TimeGets(&remote, "payload-" + HumanSize(kLargeSize), kLargeSize, 1);
  const TransportStats after = remote.transport()->stats();
  const uint64_t response_bytes = after.response_bytes - before.response_bytes;
  const uint64_t overhead_bytes =
      response_bytes > kLargeSize ? response_bytes - kLargeSize : 0;
  reporter.Metric("codec", "get_8m_response_overhead_bytes",
                  static_cast<double>(overhead_bytes));

  // Small-RPC rate: HasVersion round trips carry ~40 bytes each way, so
  // this measures per-call codec+dispatch overhead rather than bandwidth.
  {
    const long iters = args.short_mode ? 5000 : 50000;
    auto id = remote.Put("rpc-probe", "x");
    bench::CheckOk(id.status(), "Put rpc-probe");
    const double start = NowSeconds();
    for (long i = 0; i < iters; ++i) (void)remote.HasVersion(id->id);
    const double rps = iters / (NowSeconds() - start);
    std::printf("  small RPC      %8.0f rpc/s\n", rps);
    reporter.Metric("codec", "small_rpc_rps", rps);
  }

  // ---- 2. monolithic vs chunk-streamed over unix sockets ---------------
  bench::Section("streaming: monolithic vs chunked over unix sockets");
  char dir_template[] = "/tmp/mlcask-bench-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp: cannot create socket dir\n");
    return 1;
  }
  const std::string dir = dir_template;

  const std::string large = PatternedValue(kLargeSize);
  const long stream_iters = args.short_mode ? 3 : 8;

  // Both ends rehash every streamed chunk, so SHA-256 speed bounds the
  // streamed lane; report which block function this CPU dispatched to.
  {
    const Hash256 expected = Sha256::Digest(large);  // also warms up
    const double start = NowSeconds();
    for (long i = 0; i < stream_iters; ++i) {
      if (Sha256::Digest(large) != expected) {
        std::fprintf(stderr, "FAIL: SHA-256 of one value changed\n");
        return 1;
      }
    }
    const double elapsed = NowSeconds() - start;
    const double sha_bps = static_cast<double>(kLargeSize) *
                           static_cast<double>(stream_iters) /
                           (elapsed > 0 ? elapsed : 1e-9);
    std::printf("  %-10s  %8.1f MB/s   (%s)\n", "sha-256", sha_bps / 1e6,
                Sha256::Implementation());
    reporter.Metric("streaming", "sha256_bytes_per_s", sha_bps);
    reporter.Metric("streaming", "sha256_path", Sha256::Implementation());
  }

  struct Lane {
    const char* name;
    size_t threshold;  // SIZE_MAX disables chunking entirely
  } lanes[] = {
      {"monolithic", static_cast<size_t>(-1)},
      {"streamed", wire::kDefaultChunkThreshold},
  };
  for (const Lane& lane : lanes) {
    StorageEngineService service(std::make_unique<ForkBaseEngine>());
    SocketTransportServer::Options server_options;
    server_options.chunk_threshold = lane.threshold;
    const std::string spec = "unix:" + dir + "/" + lane.name + ".sock";
    auto server = SocketTransportServer::Bind(spec, server_options);
    bench::CheckOk(server.status(), ("Bind " + spec).c_str());
    bench::CheckOk((*server)->Serve([&service](std::string_view request) {
      return service.Handle(request);
    }),
                   ("Serve " + spec).c_str());

    SocketTransport::Options client_options;
    client_options.chunk_threshold = lane.threshold;
    auto transport = SocketTransport::Connect(spec, client_options);
    bench::CheckOk(transport.status(), ("Connect " + spec).c_str());
    SocketTransport* raw_transport = transport->get();
    RemoteStorageEngine remote(std::move(*transport));

    bench::CheckOk(remote.Put("large", large).status(), "Put large");
    const double bps = TimeGets(&remote, "large", kLargeSize, stream_iters);
    const TransportStats stats = raw_transport->stats();
    std::printf("  %-10s  %8.1f MB/s   chunk frames rx %llu   peak decoder "
                "buffer %llu bytes\n",
                lane.name, bps / 1e6,
                static_cast<unsigned long long>(stats.chunk_frames_received),
                static_cast<unsigned long long>(
                    stats.peak_decoder_buffer_bytes));
    reporter.Metric("streaming", std::string(lane.name) + "_bytes_per_s", bps);
    reporter.Metric("streaming",
                    std::string(lane.name) + "_peak_decoder_buffer_bytes",
                    static_cast<double>(stats.peak_decoder_buffer_bytes));

    if (lane.threshold != static_cast<size_t>(-1)) {
      // GATE: streamed receive memory is O(chunk), not O(value).
      if (stats.peak_decoder_buffer_bytes * 4 >= kLargeSize) {
        std::fprintf(stderr,
                     "FAIL: streamed peak decoder buffer %llu bytes is not "
                     "under a quarter of the %zu-byte value\n",
                     static_cast<unsigned long long>(
                         stats.peak_decoder_buffer_bytes),
                     kLargeSize);
        return 1;
      }
      if (stats.chunk_frames_received == 0) {
        std::fprintf(stderr, "FAIL: streamed lane never saw a chunk frame\n");
        return 1;
      }
      // GATE: re-sending the same bytes dedupes on the receiving shard.
      bench::CheckOk(remote.Put("large-again", large).status(),
                     "Put large-again");
      const ChunkStoreStats chunk_stats = (*server)->wire_chunk_stats();
      std::printf("  %-10s  server chunk cache: %llu dedup hits, %llu -> "
                  "%llu bytes\n",
                  "", static_cast<unsigned long long>(chunk_stats.dedup_hits),
                  static_cast<unsigned long long>(chunk_stats.logical_bytes),
                  static_cast<unsigned long long>(chunk_stats.physical_bytes));
      reporter.Metric("streaming", "server_dedup_hits",
                      static_cast<double>(chunk_stats.dedup_hits));
      if (chunk_stats.dedup_hits == 0) {
        std::fprintf(stderr,
                     "FAIL: repeated transfer produced no chunk dedup hits\n");
        return 1;
      }
    }

    (*server)->Shutdown();
    ::unlink((dir + "/" + lane.name + ".sock").c_str());
  }
  ::rmdir(dir.c_str());

  // ---- verdict ---------------------------------------------------------
  bench::Section("verdict");
  std::printf("  8 MiB Get response: %llu bytes, %llu over the value "
              "(gate: <= 256)\n",
              static_cast<unsigned long long>(response_bytes),
              static_cast<unsigned long long>(overhead_bytes));
  const bool ok = response_bytes <= kLargeSize + 256;
  reporter.Metric("summary", "pass", ok);
  reporter.Write(args.json_path);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: one 8 MiB Get carried %llu response bytes (need <= "
                 "value size + 256)\n",
                 static_cast<unsigned long long>(response_bytes));
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
