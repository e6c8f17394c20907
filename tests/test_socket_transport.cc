// The socket transport stack: endpoint grammar, frame-codec robustness
// (truncated / oversized / corrupt / version-skewed frames surface error
// statuses — never a hang, crash, or torn TransportStats), and the
// SocketTransport/SocketTransportServer pair end to end over Unix-domain
// and TCP sockets, including multiplexed async overlap, deadline, peer-gone
// and connect-refused statuses.

#include "storage/socket_transport.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/endpoint.h"
#include "storage/forkbase_engine.h"
#include "storage/frame.h"
#include "storage/remote_engine.h"
#include "storage/wire_codec.h"

namespace mlcask::storage {
namespace {

std::string TempSocketPath(const char* tag) {
  return "/tmp/mlcask-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

// ------------------------------------------------------------- endpoint ---

TEST(EndpointTest, ParsesTheThreeSchemes) {
  auto loop = Endpoint::Parse("loopback:");
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->kind, Endpoint::Kind::kLoopback);

  auto unix_ep = Endpoint::Parse("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep->path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep->ToString(), "unix:/tmp/x.sock");

  auto tcp = Endpoint::Parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7070);
  EXPECT_EQ(tcp->ToString(), "tcp:127.0.0.1:7070");

  auto anyport = Endpoint::Parse("tcp::0");
  ASSERT_TRUE(anyport.ok());
  EXPECT_TRUE(anyport->host.empty());
  EXPECT_EQ(anyport->port, 0);
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  EXPECT_TRUE(Endpoint::Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("/bare/path").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("host:1234").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("unix:").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("tcp:hostonly").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("tcp:h:99999").status().IsInvalidArgument());
  EXPECT_TRUE(Endpoint::Parse("tcp:h:12x").status().IsInvalidArgument());
  EXPECT_TRUE(
      Endpoint::Parse("unix:" + std::string(200, 'p')).status()
          .IsInvalidArgument());
}

// ----------------------------------------------------------- frame codec ---

TEST(FrameCodecTest, RoundTripsFramesIncrementally) {
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 42, "hello");
  AppendFrame(&wire, FrameType::kData, 43, std::string("\x00\xff bin", 6));
  AppendFrame(&wire, FrameType::kError, 44,
              EncodeErrorPayload(Status::Unavailable("gone")));

  FrameDecoder decoder;
  // Feed byte by byte: a frame only surfaces once complete, and partial
  // prefixes are "need more", never an error.
  std::vector<Frame> frames;
  for (char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    Frame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (*next) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].id, 42u);
  EXPECT_EQ(frames[0].payload, "hello");
  EXPECT_EQ(frames[1].payload, std::string("\x00\xff bin", 6));
  EXPECT_EQ(frames[2].type, FrameType::kError);
  Status decoded = DecodeErrorPayload(frames[2].payload);
  EXPECT_TRUE(decoded.IsUnavailable());
  EXPECT_EQ(decoded.message(), "gone");
  EXPECT_TRUE(decoder.Finish().ok());
}

TEST(FrameCodecTest, TruncatedStreamIsAnErrorAtEofNotAHang) {
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 7, "full payload");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(wire).substr(0, wire.size() - 3));
  Frame frame;
  auto next = decoder.Next(&frame);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);  // incomplete: need more, no frame invented
  Status eof = decoder.Finish();
  EXPECT_EQ(eof.code(), StatusCode::kCorruption);
}

TEST(FrameCodecTest, OversizedFrameIsCorruptionBeforeAllocation) {
  FrameDecoder decoder(/*max_payload=*/1024);
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 1, std::string(2048, 'x'));
  decoder.Feed(wire);
  Frame frame;
  auto next = decoder.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
  // Sticky: the stream stays dead.
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

TEST(FrameCodecTest, CorruptTypeByteIsCorruption) {
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 9, "x");
  wire[1] = 0x7f;  // unknown frame type
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  auto next = decoder.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
}

TEST(FrameCodecTest, VersionMismatchIsUnimplementedWithRecoverableId) {
  // A future version and the retired JSON-era version 1 are the same case.
  for (uint8_t version : {uint8_t{9}, uint8_t{1}}) {
    std::string wire;
    AppendFrame(&wire, FrameType::kData, 77, "foreign-format", version);
    AppendFrame(&wire, FrameType::kData, 78, "ok");
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame frame;
    auto next = decoder.Next(&frame);
    ASSERT_FALSE(next.ok()) << "version " << int{version};
    EXPECT_EQ(next.status().code(), StatusCode::kUnimplemented);
    // The frozen header layout keeps the correlation id readable, so a
    // server can answer exactly the mismatched request...
    EXPECT_EQ(frame.id, 77u);
    // ...and the stream survives: the NEXT (current-version) frame decodes.
    auto after = decoder.Next(&frame);
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(*after);
    EXPECT_EQ(frame.id, 78u);
    EXPECT_EQ(frame.payload, "ok");
  }
}

TEST(FrameCodecTest, ErrorPayloadRejectsGarbage) {
  EXPECT_EQ(DecodeErrorPayload("no-colon").code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeErrorPayload("12a:msg").code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeErrorPayload("0:ok?").code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeErrorPayload("9999:big").code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------ end to end ---

class SocketRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SocketRoundTripTest, CallAndAsyncCallRoundTrip) {
  const std::string scheme = GetParam();
  const std::string path = TempSocketPath("rt");
  const std::string spec =
      scheme == "unix" ? "unix:" + path : std::string("tcp:127.0.0.1:0");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)
                  ->Serve([](std::string_view request) {
                    return "echo:" + std::string(request);
                  })
                  .ok());

  auto transport = SocketTransport::Connect((*server)->endpoint());
  ASSERT_TRUE(transport.ok()) << transport.status();

  auto response = (*transport)->Call("ping");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(*response, "echo:ping");

  // Multiplexed: many calls in flight on ONE connection, answered by id.
  std::vector<TransportFuture> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back((*transport)->AsyncCall("m" + std::to_string(i)));
  }
  for (int i = 0; i < 16; ++i) {
    auto got = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "echo:m" + std::to_string(i));
  }

  // CallMany issues all before collecting any; order is preserved.
  auto batch = (*transport)->CallMany({"a", "b", "c"});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(*batch[0], "echo:a");
  EXPECT_EQ(*batch[1], "echo:b");
  EXPECT_EQ(*batch[2], "echo:c");

  TransportStats stats = (*transport)->stats();
  EXPECT_EQ(stats.calls, 20u);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_GT(stats.request_bytes, 0u);
  EXPECT_GT(stats.response_bytes, 0u);
  EXPECT_EQ((*server)->connections_accepted(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SocketRoundTripTest,
                         ::testing::Values("unix", "tcp"));

TEST(SocketTransportTest, AsyncCallsOverlapOnTheWire) {
  // The server blocks the FIRST request until the SECOND arrives. A
  // transport that serialized round trips would deadlock here; the
  // multiplexed one finishes both. (Two connections would also pass, but
  // the transport holds exactly one — connections_accepted proves it.)
  const std::string spec = "unix:" + TempSocketPath("overlap");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  ASSERT_TRUE((*server)
                  ->Serve([&](std::string_view request) {
                    std::unique_lock<std::mutex> lock(mu);
                    arrived += 1;
                    cv.notify_all();
                    if (request == "first") {
                      cv.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return arrived >= 2; });
                    }
                    return std::string(request);
                  })
                  .ok());
  // Two sessions: requests on one connection are handled in arrival order,
  // so the unblocking "second" request must travel on its own connection —
  // what matters here is that the CLIENT API never blocks on issue.
  auto t1 = SocketTransport::Connect(spec);
  auto t2 = SocketTransport::Connect(spec);
  ASSERT_TRUE(t1.ok() && t2.ok());
  TransportFuture first = (*t1)->AsyncCall("first");
  // Issue returned while "first" is still parked in the handler: the async
  // call did not serialize issue-to-response.
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return arrived >= 1; }));
  }
  TransportFuture second = (*t2)->AsyncCall("second");
  auto second_result = second.get();
  ASSERT_TRUE(second_result.ok());
  auto first_result = first.get();
  ASSERT_TRUE(first_result.ok());
  EXPECT_EQ(*first_result, "first");
  EXPECT_EQ(*second_result, "second");
}

TEST(SocketTransportTest, OversizedRequestFailsLocallyAndSessionSurvives) {
  // With chunking disabled the whole request must fit one frame. A request
  // above max_frame_payload has to be refused at the CLIENT with a typed
  // status — framed and sent, the peer's decoder would see corruption and
  // the whole multiplexed session (every other in-flight call) would die.
  const std::string spec = "unix:" + TempSocketPath("oversize");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)
                  ->Serve([](std::string_view request) {
                    return "echo:" + std::string(request);
                  })
                  .ok());

  SocketTransport::Options options;
  options.max_frame_payload = 64 * 1024;
  options.chunk_threshold = 0;  // monolithic frames only
  auto transport = SocketTransport::Connect((*server)->endpoint(), options);
  ASSERT_TRUE(transport.ok()) << transport.status();

  auto too_big = (*transport)->Call(std::string(128 * 1024, 'x'));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);

  // Only the offending call failed: the session still answers.
  auto after = (*transport)->Call("still-alive");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, "echo:still-alive");
  EXPECT_EQ((*transport)->stats().transport_errors, 1u);
}

TEST(SocketTransportTest, ConnectRefusedIsUnavailable) {
  auto missing = SocketTransport::Connect(
      "unix:/tmp/mlcask-definitely-not-bound.sock");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsUnavailable());
}

TEST(SocketTransportTest, LoopbackSpecHasNoWire) {
  auto refused = SocketTransport::Connect("loopback:");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument());
}

TEST(SocketTransportTest, PeerGoneFailsEveryPendingCallInsteadOfHanging) {
  const std::string spec = "unix:" + TempSocketPath("gone");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  std::atomic<bool> die{false};
  std::mutex hmu;
  std::condition_variable hcv;
  bool release_handler = false;
  ASSERT_TRUE((*server)
                  ->Serve([&](std::string_view) {
                    die.store(true);
                    // Never answer until the test releases us (after the
                    // pending call has already failed via peer-gone).
                    std::unique_lock<std::mutex> lock(hmu);
                    hcv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return release_handler; });
                    return std::string();
                  })
                  .ok());
  SocketTransport::Options options;
  options.call_timeout_ms = 0;  // the failure must come from peer-gone
  auto transport = SocketTransport::Connect(spec, options);
  ASSERT_TRUE(transport.ok());
  TransportFuture pending = (*transport)->AsyncCall("doomed");
  while (!die.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Tear the connection down under the pending call. gtest would hang here
  // if the future never resolved — resolving with Unavailable IS the test.
  // (Shutdown shuts the fds down first, which is what resolves the call;
  // its thread-join then waits for the handler we release below.)
  std::thread shutdown([&] { (*server)->Shutdown(); });
  auto result = pending.get();
  {
    std::lock_guard<std::mutex> lock(hmu);
    release_handler = true;
  }
  hcv.notify_all();
  shutdown.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  // Follow-up calls fail fast with the same session-broken status.
  auto after = (*transport)->Call("still there?");
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable());
  TransportStats stats = (*transport)->stats();
  EXPECT_EQ(stats.calls, 0u);
  EXPECT_GE(stats.transport_errors, 2u);
}

TEST(DeferredTest, DeadlineBoundsGetSoAWedgedPeerCannotHangAFanout) {
  // A connected-but-stalled peer never resolves the future and never drops
  // the connection: with a timeout, Get() must come back with
  // DeadlineExceeded instead of blocking the fan-out forever.
  std::promise<StatusOr<std::string>> never_resolved;
  Deferred<std::string> deferred(
      never_resolved.get_future(),
      [](StatusOr<std::string> raw) { return raw; },
      /*timeout_ms=*/50);
  auto result = deferred.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
}

TEST(SocketTransportTest, SlowPeerSurfacesDeadlineExceeded) {
  const std::string spec = "unix:" + TempSocketPath("slow");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE((*server)
                  ->Serve([&](std::string_view request) {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return release; });
                    return std::string(request);
                  })
                  .ok());
  SocketTransport::Options options;
  options.call_timeout_ms = 50;
  auto transport = SocketTransport::Connect(spec, options);
  ASSERT_TRUE(transport.ok());
  auto result = (*transport)->Call("too slow");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

/// Drives the server with a RAW socket speaking a future wire version: the
/// reply must be a correlated ERROR frame carrying Unimplemented — the
/// version byte's whole purpose (a stale/newer peer gets a clear status,
/// never a silent mis-parse).
TEST(SocketTransportTest, ServerAnswersVersionSkewWithUnimplemented) {
  const std::string path = TempSocketPath("skew");
  auto server = SocketTransportServer::Bind("unix:" + path);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE(
      (*server)->Serve([](std::string_view) { return "unreachable"; }).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 1234, "from-the-future",
              /*version=*/9);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  Frame frame;
  bool got_frame = false;
  char buf[4096];
  for (int i = 0; i < 100 && !got_frame; ++i) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed without answering";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status();
    got_frame = *next;
  }
  ASSERT_TRUE(got_frame);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.id, 1234u);  // correlated to the mismatched request
  Status status = DecodeErrorPayload(frame.payload);
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  ::close(fd);
}

/// A garbled stream (bad type byte) has no correlatable request: the server
/// closes the connection, and the client surfaces that as Unavailable on
/// every pending call — never a hang, and stats count the failures.
TEST(SocketTransportTest, GarbledStreamClosesConnectionWithStatuses) {
  const std::string path = TempSocketPath("garbled");
  auto server = SocketTransportServer::Bind("unix:" + path);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Serve([](std::string_view) { return "x"; }).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string wire;
  AppendFrame(&wire, FrameType::kData, 5, "ok-frame");
  wire[1] = 0x6e;  // corrupt the type byte
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // The server must close on us (read returns 0), not crash or hang.
  char buf[64];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  EXPECT_EQ(n, 0);
  ::close(fd);

  // The server keeps serving OTHER (honest) connections.
  auto transport = SocketTransport::Connect("unix:" + path);
  ASSERT_TRUE(transport.ok());
  auto response = (*transport)->Call("after-garbage");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(*response, "x");
}

// ------------------------------------------------ chunk streaming (v2) ---

TEST(SocketTransportTest, ChunkStreamedRoundTripBoundsTheReceiveBuffer) {
  const std::string spec = "unix:" + TempSocketPath("chunked");
  SocketTransportServer::Options server_options;
  server_options.chunk_threshold = 32 * 1024;
  auto server = SocketTransportServer::Bind(spec, server_options);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)
                  ->Serve([](std::string_view request) {
                    return std::string(request);  // echo: streams back too
                  })
                  .ok());

  SocketTransport::Options client_options;
  client_options.chunk_threshold = 32 * 1024;
  auto transport = SocketTransport::Connect(spec, client_options);
  ASSERT_TRUE(transport.ok()) << transport.status();

  // Patterned (not constant) payload so the content-defined chunker cuts
  // realistically.
  std::string payload(4 * 1024 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 2654435761u) >> 11);
  }
  auto echoed = (*transport)->Call(payload);
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(*echoed, payload);

  TransportStats stats = (*transport)->stats();
  EXPECT_GT(stats.chunk_frames_sent, 1u);
  EXPECT_GT(stats.chunk_frames_received, 1u);
  // THE acceptance bound: the client's receive buffer peaked at O(chunk),
  // not O(value) — a monolithic 4 MiB response would show ~payload here.
  EXPECT_LT(stats.peak_decoder_buffer_bytes * 4, payload.size());

  // The same value sent again is pure dedup on the receiving shard.
  ChunkStoreStats before = (*server)->wire_chunk_stats();
  ASSERT_TRUE((*transport)->Call(payload).ok());
  ChunkStoreStats after = (*server)->wire_chunk_stats();
  EXPECT_GT(after.dedup_hits, before.dedup_hits);
  EXPECT_EQ(after.physical_bytes, before.physical_bytes);
}

TEST(SocketTransportTest, ChunkEndWithoutStreamClosesTheConnection) {
  const std::string path = TempSocketPath("chunk-orphan");
  auto server = SocketTransportServer::Bind("unix:" + path);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Serve([](std::string_view) { return "x"; }).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string wire;
  AppendFrame(&wire, FrameType::kChunkEnd, 9,
              wire::EncodeChunkEnd(0, 0, Hash256{}));
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  char buf[64];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // closed, not hung
  ::close(fd);

  // Honest connections still work afterwards.
  auto transport = SocketTransport::Connect("unix:" + path);
  ASSERT_TRUE(transport.ok());
  auto response = (*transport)->Call("after");
  ASSERT_TRUE(response.ok()) << response.status();
}

TEST(SocketTransportTest, GarbledChunkManifestClosesTheConnection) {
  const std::string path = TempSocketPath("chunk-garble");
  auto server = SocketTransportServer::Bind("unix:" + path);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Serve([](std::string_view) { return "x"; }).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Two chunk frames, then an END whose manifest does not match: integrity
  // check fails, the stream cannot be trusted, the connection dies.
  std::string wire;
  AppendFrame(&wire, FrameType::kChunk, 11, "part-one");
  AppendFrame(&wire, FrameType::kChunk, 11, "part-two");
  Hash256 wrong;
  wrong.bytes.fill(0xEE);
  AppendFrame(&wire, FrameType::kChunkEnd, 11,
              wire::EncodeChunkEnd(16, 2, wrong));
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  char buf[64];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);
  ::close(fd);

  // A truncated stream (chunks, then the peer vanishes) must also leave
  // the server serving; the half-built stream is garbage-collected with
  // the connection.
  int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string partial;
  AppendFrame(&partial, FrameType::kChunk, 12, "never-finished");
  ASSERT_EQ(::send(fd2, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(fd2);

  auto transport = SocketTransport::Connect("unix:" + path);
  ASSERT_TRUE(transport.ok());
  auto response = (*transport)->Call("after");
  ASSERT_TRUE(response.ok()) << response.status();
}

// ------------------------------------------------ retired version-1 peer ---

/// Connects a raw stream socket to the unix socket at `path`; -1 on failure.
int RawConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A JSON-era (wire version 1) peer on either end of a connection fails
/// typed and correlated, and the session keeps working for current frames.
TEST(SocketTransportTest, VersionOnePeerFailsTypedInBothDirections) {
  // Direction 1: a v1 request to a current server gets a correlated
  // Unimplemented ERROR frame and never reaches the engine; a current
  // request on the same connection is then served normally.
  {
    const std::string path = TempSocketPath("v1-request");
    auto server = SocketTransportServer::Bind("unix:" + path);
    ASSERT_TRUE(server.ok()) << server.status();
    ForkBaseEngine backend;
    StorageEngineService service(&backend);
    ASSERT_TRUE((*server)
                    ->Serve([&service](std::string_view request) {
                      return service.Handle(request);
                    })
                    .ok());
    int fd = RawConnect(path);
    ASSERT_GE(fd, 0);
    std::string wire;
    AppendFrame(&wire, FrameType::kData, 41,
                "{\"method\":\"put\",\"key\":\"legacy\","
                "\"data\":\"7061796c6f6164\"}",
                /*version=*/1);
    AppendFrame(&wire, FrameType::kData, 42,
                wire::EncodePlainRequest(wire::Method::kName));
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));

    FrameDecoder decoder;
    std::vector<Frame> frames;
    char buf[4096];
    while (frames.size() < 2) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      ASSERT_GT(n, 0) << "server closed after " << frames.size() << " frames";
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      Frame frame;
      for (;;) {
        auto next = decoder.Next(&frame);
        ASSERT_TRUE(next.ok()) << next.status();
        if (!*next) break;
        frames.push_back(frame);
      }
    }
    ::close(fd);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::kError);
    EXPECT_EQ(frames[0].id, 41u);
    EXPECT_EQ(DecodeErrorPayload(frames[0].payload).code(),
              StatusCode::kUnimplemented);
    EXPECT_EQ(frames[1].type, FrameType::kData);
    EXPECT_EQ(frames[1].id, 42u);
    auto name = wire::DecodeDataResponse(frames[1].payload);
    ASSERT_TRUE(name.ok()) << name.status();
    EXPECT_EQ(*name, "forkbase");
    EXPECT_EQ(backend.stats().puts, 0u);
    (*server)->Shutdown();
  }

  // Direction 2: a raw peer answers the first call with a v1 frame and the
  // second with a current one. The first call resolves as Unimplemented
  // (not a hang, not a deadline); the session survives for the second.
  {
    const std::string path = TempSocketPath("v1-reply");
    ::unlink(path.c_str());
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);
    std::thread peer([listen_fd] {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      FrameDecoder decoder;
      char buf[4096];
      int answered = 0;
      while (answered < 2) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
        Frame frame;
        while (answered < 2) {
          auto next = decoder.Next(&frame);
          if (!next.ok() || !*next) break;
          std::string reply;
          AppendFrame(&reply, FrameType::kData, frame.id, "reply",
                      answered == 0 ? uint8_t{1} : kWireVersion);
          if (::send(fd, reply.data(), reply.size(), 0) < 0) break;
          ++answered;
        }
      }
      ::close(fd);
    });

    SocketTransport::Options options;
    options.call_timeout_ms = 10000;  // a hang would surface as a deadline
    options.redial_budget_ms = 0;
    // EXPECTs only until the peer thread is joined.
    auto transport = SocketTransport::Connect("unix:" + path, options);
    EXPECT_TRUE(transport.ok()) << transport.status();
    if (transport.ok()) {
      auto first = (*transport)->Call("first");
      EXPECT_EQ(first.status().code(), StatusCode::kUnimplemented)
          << first.status();
      auto second = (*transport)->Call("second");
      EXPECT_TRUE(second.ok()) << second.status();
      if (second.ok()) {
        EXPECT_EQ(*second, "reply");
      }
      transport->reset();  // EOF releases a peer still waiting to read
    } else {
      ::shutdown(listen_fd, SHUT_RDWR);  // releases the peer's accept
    }
    peer.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
  }
}

// ------------------------------------------------------ server lifecycle ---

TEST(SocketTransportTest, ServerLifecycleStatesAreOneWay) {
  const std::string spec = "unix:" + TempSocketPath("lifecycle");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ((*server)->state(), ServerState::kInitial);

  ASSERT_TRUE((*server)->Serve([](std::string_view) { return ""; }).ok());
  EXPECT_EQ((*server)->state(), ServerState::kStarted);

  Status again = (*server)->Serve([](std::string_view) { return ""; });
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.code() == StatusCode::kFailedPrecondition);

  (*server)->Shutdown();
  EXPECT_EQ((*server)->state(), ServerState::kStopped);
  (*server)->Shutdown();  // idempotent
  EXPECT_EQ((*server)->state(), ServerState::kStopped);

  Status after = (*server)->Serve([](std::string_view) { return ""; });
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.code() == StatusCode::kFailedPrecondition);

  // Bind-then-destroy (never served) goes kInitial -> kStopped cleanly.
  auto idle = SocketTransportServer::Bind(
      "unix:" + TempSocketPath("lifecycle-idle"));
  ASSERT_TRUE(idle.ok());
  (*idle)->Shutdown();
  EXPECT_EQ((*idle)->state(), ServerState::kStopped);
}

TEST(SocketTransportTest, StatsStayConsistentUnderConcurrentCalls) {
  // Same triple-consistency contract as LoopbackTransport, now with the
  // demux thread doing the counting: fixed-size requests/responses make a
  // torn snapshot detectable arithmetically.
  const std::string spec = "unix:" + TempSocketPath("stats");
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  const std::string response(32, 'r');
  ASSERT_TRUE(
      (*server)->Serve([&](std::string_view) { return response; }).ok());
  auto transport = SocketTransport::Connect(spec);
  ASSERT_TRUE(transport.ok());

  const std::string request(24, 'q');
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      TransportStats s = (*transport)->stats();
      if (s.request_bytes != s.calls * request.size() ||
          s.response_bytes != s.calls * response.size()) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*transport)->Call(request).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  TransportStats stats = (*transport)->stats();
  EXPECT_EQ(stats.calls, 1000u);
  EXPECT_EQ(stats.request_bytes, stats.calls * request.size());
  EXPECT_EQ(stats.response_bytes, stats.calls * response.size());
}

}  // namespace
}  // namespace mlcask::storage
