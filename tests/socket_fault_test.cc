// Socket-backend fault injection (runtime/socket_fabric.h).
//
// A stream peer can misbehave in ways the in-process and shm fabrics cannot:
// hang up mid-frame, dribble bytes one at a time, send garbage, or simply
// not exist.  Each test plays a raw-socket peer speaking (or violating) the
// frame protocol against a real fabric and asserts the contract from the
// header: faults latch a sticky error() and never hang or corrupt — and
// well-formed-but-slow traffic is not a fault.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/live_rack.h"
#include "src/runtime/socket_fabric.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

using Clock = std::chrono::steady_clock;

std::string UniqueBase(const char* tag) {
  static int counter = 0;
  return "/tmp/cckvs_fault_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter++);
}

// Connects to `path` (retrying while the listener comes up) or returns -1.
int ConnectUds(const std::string& path) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

void SendAll(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = send(fd, p, len, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void SendFrameRaw(int fd, std::uint8_t type, const void* payload, std::uint32_t len) {
  std::uint8_t header[kSocketFrameHeaderBytes];
  header[0] = type;
  for (int i = 0; i < 4; ++i) {
    header[1 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  SendAll(fd, header, sizeof(header));
  if (len > 0) {
    SendAll(fd, payload, len);
  }
}

// Builds a 2-node ranked fabric as rank 0 while a raw-socket "rank 1"
// connects and completes the hello handshake.  Returns the fabric and the
// peer's fd (the caller owns both).
std::unique_ptr<TransportFabric> MakeRank0WithRawPeer(const std::string& base,
                                                      int* peer_fd) {
  FabricConfig config;
  config.num_nodes = 2;
  TransportOptions opts;
  opts.kind = TransportKind::kSocket;
  opts.rank = 0;
  opts.socket_path_base = base;
  opts.connect_timeout_ms = 10'000;

  std::unique_ptr<TransportFabric> fabric;
  std::string error;
  std::thread builder([&] { fabric = MakeFabric(config, opts, &error); });

  const int fd = ConnectUds(base + ".0");
  EXPECT_GE(fd, 0);
  const std::uint8_t rank = 1;
  SendFrameRaw(fd, kSocketFrameHello, &rank, 1);
  builder.join();
  EXPECT_NE(fabric, nullptr) << error;
  *peer_fd = fd;
  return fabric;
}

bool EventuallyFaulted(TransportFabric& fabric) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!fabric.faulted() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return fabric.faulted();
}

TEST(SocketFault, ConnectRefusedFailsCleanlyWithinDeadline) {
  FabricConfig config;
  config.num_nodes = 2;
  TransportOptions opts;
  opts.kind = TransportKind::kSocket;
  opts.rank = 1;  // must connect to rank 0, which does not exist
  opts.socket_path_base = UniqueBase("refused");
  opts.connect_timeout_ms = 300;

  const auto t0 = Clock::now();
  std::string error;
  std::unique_ptr<TransportFabric> fabric = MakeFabric(config, opts, &error);
  EXPECT_EQ(fabric, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(8)) << "deadline ignored";
}

TEST(SocketFault, LiveRackSurfacesConnectErrorInReport) {
  LiveRackParams p;
  p.num_nodes = 2;
  p.ops_per_node = 100;
  p.transport.kind = TransportKind::kSocket;
  p.transport.rank = 1;
  p.transport.socket_path_base = UniqueBase("rack_refused");
  p.transport.connect_timeout_ms = 300;

  LiveRack rack(p);
  const LiveReport report = rack.Run();
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.transport_error.empty());
  EXPECT_EQ(report.completed, 0u);
}

TEST(SocketFault, PeerHangupMidBatchLatchesError) {
  int peer_fd = -1;
  auto fabric = MakeRank0WithRawPeer(UniqueBase("midbatch"), &peer_fd);
  ASSERT_NE(fabric, nullptr);
  ASSERT_GE(peer_fd, 0);

  // A batch frame promising 100 payload bytes, delivering 10, then hangup.
  std::uint8_t header[kSocketFrameHeaderBytes] = {kSocketFrameBatch, 100, 0, 0, 0};
  SendAll(peer_fd, header, sizeof(header));
  std::uint8_t partial[10] = {};
  SendAll(peer_fd, partial, sizeof(partial));
  close(peer_fd);

  EXPECT_TRUE(EventuallyFaulted(*fabric));
  EXPECT_NE(fabric->error().find("hung up"), std::string::npos) << fabric->error();
  fabric->Shutdown();  // must not hang
}

TEST(SocketFault, PartialHeaderThenCloseLatchesError) {
  int peer_fd = -1;
  auto fabric = MakeRank0WithRawPeer(UniqueBase("midheader"), &peer_fd);
  ASSERT_NE(fabric, nullptr);
  ASSERT_GE(peer_fd, 0);

  // A short write: two bytes of a five-byte frame header, then hangup.
  const std::uint8_t short_write[2] = {kSocketFrameBatch, 50};
  SendAll(peer_fd, short_write, sizeof(short_write));
  close(peer_fd);

  EXPECT_TRUE(EventuallyFaulted(*fabric));
  fabric->Shutdown();
}

TEST(SocketFault, TrickledFrameDecodesAndCleanCloseIsNotAFault) {
  int peer_fd = -1;
  auto fabric = MakeRank0WithRawPeer(UniqueBase("trickle"), &peer_fd);
  ASSERT_NE(fabric, nullptr);
  ASSERT_GE(peer_fd, 0);

  // A valid batch, dribbled one byte at a time: partial reads must reassemble.
  WireBatch batch;
  batch.src = 1;
  batch.Append(WireBody{UpdateMsg{42, "trickle", Timestamp{7, 1}}});
  Buffer payload;
  SerializeWireBatch(batch, &payload);

  Buffer frame;
  frame.push_back(kSocketFrameBatch);
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  for (const std::uint8_t byte : frame) {
    SendAll(peer_fd, &byte, 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::vector<WireBatch> out;
  WireBatchPool pool;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (out.empty() && Clock::now() < deadline) {
    fabric->Drain(0, &out, 8, &pool);
    if (out.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, 1);
  ASSERT_EQ(out[0].size(), 1u);
  const auto& upd = std::get<UpdateMsg>(out[0][0]);
  EXPECT_EQ(upd.key, 42u);
  EXPECT_EQ(upd.value, "trickle");

  // EOF at a frame boundary is orderly teardown, not a fault.
  close(peer_fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(fabric->faulted()) << fabric->error();
  fabric->Shutdown();
}

TEST(SocketFault, UndecodableBatchFrameLatchesError) {
  int peer_fd = -1;
  auto fabric = MakeRank0WithRawPeer(UniqueBase("garbage"), &peer_fd);
  ASSERT_NE(fabric, nullptr);
  ASSERT_GE(peer_fd, 0);

  const std::uint8_t garbage[8] = {0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8};
  SendFrameRaw(peer_fd, kSocketFrameBatch, garbage, sizeof(garbage));

  EXPECT_TRUE(EventuallyFaulted(*fabric));
  EXPECT_NE(fabric->error().find("undecodable"), std::string::npos)
      << fabric->error();
  close(peer_fd);
  fabric->Shutdown();
}

TEST(SocketFault, OversizedFrameLatchesError) {
  int peer_fd = -1;
  auto fabric = MakeRank0WithRawPeer(UniqueBase("oversize"), &peer_fd);
  ASSERT_NE(fabric, nullptr);
  ASSERT_GE(peer_fd, 0);

  // Header alone: a length past the frame cap must fault before any payload
  // is read (no 16MB+ allocation on a hostile length).
  std::uint8_t header[kSocketFrameHeaderBytes];
  header[0] = kSocketFrameBatch;
  const std::uint32_t huge = kSocketMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header[1 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  SendAll(peer_fd, header, sizeof(header));

  EXPECT_TRUE(EventuallyFaulted(*fabric));
  close(peer_fd);
  fabric->Shutdown();
}

}  // namespace
}  // namespace cckvs
