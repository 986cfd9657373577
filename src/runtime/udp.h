// UDP transport with real ip-multicast. Unicast: one socket per node at
// base_port + node id. Multicast: one group address per channel
// (mcast_base + channel) joined on the configured interface; the sender
// is filtered out on receive (frames carry the sender id). A background
// thread polls all sockets and hands decoded messages to the receiver.
//
// Hot-path batching: sends are queued and flushed by the poll thread in
// sendmmsg() batches (one syscall for a run of frames to the same
// socket); a send writes the wake eventfd only when it makes the queue
// non-empty, because the poll thread swaps out the whole queue after
// each wake. Per-destination FIFO is preserved: the tx queue keeps
// submission order and batches never reorder across it.
//
// Receives drain each socket with recvmmsg() into one reused slab of
// rx_batch slots, each large enough for any frame. Every datagram is
// copied once into an exact-size frame that feeds the zero-copy decode
// path (net/codec.h): ClientMsg payloads alias that frame, so a kept
// message pins only its own datagram's bytes, never a slab slot.
//
// Defaults target loopback so a whole cluster runs on one machine; with
// bind_ip / interface set to a real NIC the same code runs a distributed
// deployment (see examples/mrp_node.cc).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "runtime/transport.h"

namespace mrp::runtime {

struct UdpConfig {
  std::string bind_ip = "127.0.0.1";
  std::uint16_t base_port = 45000;        // unicast: base_port + node id
  std::string mcast_prefix = "239.255.77.";  // + (1 + channel)
  std::uint16_t mcast_port_base = 46500;  // + channel
  std::string mcast_if = "127.0.0.1";
  // Max datagrams per recvmmsg() / sendmmsg() syscall.
  int rx_batch = 32;
  int tx_batch = 32;
};

class UdpTransport final : public Transport {
 public:
  UdpTransport(NodeId self, UdpConfig cfg);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void Send(NodeId to, MessagePtr msg) override;
  void Multicast(ChannelId channel, MessagePtr msg) override;
  void Subscribe(ChannelId channel) override;
  void SetReceiver(RxFn rx) override;

  // Starts the polling thread (after subscriptions are registered).
  void Start();
  void Stop();

  std::uint64_t tx_frames() const { return tx_frames_.load(); }
  // Messages never sent: not encodable, or larger than one datagram.
  std::uint64_t tx_dropped() const { return tx_dropped_.load(); }
  std::uint64_t rx_frames() const { return rx_frames_.load(); }
  // Syscall-batching effectiveness: frames per batch = frames/batches.
  std::uint64_t tx_batches() const { return tx_batches_.load(); }
  std::uint64_t rx_batches() const { return rx_batches_.load(); }

 private:
  struct TxEntry {
    int fd = -1;
    sockaddr_in addr{};
    Bytes frame;
  };

  void PollLoop();
  int OpenMulticastRx(ChannelId channel);
  // Frames `msg` (sender-id header + encoding) in one buffer; empty,
  // counted in tx_dropped() and logged, on unencodable or oversized
  // messages.
  Bytes FrameMessage(const MessageBase& msg);
  // Queues a frame for the poll thread (or sends inline when the poll
  // thread is not running, e.g. before Start()).
  void EnqueueTx(int fd, const sockaddr_in& addr, Bytes frame);
  // Swaps out the queue and flushes it in sendmmsg() runs.
  void DrainTxQueue();
  void SendBatch(TxEntry* entries, std::size_t count);
  // Drains `fd` with recvmmsg() into the slab and dispatches.
  void ReadSocket(int fd);

  NodeId self_;
  UdpConfig cfg_;
  RxFn rx_;
  int unicast_fd_ = -1;
  int mcast_tx_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Send() wakes the poll thread to flush tx
  std::vector<std::pair<ChannelId, int>> mcast_rx_fds_;
  std::thread poll_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> tx_frames_{0};
  std::atomic<std::uint64_t> tx_dropped_{0};
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> tx_batches_{0};
  std::atomic<std::uint64_t> rx_batches_{0};

  std::mutex tx_mu_;
  std::vector<TxEntry> tx_queue_;  // guarded by tx_mu_

  // Poll-thread receive state: rx_batch slots of kMaxFrame bytes (left
  // uninitialised) and the recvmmsg() headers pointing at them.
  std::unique_ptr<std::uint8_t[]> rx_slab_;
  std::vector<iovec> rx_iovs_;
  std::vector<mmsghdr> rx_hdrs_;
};

}  // namespace mrp::runtime
