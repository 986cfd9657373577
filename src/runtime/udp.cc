#include "runtime/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "common/logging.h"
#include "net/codec.h"

namespace mrp::runtime {
namespace {

constexpr std::size_t kHeaderBytes = 4;  // u32 sender id
constexpr std::size_t kMaxFrame = kHeaderBytes + kMaxWireMessage;
// Requested per receive socket; the kernel caps it at net.core.rmem_max.
// A deep buffer rides out bursts while the poll thread is descheduled.
constexpr int kRcvBufBytes = 4 * 1024 * 1024;

sockaddr_in MakeAddr(const std::string& ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad address: " + ip);
  }
  return addr;
}

// Requests kRcvBufBytes on a receive socket and logs, once per process,
// what the kernel granted (Linux reports twice the usable size).
void SetRcvBuf(int fd) {
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kRcvBufBytes, sizeof kRcvBufBytes);
  static std::atomic<bool> logged{false};
  if (logged.exchange(true)) return;
  int granted = 0;
  socklen_t len = sizeof granted;
  ::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &granted, &len);
  if (granted < kRcvBufBytes) {
    MRP_WARN << "udp: SO_RCVBUF granted " << granted << " bytes of "
             << kRcvBufBytes << " requested (capped by net.core.rmem_max)";
  } else {
    MRP_INFO << "udp: SO_RCVBUF granted " << granted << " bytes";
  }
}

}  // namespace

UdpTransport::UdpTransport(NodeId self, UdpConfig cfg)
    : self_(self), cfg_(std::move(cfg)) {
  if (cfg_.rx_batch < 1) cfg_.rx_batch = 1;
  if (cfg_.tx_batch < 1) cfg_.tx_batch = 1;
  unicast_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (unicast_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(unicast_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  SetRcvBuf(unicast_fd_);
  auto addr = MakeAddr(cfg_.bind_ip, static_cast<std::uint16_t>(cfg_.base_port + self_));
  if (::bind(unicast_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("bind() failed for node " + std::to_string(self_));
  }

  mcast_tx_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  in_addr iface{};
  inet_pton(AF_INET, cfg_.mcast_if.c_str(), &iface);
  ::setsockopt(mcast_tx_fd_, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface);
  int loop = 1;
  ::setsockopt(mcast_tx_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) throw std::runtime_error("eventfd() failed");

  const auto slots = static_cast<std::size_t>(cfg_.rx_batch);
  rx_slab_ = std::make_unique_for_overwrite<std::uint8_t[]>(slots * kMaxFrame);
  rx_iovs_.resize(slots);
  rx_hdrs_.resize(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    rx_iovs_[k] = {rx_slab_.get() + k * kMaxFrame, kMaxFrame};
    rx_hdrs_[k].msg_hdr.msg_iov = &rx_iovs_[k];
    rx_hdrs_[k].msg_hdr.msg_iovlen = 1;
  }
}

UdpTransport::~UdpTransport() {
  Stop();
  if (unicast_fd_ >= 0) ::close(unicast_fd_);
  if (mcast_tx_fd_ >= 0) ::close(mcast_tx_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  for (auto& [ch, fd] : mcast_rx_fds_) ::close(fd);
}

int UdpTransport::OpenMulticastRx(ChannelId channel) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  SetRcvBuf(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.mcast_port_base + channel));
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("multicast bind failed");
  }
  ip_mreq mreq{};
  const std::string group = cfg_.mcast_prefix + std::to_string(1 + channel);
  inet_pton(AF_INET, group.c_str(), &mreq.imr_multiaddr);
  inet_pton(AF_INET, cfg_.mcast_if.c_str(), &mreq.imr_interface);
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0) {
    ::close(fd);
    throw std::runtime_error("IP_ADD_MEMBERSHIP failed");
  }
  return fd;
}

void UdpTransport::Subscribe(ChannelId channel) {
  for (const auto& [ch, fd] : mcast_rx_fds_) {
    if (ch == channel) return;
  }
  mcast_rx_fds_.emplace_back(channel, OpenMulticastRx(channel));
}

void UdpTransport::SetReceiver(RxFn rx) { rx_ = std::move(rx); }

Bytes UdpTransport::FrameMessage(const MessageBase& msg) {
  // Header and message encode into one buffer: no intermediate frame
  // copy on the send path. The reserve is capped because an oversized
  // message is dropped anyway.
  ByteWriter w(kHeaderBytes + std::min(msg.WireSize(), kMaxWireMessage));
  w.u32(self_);
  if (net::EncodeMessageTo(w, msg) && w.size() > kHeaderBytes && w.size() <= kMaxFrame) {
    return w.take();
  }
  ++tx_dropped_;
  MRP_WARN << "udp: dropping " << msg.TypeName() << " of " << w.size() - kHeaderBytes
           << " bytes (unencodable or over " << kMaxWireMessage << ")";
  return {};
}

void UdpTransport::EnqueueTx(int fd, const sockaddr_in& addr, Bytes frame) {
  if (!running_.load(std::memory_order_relaxed)) {
    // Poll thread not running (pre-Start or during Stop's final flush):
    // send inline, preserving the old synchronous behaviour.
    ::sendto(fd, frame.data(), frame.size(), 0,
             reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    ++tx_frames_;
    return;
  }
  bool was_empty = false;
  {
    std::scoped_lock lock(tx_mu_);
    was_empty = tx_queue_.empty();
    tx_queue_.push_back(TxEntry{fd, addr, std::move(frame)});
  }
  // A non-empty queue already has a wake pending: the poll thread reads
  // the wake before it swaps out the whole queue.
  if (!was_empty) return;
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void UdpTransport::Send(NodeId to, MessagePtr msg) {
  Bytes frame = FrameMessage(*msg);
  if (frame.empty()) return;
  auto addr = MakeAddr(cfg_.bind_ip, static_cast<std::uint16_t>(cfg_.base_port + to));
  EnqueueTx(unicast_fd_, addr, std::move(frame));
}

void UdpTransport::Multicast(ChannelId channel, MessagePtr msg) {
  Bytes frame = FrameMessage(*msg);
  if (frame.empty()) return;
  const std::string group = cfg_.mcast_prefix + std::to_string(1 + channel);
  auto addr = MakeAddr(group, static_cast<std::uint16_t>(cfg_.mcast_port_base + channel));
  EnqueueTx(mcast_tx_fd_, addr, std::move(frame));
}

void UdpTransport::SendBatch(TxEntry* entries, std::size_t count) {
  std::vector<mmsghdr> hdrs(count);
  std::vector<iovec> iovs(count);
  for (std::size_t k = 0; k < count; ++k) {
    iovs[k] = {entries[k].frame.data(), entries[k].frame.size()};
    msghdr& h = hdrs[k].msg_hdr;
    h.msg_name = &entries[k].addr;
    h.msg_namelen = sizeof(sockaddr_in);
    h.msg_iov = &iovs[k];
    h.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(entries[0].fd, hdrs.data() + sent,
                             static_cast<unsigned>(count - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // UDP is best-effort: drop the rest of this run, as the
              // old per-frame sendto did on error
    }
    sent += static_cast<std::size_t>(n);
  }
  tx_frames_ += sent;
  ++tx_batches_;
}

void UdpTransport::DrainTxQueue() {
  std::vector<TxEntry> batch;
  {
    std::scoped_lock lock(tx_mu_);
    batch.swap(tx_queue_);
  }
  if (batch.empty()) return;
  // Group the longest run of consecutive frames to one socket: order
  // within the queue (and thus per-destination FIFO) is preserved.
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].fd == batch[i].fd &&
           j - i < static_cast<std::size_t>(cfg_.tx_batch)) {
      ++j;
    }
    SendBatch(batch.data() + i, j - i);
    i = j;
  }
}

void UdpTransport::ReadSocket(int fd) {
  const std::size_t batch = rx_hdrs_.size();
  for (;;) {
    const int got = ::recvmmsg(fd, rx_hdrs_.data(), static_cast<unsigned>(batch),
                               MSG_DONTWAIT, nullptr);
    if (got <= 0) return;
    ++rx_batches_;
    for (std::size_t k = 0; k < static_cast<std::size_t>(got); ++k) {
      const std::size_t len = rx_hdrs_[k].msg_len;
      if (len <= kHeaderBytes) continue;
      const auto* slot = static_cast<const std::uint8_t*>(rx_iovs_[k].iov_base);
      ByteReader r(std::span<const std::uint8_t>(slot, kHeaderBytes));
      auto from = r.u32();
      if (!from || *from == self_) continue;  // multicast self-loop filter
      // The slot is overwritten by the next recvmmsg(): copy the message
      // into an exact-size frame. Payload fields of the decoded message
      // alias that frame (zero-copy decode) and keep it alive.
      auto frame = std::make_shared<const Bytes>(slot + kHeaderBytes, slot + len);
      MessagePtr msg = net::DecodeMessage(std::move(frame));
      if (msg == nullptr) {
        MRP_WARN << "udp: dropping undecodable frame of " << len << " bytes";
        continue;
      }
      ++rx_frames_;
      if (rx_) rx_(*from, std::move(msg));
    }
    if (static_cast<std::size_t>(got) < batch) return;
  }
}

void UdpTransport::Start() {
  if (running_.exchange(true)) return;
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void UdpTransport::Stop() {
  if (!running_.exchange(false)) return;
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  if (poll_thread_.joinable()) poll_thread_.join();
  DrainTxQueue();  // flush frames enqueued before running_ flipped
}

void UdpTransport::PollLoop() {
  std::vector<pollfd> fds;
  fds.push_back({wake_fd_, POLLIN, 0});
  fds.push_back({unicast_fd_, POLLIN, 0});
  for (const auto& [ch, fd] : mcast_rx_fds_) fds.push_back({fd, POLLIN, 0});

  while (running_.load(std::memory_order_relaxed)) {
    const int n = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    if (n > 0) {
      for (auto& pfd : fds) {
        if (!(pfd.revents & POLLIN)) continue;
        if (pfd.fd == wake_fd_) {
          std::uint64_t drained;
          while (::read(wake_fd_, &drained, sizeof drained) > 0) {
          }
          continue;  // tx flush happens below, once per poll round
        }
        ReadSocket(pfd.fd);
      }
    }
    DrainTxQueue();
  }
}

}  // namespace mrp::runtime
