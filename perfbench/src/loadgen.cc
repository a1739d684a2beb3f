#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

namespace perfbench {

using fairhms::Status;
using fairhms::StatusOr;

namespace {

// Responses still owed this long after the sending window closes fail
// the run instead of hanging it.
constexpr double kDrainLimitMs = 60000.0;

std::string ResponseId(const std::string& response) {
  static const std::string kKey = "\"id\": \"";
  const size_t start = response.find(kKey);
  if (start == std::string::npos) return "";
  const size_t from = start + kKey.size();
  const size_t end = response.find('"', from);
  return end == std::string::npos ? "" : response.substr(from, end - from);
}

struct Conn {
  int fd = -1;
  std::string out;  ///< Bytes not yet accepted by the socket.
  std::string in;   ///< Bytes of an incomplete response line.
  std::deque<const Line*> todo;  ///< Closed loop: lines still to send.
  double next_due = -1.0;  ///< Closed loop: when todo.front() is due.
};

Status Flush(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    c->out.erase(0, static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

StatusOr<LoadGen> LoadGen::Connect(int port, int connections) {
  std::vector<int> fds;
  LoadGen gen(std::move(fds));
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::Internal("socket failed");
    gen.fds_.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Internal(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return gen;
}

LoadGen::LoadGen(LoadGen&& other) noexcept : fds_(std::move(other.fds_)) {
  other.fds_.clear();
}

LoadGen::~LoadGen() {
  for (const int fd : fds_) ::close(fd);
}

StatusOr<LoadResult> LoadGen::Run(const std::vector<Line>& lines,
                                  bool open_loop, double seconds) {
  std::vector<Conn> conns(fds_.size());
  for (size_t c = 0; c < fds_.size(); ++c) conns[c].fd = fds_[c];
  for (const Line& line : lines) {
    if (line.conn < 0 || static_cast<size_t>(line.conn) >= conns.size()) {
      return Status::InvalidArgument("line on an unopened connection");
    }
    if (!open_loop) conns[static_cast<size_t>(line.conn)].todo.push_back(&line);
  }

  LoadResult result;
  result.phase_ms = seconds * 1000.0;
  result.samples.reserve(open_loop ? lines.size() : 4096);
  std::unordered_map<std::string, size_t> pending;  // id -> sample index
  const auto start = std::chrono::steady_clock::now();
  const auto now_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto send_line = [&](Conn* c, const Line* line,
                             double due_ms) -> Status {
    Sample s;
    s.line = line;
    s.due_ms = due_ms;
    s.send_ms = now_ms();
    pending.emplace(line->id, result.samples.size());
    result.samples.push_back(std::move(s));
    c->out += line->text;
    c->out += '\n';
    return Flush(c);
  };

  if (!open_loop) {
    for (Conn& c : conns) {
      if (!c.todo.empty()) c.next_due = c.todo.front()->think_ms;
    }
  }
  size_t next = 0;  // Open loop: next scheduled line.
  std::vector<pollfd> pfds(conns.size());
  char buf[1 << 16];
  for (;;) {
    double now = now_ms();
    if (open_loop) {
      while (next < lines.size() && lines[next].due_ms <= now &&
             lines[next].due_ms < result.phase_ms) {
        const Line& line = lines[next++];
        FAIRHMS_RETURN_IF_ERROR(send_line(
            &conns[static_cast<size_t>(line.conn)], &line, line.due_ms));
      }
    } else {
      for (Conn& c : conns) {
        if (c.next_due < 0.0 || c.next_due > now ||
            c.next_due >= result.phase_ms) {
          continue;
        }
        const Line* line = c.todo.front();
        c.todo.pop_front();
        const double due = c.next_due;
        c.next_due = -1.0;
        FAIRHMS_RETURN_IF_ERROR(send_line(&c, line, due));
      }
    }
    const bool sending = now < result.phase_ms;
    if (!sending && pending.empty()) break;
    if (now > result.phase_ms + kDrainLimitMs) {
      return Status::DeadlineExceeded("responses still outstanding after "
                                      "the drain limit");
    }
    double wait_ms = 50.0;
    if (open_loop && sending && next < lines.size()) {
      wait_ms = std::min(wait_ms, lines[next].due_ms - now);
    }
    for (const Conn& c : conns) {
      if (c.next_due >= 0.0) wait_ms = std::min(wait_ms, c.next_due - now);
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      pfds[c].fd = conns[c].fd;
      pfds[c].events =
          static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    timespec ts{};
    if (wait_ms > 0.0) {
      ts.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
      ts.tv_nsec = static_cast<long>(
          std::fmod(wait_ms, 1000.0) * 1e6);
    }
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (pfds[c].revents & POLLOUT) FAIRHMS_RETURN_IF_ERROR(Flush(&conn));
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) return Status::Internal("server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Status::Internal(std::string("recv: ") + std::strerror(errno));
      }
      size_t nl;
      while ((nl = conn.in.find('\n')) != std::string::npos) {
        std::string response = conn.in.substr(0, nl);
        conn.in.erase(0, nl + 1);
        const auto it = pending.find(ResponseId(response));
        if (it == pending.end()) {
          return Status::Internal("response with an unknown id: " + response);
        }
        Sample& s = result.samples[it->second];
        pending.erase(it);
        s.recv_ms = now_ms();
        s.response = std::move(response);
        if (s.recv_ms <= result.phase_ms) ++result.completed_in_phase;
        if (!open_loop && !conn.todo.empty() && s.recv_ms < result.phase_ms) {
          const Line* line = conn.todo.front();
          if (line->think_ms > 0.0) {
            conn.next_due = s.recv_ms + line->think_ms;
          } else {
            conn.todo.pop_front();
            FAIRHMS_RETURN_IF_ERROR(send_line(&conn, line, s.recv_ms));
          }
        }
      }
    }
  }
  return result;
}

}  // namespace perfbench
