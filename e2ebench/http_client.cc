#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace nde {
namespace e2e {

namespace {

/// Closes the socket on every return path.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<HttpResponse> HttpCall(uint16_t port, const std::string& method,
                              const std::string& target,
                              const std::string& body) {
  Socket socket;
  if (socket.fd() < 0) return Errno("socket");
  // A stuck server must not hang the benchmark past its deadline.
  timeval timeout{30, 0};
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout,
               sizeof(timeout));
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(socket.fd(), reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Errno("connect");
  }

  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(socket.fd(), request.data() + sent,
                       request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("send");
    sent += static_cast<size_t>(n);
  }

  std::string response;
  char buffer[16384];
  for (;;) {
    ssize_t n = ::recv(socket.fd(), buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("recv");
    if (n == 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }

  // "HTTP/1.1 200 OK\r\n...headers...\r\n\r\nbody"
  size_t space = response.find(' ');
  size_t header_end = response.find("\r\n\r\n");
  if (response.compare(0, 5, "HTTP/") != 0 || space == std::string::npos ||
      header_end == std::string::npos) {
    return Status::IOError("malformed HTTP response to " + method + " " +
                           target);
  }
  HttpResponse out;
  out.status = std::atoi(response.c_str() + space + 1);
  out.body = response.substr(header_end + 4);
  return out;
}

}  // namespace e2e
}  // namespace nde
