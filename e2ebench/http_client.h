#ifndef NDE_E2EBENCH_HTTP_CLIENT_H_
#define NDE_E2EBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace nde {
namespace e2e {

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// One HTTP/1.1 request to 127.0.0.1:`port` over a fresh connection, read
/// until the server closes it (the embedded exporter answers with
/// `Connection: close`). Transport failures and unparsable responses come
/// back as an error Status; any HTTP status is returned as-is.
Result<HttpResponse> HttpCall(uint16_t port, const std::string& method,
                              const std::string& target,
                              const std::string& body = "");

}  // namespace e2e
}  // namespace nde

#endif  // NDE_E2EBENCH_HTTP_CLIENT_H_
