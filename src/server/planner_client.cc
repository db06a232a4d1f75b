#include "server/planner_client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace p2::server {

PlannerClient::PlannerClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("connect: ") +
                             std::strerror(saved));
  }
}

PlannerClient::~PlannerClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool PlannerClient::SendRaw(std::string_view bytes) {
  return SendAll(fd_, bytes);
}

bool PlannerClient::ReceiveFrame(Frame* frame) {
  return server::ReceiveFrame(fd_, &buffer_, frame) == FrameDecodeStatus::kOk;
}

bool PlannerClient::RoundTrip(const Frame& request, Frame* reply) {
  return SendRaw(EncodeFrame(request)) && ReceiveFrame(reply);
}

PlanWireResponse PlannerClient::Plan(const PlanWireRequest& request) {
  PlanWireResponse response;
  const auto transport_error = [&response](const char* what) {
    response = PlanWireResponse{};
    response.status = WireStatus::kInternal;
    response.message = what;
    return response;
  };
  Frame reply;
  if (!RoundTrip(Frame{FrameType::kPlanRequest, EncodePlanRequest(request)},
                 &reply)) {
    return transport_error("connection lost");
  }
  if (reply.type == FrameType::kError) {
    WireStatus status = WireStatus::kInternal;
    std::string message;
    if (DecodeStatusPayload(reply.payload, &status, &message)) {
      response.status = status;
      response.message = message;
      return response;
    }
    return transport_error("malformed error frame");
  }
  if (reply.type != FrameType::kPlanResponse) {
    return transport_error("unexpected frame type");
  }
  std::string error;
  if (!DecodePlanResponse(reply.payload, &response, &error)) {
    return transport_error("malformed plan response");
  }
  return response;
}

PlannerClient::StatsResult PlannerClient::Stats() {
  StatsResult result;
  Frame reply;
  if (!RoundTrip(Frame{FrameType::kStatsRequest, {}}, &reply) ||
      reply.type != FrameType::kStatsResponse) {
    result.json = "no stats response";
    return result;
  }
  if (!DecodeStatusPayload(reply.payload, &result.status, &result.json)) {
    result.status = WireStatus::kInternal;
    result.json = "malformed stats response";
  }
  return result;
}

bool PlannerClient::Shutdown() {
  Frame reply;
  return RoundTrip(Frame{FrameType::kShutdownRequest, {}}, &reply) &&
         reply.type == FrameType::kShutdownResponse;
}

int PortFromFile(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f != nullptr) {
      int port = 0;
      const int got = std::fscanf(f, "%d", &port);
      std::fclose(f);
      if (got == 1 && port > 0) return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

}  // namespace p2::server
