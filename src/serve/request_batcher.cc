#include "serve/request_batcher.h"

#include <string_view>

namespace mlp {
namespace serve {

std::string RenderBatchJson(const ReadModel& model, const BatchRequest& request,
                            obs::RequestTrace* trace) {
  std::vector<std::string_view> fragments;
  fragments.reserve(request.users.size() + request.edges.size());
  {
    obs::RequestTrace::StageTimer timer(trace, obs::RequestStage::kLookup);
    for (graph::UserId user : request.users) {
      fragments.push_back(model.UserJson(user));
    }
    for (const auto& [src, dst] : request.edges) {
      fragments.push_back(model.EdgeJson(model.FindEdge(src, dst)));
    }
  }

  obs::RequestTrace::StageTimer timer(trace, obs::RequestStage::kRender);
  constexpr std::string_view kNull = "null";
  size_t total = 32;
  for (std::string_view fragment : fragments) {
    total += (fragment.empty() ? kNull.size() : fragment.size()) + 1;
  }
  std::string body;
  body.reserve(total);
  auto join = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i > begin) body += ',';
      body += fragments[i].empty() ? kNull : fragments[i];
    }
  };
  body += "{\"users\":[";
  join(0, request.users.size());
  body += "],\"edges\":[";
  join(request.users.size(), fragments.size());
  body += "]}";
  return body;
}

}  // namespace serve
}  // namespace mlp
